"""``load_file_store`` recovery across the exhaustive disk-fault matrix.

The ISSUE 9 recovery guarantee, as a sweep: run a fixed workload once
cleanly to enumerate every numbered fs step, then re-run it once per
(step, kind) pair with that fault armed, simulate power loss at the
fault, and recover from the directory alone.  Every write acknowledged
before the fault must read back; recovery itself must verify.  This is
the ``CrashPlan`` matrix discipline extended from crash points to
``ENOSPC`` / ``SHORT_WRITE`` points -- including every sealed-record
boundary and the checkpoint rewrite steps between them.
"""

import pathlib
import tempfile

import pytest

from repro.core.engine.config import preset
from repro.faultfs import FaultFS, FaultKind, FaultPlan, StorageFault
from repro.persist.config import DurabilityConfig
from repro.service.storage import FileStore, load_file_store
from repro.service.tenant import derive_key
from repro.stack import EngineStack
from tests.faultfs.recording import RecordingFaultFS

N_WRITES = 6


def small_config():
    return preset("combined", protected_bytes=4096,
                  scheme_kwargs={"delta_bits": 2}, keystream_mode="splitmix")


def durability():
    return DurabilityConfig(checkpoint_interval=4)


def run_workload(root: pathlib.Path, fs: FaultFS) -> dict[int, bytes]:
    """Drive the fixed workload; returns the writes acked pre-fault.

    The first injected :class:`StorageFault` ends the run (the service
    analogue: the refused write is not acknowledged and the campaign's
    ground truth keeps the previous value).
    """
    acked: dict[int, bytes] = {}
    try:
        stack = EngineStack(
            small_config(), derive_key(1, "t"),
            store=FileStore(root, fs=fs), durability=durability(),
        )
        for i in range(N_WRITES):
            address = (i % 4) * 64
            data = bytes([i + 1]) * 64
            stack.write(address, data)
            stack.flush()  # group commit: the ack point is the seal
            acked[address] = data
    except StorageFault:
        pass
    return acked


def clean_trace():
    """The step trace of one fault-free run (deterministic workload)."""
    with tempfile.TemporaryDirectory() as tmp:
        fs = RecordingFaultFS()
        run_workload(pathlib.Path(tmp), fs)
        return fs.trace


_TRACE = clean_trace()
_MATRIX = [
    (entry.step, kind)
    for entry in _TRACE
    for kind in (FaultKind.ENOSPC, FaultKind.SHORT_WRITE)
    if entry.can_inject(kind)
]


def test_matrix_covers_every_record_boundary():
    """Sanity: the sweep really spans the workload's durable surface."""
    ops = {entry.op for entry in _TRACE}
    assert {"write_bytes", "fsync", "touch"} <= ops
    # one journal record write per engine write, plus checkpoint files
    record_writes = [
        entry for entry in _TRACE
        if entry.op == "write_bytes" and "journal" in entry.path
    ]
    assert len(record_writes) >= N_WRITES
    assert len(_MATRIX) > N_WRITES


@pytest.mark.parametrize(
    "step,kind",
    _MATRIX,
    ids=[f"step{step}-{kind.value}" for step, kind in _MATRIX],
)
def test_recovery_after_fault(tmp_path, step, kind):
    fs = FaultFS(plan=FaultPlan.single(step, kind))
    acked = run_workload(tmp_path, fs)
    fs.crash()  # power loss at (or after) the fault

    # Recovery runs disarmed, exactly as Tenant.open does.
    recovered, report = EngineStack.recover(
        load_file_store(tmp_path, fs=FaultFS(armed=False)),
        small_config(), derive_key(1, "t"), durability=durability(),
    )
    assert report.root_verified
    for address, data in sorted(acked.items()):
        assert recovered.read(address).data == data, (
            f"acked write at {address} lost after {kind.value} "
            f"at step {step}"
        )


def test_store_stays_usable_after_refused_mutation(tmp_path):
    """Disk-first: a refused mutation leaves the in-memory model
    untouched, so the very next attempt (the service's retry) works."""
    record_step = next(
        entry.step for entry in _TRACE
        if entry.op == "write_bytes" and "journal" in entry.path
    )
    fs = FaultFS(plan=FaultPlan.single(record_step, FaultKind.ENOSPC))
    stack = EngineStack(
        small_config(), derive_key(1, "t"),
        store=FileStore(tmp_path, fs=fs), durability=durability(),
    )
    stack.write(0, b"A" * 64)
    with pytest.raises(StorageFault):
        stack.flush()  # the record write tears
    stack.write(0, b"B" * 64)
    stack.flush()  # the retry: plan already spent
    assert stack.read(0).data == b"B" * 64
    assert any(
        path.suffix == ".sealed"
        for path in (tmp_path / "journal").iterdir()
    )
