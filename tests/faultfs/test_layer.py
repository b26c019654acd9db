"""FaultFS: injection semantics, two-barrier tracking, simulated crash."""

import pytest

from repro.faultfs import (
    FaultFS,
    FaultKind,
    FaultPlan,
    FaultProfile,
    StorageFault,
)
from repro.obs.metrics import MetricRegistry
from tests.faultfs.recording import RecordingFaultFS


def armed(step, kind):
    return RecordingFaultFS(plan=FaultPlan.single(step, kind))


class TestInjection:
    def test_eio_applies_nothing(self, tmp_path):
        fs = armed(0, FaultKind.EIO)
        target = tmp_path / "f"
        with pytest.raises(StorageFault) as exc:
            fs.write_bytes(target, b"payload")
        assert exc.value.kind is FaultKind.EIO
        assert not target.exists()

    def test_enospc_leaves_half_prefix(self, tmp_path):
        fs = armed(0, FaultKind.ENOSPC)
        target = tmp_path / "f"
        with pytest.raises(StorageFault):
            fs.write_bytes(target, b"0123456789")
        assert target.read_bytes() == b"01234"

    def test_short_write_loses_only_the_tail_byte(self, tmp_path):
        fs = armed(0, FaultKind.SHORT_WRITE)
        target = tmp_path / "f"
        with pytest.raises(StorageFault):
            fs.write_bytes(target, b"0123456789")
        assert target.read_bytes() == b"012345678"

    def test_crash_rename_keeps_old_target(self, tmp_path):
        fs = FaultFS(plan=FaultPlan.single(2, FaultKind.CRASH_RENAME))
        old = tmp_path / "old"
        new = tmp_path / "new"
        fs.write_bytes(old, b"old-content")   # step 0
        fs.write_bytes(new, b"staged")        # step 1
        with pytest.raises(StorageFault):
            fs.replace(new, old)              # step 2: never lands
        assert old.read_bytes() == b"old-content"
        assert new.read_bytes() == b"staged"

    def test_inapplicable_kind_injects_nothing(self, tmp_path):
        # CRASH_RENAME armed on a write_bytes step: plans are built from
        # a trace that records each step's op, so this is a no-op.
        fs = armed(0, FaultKind.CRASH_RENAME)
        fs.write_bytes(tmp_path / "f", b"ok")
        assert (tmp_path / "f").read_bytes() == b"ok"
        assert fs.trace[0].injected is None

    def test_disarmed_layer_never_injects(self, tmp_path):
        fs = RecordingFaultFS(
            profile=FaultProfile(seed=1, rate=1.0), armed=False
        )
        for i in range(5):
            fs.write_bytes(tmp_path / f"f{i}", b"x")
        assert all(step.injected is None for step in fs.trace)

    def test_profile_stream_drives_injection(self, tmp_path):
        fs = FaultFS(
            profile=FaultProfile(seed=1, rate=1.0), stream="t"
        )
        with pytest.raises(StorageFault):
            fs.write_bytes(tmp_path / "f", b"x")


class TestBarriers:
    def test_unsynced_write_rolls_back_at_crash(self, tmp_path):
        fs = FaultFS()
        target = tmp_path / "f"
        fs.write_bytes(target, b"volatile")
        assert fs.crash() >= 1
        assert not target.exists()

    def test_two_barriers_make_a_create_durable(self, tmp_path):
        fs = FaultFS()
        target = tmp_path / "f"
        fs.write_bytes(target, b"durable")
        fs.fsync(target)
        fs.fsync_dir(tmp_path)
        assert fs.crash() == 0
        assert target.read_bytes() == b"durable"

    def test_content_fsync_alone_leaves_entry_volatile(self, tmp_path):
        # A created file needs its directory entry synced too: content
        # fsync without fsync_dir still loses the file at power loss.
        fs = FaultFS()
        target = tmp_path / "f"
        fs.write_bytes(target, b"content")
        fs.fsync(target)
        fs.crash()
        assert not target.exists()

    def test_overwrite_reverts_to_preimage(self, tmp_path):
        fs = FaultFS()
        target = tmp_path / "f"
        fs.write_bytes(target, b"first")
        fs.fsync(target)
        fs.fsync_dir(tmp_path)
        fs.write_bytes(target, b"second")
        fs.crash()
        assert target.read_bytes() == b"first"

    def test_unsynced_unlink_unhappens(self, tmp_path):
        fs = FaultFS()
        target = tmp_path / "f"
        fs.write_bytes(target, b"keep")
        fs.fsync(target)
        fs.fsync_dir(tmp_path)
        fs.unlink(target)
        fs.crash()
        assert target.read_bytes() == b"keep"

    def test_lost_before_fsync_vanishes_despite_barriers(self, tmp_path):
        fs = FaultFS(plan=FaultPlan.single(0, FaultKind.LOST_BEFORE_FSYNC))
        target = tmp_path / "f"
        fs.write_bytes(target, b"lying-firmware")  # appears to succeed
        assert target.read_bytes() == b"lying-firmware"
        fs.fsync(target)          # silently skipped for sticky victims
        fs.fsync_dir(tmp_path)
        fs.crash()
        assert not target.exists()


class TestObservability:
    def test_steps_and_injections_metered(self, tmp_path):
        registry = MetricRegistry()
        fs = FaultFS(
            plan=FaultPlan.single(1, FaultKind.EIO), registry=registry
        )
        fs.write_bytes(tmp_path / "a", b"x")
        with pytest.raises(StorageFault):
            fs.write_bytes(tmp_path / "b", b"y")
        fs.crash()
        totals = registry.snapshot().totals()
        assert totals["faultfs.steps"] == 2
        assert totals["faultfs.injected.eio"] == 1
        assert totals["faultfs.crashes"] == 1
        assert totals["faultfs.rolled_back"] >= 1

    def test_trace_records_every_step(self, tmp_path):
        fs = RecordingFaultFS()
        fs.write_bytes(tmp_path / "a", b"x")
        fs.fsync(tmp_path / "a")
        fs.touch(tmp_path / "b")
        assert [s.op for s in fs.trace] == [
            "write_bytes", "fsync", "touch"
        ]
        assert [s.step for s in fs.trace] == [0, 1, 2]
