"""State-equivalence tests: BatchSecureMemory vs the scalar engine.

The facade's contract is that after any operation sequence the
engine's externally observable state (ciphertexts, ECC fields / MAC
store, serialized counter metadata, tree root) and every ``engine.*`` /
``counters.*`` metric total are bit-identical to what the scalar
``engine.write`` / ``engine.read`` loop produces.  These tests replay
identical mixed workloads through both and compare everything,
including the overflow re-encryption and fault-correction fallbacks.
"""

from __future__ import annotations

import random
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.counters import CounterEvent, make_scheme
from repro.core.ecc_mac.detection import CheckOutcome
from repro.core.engine.config import EngineConfig, preset
from repro.core.engine.secure_memory import (
    IntegrityError,
    ReadResult,
    SecureMemory,
)
from repro.fast import BatchSecureMemory, KernelDivergence
from repro.fast.kernels import KernelPair, KernelTable
from repro.harness.parallel import state_digest
from repro.obs.metrics import MetricRegistry, use_registry
from repro.obs.probe import probes
from tests.fast.conftest import engine_state, run_ops

KEY = bytes(range(48))
REGION = 64 * 1024  # 1024 blocks, 16 groups

#: preset -> scheme overrides small enough to force overflow events
CONFIGS = [
    ("bmt_baseline", {}),
    ("mac_in_ecc", {}),
    ("delta_only", {"delta_bits": 3}),
    ("combined", {"delta_bits": 3}),
    ("combined_dual", {"base_delta_bits": 2, "extension_bits": 2}),
]


def _config(name, scheme_kwargs):
    config = preset(name, protected_bytes=REGION, keystream_mode="splitmix")
    if scheme_kwargs:
        merged = dict(config.scheme_kwargs)
        merged.update(scheme_kwargs)
        config = preset(
            name,
            protected_bytes=REGION,
            keystream_mode="splitmix",
            scheme_kwargs=merged,
        )
    return config


def _mixed_ops(seed, count, hot_blocks=24):
    """A hot-set heavy mix of writes and read-backs."""
    rng = random.Random(seed)
    region_blocks = REGION // 64
    written = []
    ops = []
    for sequence in range(count):
        if written and rng.random() < 0.4:
            ops.append(("read", rng.choice(written)))
            continue
        if rng.random() < 0.7:
            block = rng.randrange(hot_blocks)
        else:
            block = rng.randrange(region_blocks)
        data = bytes(
            (block * 131 + sequence * 17 + i) & 0xFF for i in range(64)
        )
        ops.append(("write", block, data))
        written.append(block)
    return ops


def _run_scalar(config, ops):
    registry = MetricRegistry()
    with use_registry(registry):
        engine = SecureMemory(config, KEY)
        reads = []
        for op in ops:
            if op[0] == "write":
                engine.write(op[1] * 64, op[2])
            else:
                reads.append(engine.read(op[1] * 64))
        state = engine_state(engine)
    return state, reads, registry.snapshot().totals()


def _run_batch(config, ops, mode, chunk=17):
    registry = MetricRegistry()
    with use_registry(registry):
        engine = SecureMemory(config, KEY)
        batch = BatchSecureMemory(engine, mode=mode)
        reads = []
        for start in range(0, len(ops), chunk):
            reads.extend(run_ops(batch, ops[start : start + chunk]))
        state = engine_state(engine)
    totals = registry.snapshot().totals()
    scoped = {
        name: value
        for name, value in totals.items()
        if name.startswith(("engine.", "counters."))
    }
    return state, reads, scoped, totals


@pytest.mark.parametrize("name,scheme_kwargs", CONFIGS)
def test_batch_state_equivalence_all_presets(name, scheme_kwargs):
    config = _config(name, scheme_kwargs)
    ops = _mixed_ops(
        seed=0xDAC2018 + (zlib.crc32(name.encode()) % 1000), count=500
    )
    scalar_state, scalar_reads, scalar_totals = _run_scalar(config, ops)
    batch_state, batch_reads, batch_scoped, _ = _run_batch(
        config, ops, mode="fast"
    )
    assert batch_state == scalar_state
    assert batch_reads == scalar_reads
    scalar_scoped = {
        name_: value
        for name_, value in scalar_totals.items()
        if name_.startswith(("engine.", "counters."))
    }
    assert batch_scoped == scalar_scoped


def _reencryptions(totals):
    """Group plus global re-encryptions the counter schemes reported."""
    return sum(
        value
        for metric, value in totals.items()
        if metric.startswith("counters.")
        and metric.endswith((".reencrypt", ".global_reencrypt"))
    )


def _spy_scalar_reencrypts(monkeypatch):
    """Record each call of the scalar engine's re-encryption handlers."""
    calls = []
    for name in ("_reencrypt_group", "_global_reencrypt"):
        handler = getattr(SecureMemory, name)

        def spy(self, *args, _handler=handler, _name=name, **kwargs):
            calls.append(_name)
            return _handler(self, *args, **kwargs)

        monkeypatch.setattr(SecureMemory, name, spy)
    return calls


#: tiny widths that force group and global re-encryptions mid-batch
REENCRYPT_CONFIGS = [
    ("combined", {"delta_bits": 2}),
    ("combined_dual", {"base_delta_bits": 2, "extension_bits": 2}),
    ("mac_in_ecc", {"counter_bits": 4}),
    ("endurance", {}),
]


@pytest.mark.parametrize("name,scheme_kwargs", REENCRYPT_CONFIGS)
def test_batch_equivalence_through_overflow_reencryptions(
    name, scheme_kwargs, monkeypatch
):
    """The batched re-encryptions must keep state bit-identical."""
    _check_batched_reencryptions(name, scheme_kwargs, "fast", monkeypatch)


@pytest.mark.parametrize("name,scheme_kwargs", REENCRYPT_CONFIGS)
def test_batch_paranoid_through_overflow_reencryptions(
    name, scheme_kwargs, monkeypatch
):
    """Every kernel call of the batched re-encryptions, checked against
    its scalar reference, with zero divergence."""
    _check_batched_reencryptions(
        name, scheme_kwargs, "paranoid", monkeypatch
    )


@pytest.mark.parametrize("name,scheme_kwargs", REENCRYPT_CONFIGS)
def test_reencrypt_probe_observes_every_batched_reencryption(
    name, scheme_kwargs
):
    """The batched group and global re-encryptions run inside the
    engine's ``engine.reencrypt`` probe, once each."""
    registry = MetricRegistry()
    with use_registry(registry), probes(True):
        engine = SecureMemory(_config(name, scheme_kwargs), KEY)
        batch = BatchSecureMemory(engine, mode="fast")
        ops = _mixed_ops(seed=7, count=700, hot_blocks=8)
        writes = [(op[1] * 64, op[2]) for op in ops if op[0] == "write"]
        for start in range(0, len(writes), 17):
            batch.write_many(writes[start : start + 17])
    totals = registry.snapshot().totals()
    assert totals.get("fast.fallback.scalar", 0) == 0
    assert _reencryptions(totals) > 0
    assert registry.histogram("probe.engine.reencrypt").count == (
        _reencryptions(totals)
    )


def _check_batched_reencryptions(name, scheme_kwargs, mode, monkeypatch):
    config = _config(name, scheme_kwargs)
    ops = _mixed_ops(seed=7, count=700, hot_blocks=8)
    scalar_state, scalar_reads, scalar_totals = _run_scalar(config, ops)
    scalar_calls = _spy_scalar_reencrypts(monkeypatch)
    batch_state, batch_reads, batch_scoped, batch_totals = _run_batch(
        config, ops, mode=mode
    )
    assert batch_state == scalar_state
    assert batch_reads == scalar_reads
    assert batch_scoped == {
        metric: value
        for metric, value in scalar_totals.items()
        if metric.startswith(("engine.", "counters."))
    }
    # The workload must actually have exercised an overflow path for
    # this test to mean anything, and every re-encryption of these clean
    # groups must have been batched.
    assert _reencryptions(scalar_totals) > 0
    assert _reencryptions(batch_totals) > 0
    assert scalar_calls == []
    if mode == "paranoid":
        assert batch_totals["fast.paranoid.checks"] == batch_totals[
            "fast.kernel.calls"
        ]
        assert batch_totals.get("fast.paranoid.divergence", 0) == 0


def test_batch_paranoid_mode_full_workload_zero_divergence():
    config = _config("combined", {"delta_bits": 3})
    ops = _mixed_ops(seed=3, count=400)
    scalar_state, scalar_reads, _ = _run_scalar(config, ops)
    batch_state, batch_reads, _, totals = _run_batch(
        config, ops, mode="paranoid"
    )
    assert batch_state == scalar_state
    assert batch_reads == scalar_reads
    assert totals.get("fast.paranoid.checks", 0) > 0
    assert totals.get("fast.paranoid.divergence", 0) == 0


def test_batch_fault_correction_falls_back_bit_identically():
    """A single-bit ciphertext fault must heal through the scalar
    correction path with identical metrics and healed state."""
    config = _config("combined", {"delta_bits": 4})

    def run(factory):
        registry = MetricRegistry()
        with use_registry(registry):
            engine = SecureMemory(config, KEY)
            io = factory(engine)
            payload = bytes(range(64))
            io["write"](0, payload)
            io["write"](64, payload[::-1])
            # Flip one stored ciphertext bit behind the engine's back.
            corrupted = bytearray(engine.ciphertexts[0])
            corrupted[5] ^= 0x10
            engine.ciphertexts[0] = bytes(corrupted)
            results = [io["read"](0), io["read"](64)]
            state = engine_state(engine)
        return results, state, registry.snapshot().totals()

    def scalar(engine):
        return {"write": engine.write, "read": engine.read}

    def batched(engine):
        batch = BatchSecureMemory(engine, mode="fast")
        return {
            "write": lambda a, d: batch.write_many([(a, d)]),
            "read": lambda a: batch.read_many([a])[0],
        }

    scalar_reads, scalar_state, scalar_totals = run(scalar)
    batch_reads, batch_state, batch_totals = run(batched)
    assert batch_reads == scalar_reads
    assert batch_state == scalar_state
    assert scalar_totals.get("engine.read.correction") == 1
    assert batch_totals.get("engine.read.correction") == 1


def test_paranoid_mode_raises_on_divergent_kernel():
    table = KernelTable(
        [
            KernelPair(
                name="broken",
                fast=lambda x: x + 1,
                reference=lambda x: x,
            )
        ],
        mode="paranoid",
    )
    with pytest.raises(KernelDivergence):
        table.run("broken", 41)


class TestDurableComposition:
    """The batched facade over a journaled engine: group commit."""

    def test_flush_seals_one_group_commit_txn(self):
        from repro.persist.config import DurabilityConfig

        config = _config("combined", {})
        registry = MetricRegistry()
        with use_registry(registry):
            engine = SecureMemory(
                config, KEY, durability=DurabilityConfig()
            )
            batch = BatchSecureMemory(engine)
            writes = [
                (block * 64, bytes((block + i) & 0xFF for i in range(64)))
                for block in range(5)
            ]
            batch.write_many(writes)
        totals = registry.snapshot().totals()
        assert totals.get("persist.group_commit.txns") == 1
        assert totals.get("persist.group_commit.writes") == 5

    def test_rejects_non_engine_with_actionable_message(self):
        from repro.core.engine.config import ConfigError
        from repro.resilience.runtime import ResilientMemory

        config = _config("combined", {})
        resilient = ResilientMemory(config, KEY, spare_blocks=2)
        with pytest.raises(ConfigError) as excinfo:
            BatchSecureMemory(resilient)
        # The error must name the composition that works.
        assert "EngineStack" in str(excinfo.value)

    def test_flush_inside_open_txn_is_a_config_error(self):
        from repro.core.engine.config import ConfigError
        from repro.persist.config import DurabilityConfig

        config = _config("combined", {})
        engine = SecureMemory(config, KEY, durability=DurabilityConfig())
        batch = BatchSecureMemory(engine)
        batch.queue_write(0, bytes(64))
        engine.persist.begin_txn()
        try:
            with pytest.raises(ConfigError):
                batch.flush()
        finally:
            engine.persist.abort_txn()


@pytest.mark.parametrize("name,scheme_kwargs", CONFIGS)
def test_batched_durable_equals_scalar_durable_through_recovery(
    name, scheme_kwargs
):
    """Satellite invariant: batched+durable must be bit-for-bit state
    equivalent to scalar+durable -- after every flush, after a crash,
    and after recovery -- for every preset."""
    from repro.obs.metrics import MetricRegistry as Registry
    from repro.persist.config import DurabilityConfig
    from repro.persist.store import DurableStore
    from repro.stack import EngineStack

    config = _config(name, scheme_kwargs)
    durability = DurabilityConfig(checkpoint_interval=8)
    ops = _mixed_ops(
        seed=0xD0C + (zlib.crc32(name.encode()) % 1000), count=200
    )

    def run(fast):
        store = DurableStore()
        stack = EngineStack(
            config, KEY, fast=fast, durability=durability, store=store,
            registry=Registry(),
        )
        reads = []
        for op in ops:
            if op[0] == "write":
                stack.write(op[1] * 64, op[2])
            else:
                result = stack.read(op[1] * 64)
                reads.append((result.data, result.outcome))
        stack.flush()
        return engine_state(stack.engine), reads, store

    scalar_state, scalar_reads, scalar_store = run(fast=False)
    batch_state, batch_reads, batch_store = run(fast=True)
    assert batch_state == scalar_state
    assert batch_reads == scalar_reads
    # Crash both (abandon the stacks); recovery must rebuild the same
    # state from either store, group-commit frames included.
    for fast, store in ((False, scalar_store), (True, batch_store)):
        stack, report = EngineStack.recover(
            store, config, KEY, fast=fast, durability=durability,
            registry=Registry(),
        )
        assert report.root_verified
        assert engine_state(stack.engine) == scalar_state


# -- lazy counter serialization --------------------------------------------

#: every scheme at widths small enough that overflow is routine
TINY_SCHEMES = [
    ("delta", {"delta_bits": 2}),
    ("delta", {"delta_bits": 2, "enable_reencode": False}),
    ("dual_length", {"base_delta_bits": 2, "extension_bits": 2}),
    ("split", {"minor_bits": 2}),
    ("monolithic", {"counter_bits": 3}),
]

#: events a write that cannot reach the overflow path never reports
_OVERFLOW_EVENTS = {
    CounterEvent.WIDEN,
    CounterEvent.RE_ENCODE,
    CounterEvent.RE_ENCRYPT,
    CounterEvent.GLOBAL_RE_ENCRYPT,
}


@pytest.mark.parametrize("name,kwargs", TINY_SCHEMES)
@settings(max_examples=40, deadline=None)
@given(writes=st.lists(st.integers(0, 127), min_size=1, max_size=200))
def test_may_overflow_precedes_every_reencryption(name, kwargs, writes):
    """``may_overflow`` is True before every write that re-encrypts a
    group or everything, and False only before plain increments -- the
    batch write path relies on it to serialize lagging groups in time."""
    scheme = make_scheme(name, 128, **kwargs)
    for block in writes:
        warned = scheme.may_overflow(block)
        outcome = scheme.on_write(block)
        reencrypts = (
            outcome.reencrypted_group is not None
            or outcome.has(CounterEvent.GLOBAL_RE_ENCRYPT)
        )
        if reencrypts:
            assert warned
        if not warned:
            assert not _OVERFLOW_EVENTS & set(outcome.events)


def _scheme_state(scheme):
    """Everything ``on_writes`` must leave as the on_write loop does: the
    serialized groups and every statistic."""
    return (
        [scheme.group_metadata(g) for g in range(scheme.num_groups)],
        scheme.stats.as_dict(),
        dict(scheme.stats.per_group_re_encryptions),
    )


@pytest.mark.parametrize("group_blocks", [8, 64])
@pytest.mark.parametrize("name,kwargs", TINY_SCHEMES)
@settings(max_examples=40, deadline=None)
@given(
    draws=st.lists(
        st.tuples(
            st.booleans(), st.one_of(st.integers(0, 7), st.integers(0, 127))
        ),
        min_size=1,
        max_size=60,
    )
)
def test_on_writes_equals_the_guarded_on_write_loop(
    name, kwargs, group_blocks, draws
):
    """Walked as plain segments split at single may-overflow writes,
    ``on_writes`` returns the counters, stops at the index and leaves
    the group metadata and statistics of a ``may_overflow``-guarded
    ``on_write`` loop.  A draw is one block or a sweep of its whole
    group; sweeps make the deltas converge, so resets fire mid-run."""
    writes = []
    for sweep, block in draws:
        if sweep:
            first = block - block % group_blocks
            writes.extend(range(first, first + group_blocks))
        else:
            writes.append(block)
    with use_registry(MetricRegistry()):
        bulk = make_scheme(
            name, 128, blocks_per_group=group_blocks, **kwargs
        )
        loop = make_scheme(
            name, 128, blocks_per_group=group_blocks, **kwargs
        )
    index = 0
    while index < len(writes):
        counters = bulk.on_writes(writes, index)
        expected = []
        stop = index
        while stop < len(writes) and not loop.may_overflow(writes[stop]):
            expected.append(loop.on_write(writes[stop]).counter)
            stop += 1
        assert counters == expected
        assert index + len(counters) == stop
        assert _scheme_state(bulk) == _scheme_state(loop)
        if stop == len(writes):
            break
        assert bulk.on_write(writes[stop]) == loop.on_write(writes[stop])
        index = stop + 1
    assert _scheme_state(bulk) == _scheme_state(loop)


def _segmented_run():
    """A 256-write run of repeated blocks whose write 128 may overflow.

    The prologue takes block 5 to the brink of its 3-bit delta; the run
    sweeps group 1 (blocks 64..127) four times -- each full sweep makes
    its deltas converge, so a reset fires mid-segment -- around one more
    write of block 5, which re-encrypts group 0 mid-run.
    """
    prologue = [5] * 7
    hot = [64 + (i % 64) for i in range(255)]
    run = hot[:128] + [5] + hot[128:]
    return prologue, run


@pytest.mark.parametrize("durable", [False, True], ids=["plain", "durable"])
def test_segmented_run_with_a_mid_run_overflow_matches_scalar(durable):
    """One run split by ``on_writes`` into two plain segments around a
    single may-overflow write: the batch leaves the scalar engine's
    state, reads and metrics, and, with persistence attached, one
    group-commit transaction that recovers to the same state."""
    from repro.persist.config import DurabilityConfig
    from repro.persist.store import DurableStore
    from repro.stack import EngineStack

    config = _config("combined", {"delta_bits": 3})
    prologue, run = _segmented_run()
    with use_registry(MetricRegistry()):
        scheme = config.build_scheme()
    scheme.replay(prologue)
    may_overflow = []
    for index, block in enumerate(run):
        if scheme.may_overflow(block):
            may_overflow.append(index)
        scheme.on_write(block)
    assert may_overflow == [128]
    assert len(set(run)) < len(run)
    durability = DurabilityConfig() if durable else None

    def payloads(blocks, base):
        return [
            (block * 64, bytes((block + base + i + 3 * n) & 0xFF
                               for i in range(64)))
            for n, block in enumerate(blocks)
        ]

    def drive(fast):
        registry = MetricRegistry()
        store = DurableStore() if durable else None
        stack = EngineStack(
            config, KEY, fast=fast, durability=durability, store=store,
            registry=registry,
        )
        stack.write_many(payloads(prologue, 0))
        stack.write_many(payloads(run, 1))
        reads = [
            (result.data, result.outcome)
            for result in map(
                stack.read, [block * 64 for block in (5, 6, 64, 65, 127)]
            )
        ]
        return engine_state(stack.engine), reads, registry, store

    scalar_state, scalar_reads, scalar_registry, scalar_store = drive(False)
    batch_state, batch_reads, batch_registry, batch_store = drive(True)
    assert batch_state == scalar_state
    assert batch_reads == scalar_reads
    scalar_totals = scalar_registry.snapshot().totals()
    batch_totals = batch_registry.snapshot().totals()
    for metric, value in scalar_totals.items():
        if metric.startswith(("engine.", "counters.")):
            assert batch_totals.get(metric) == value, metric
    assert _reencryptions(batch_totals) == 1
    assert batch_totals["counters.delta.reset"] == 3
    assert batch_totals.get("fast.fallback.scalar", 0) == 0
    if durable:
        assert batch_totals["persist.group_commit.txns"] == 2
        assert batch_totals["persist.group_commit.writes"] == 7 + 256
        for fast, store in ((False, scalar_store), (True, batch_store)):
            stack, report = EngineStack.recover(
                store, config, KEY, fast=fast, durability=durability,
                registry=MetricRegistry(),
            )
            assert report.root_verified
            assert engine_state(stack.engine) == scalar_state


def _primed_batch():
    """A batch over an engine that already holds two written blocks."""
    engine = SecureMemory(_config("combined", {}), KEY,
                          registry=MetricRegistry())
    batch = BatchSecureMemory(engine)
    batch.write_many([(0, bytes([1]) * 64), (64, bytes([2]) * 64)])
    return batch


@pytest.mark.parametrize(
    "bad",
    [3 * 64 + 1, REGION, -64],
    ids=["misaligned", "past-the-region", "negative"],
)
@pytest.mark.parametrize("call", ["write_many", "read_many"])
def test_call_validation_raises_like_the_per_address_loop(call, bad):
    """``write_many``/``read_many`` test a call's addresses at once; a
    bad one raises the per-address check's ValueError, with its
    message, and the call queues, stores and reads nothing."""
    addresses = [0, 64, bad, 128]
    reference = _primed_batch()
    with pytest.raises(ValueError) as expected:
        for address in addresses:
            if call == "write_many":
                reference.queue_write(address, bytes(64))
            else:
                reference.engine._block_index(address)
    batch = _primed_batch()
    before = engine_state(batch.engine)
    with pytest.raises(ValueError) as raised:
        if call == "write_many":
            batch.write_many([(address, bytes(64)) for address in addresses])
        else:
            batch.read_many(addresses)
    assert str(raised.value) == str(expected.value)
    assert batch._queue == []
    assert engine_state(batch.engine) == before


def test_write_many_rejects_a_short_block_like_queue_write():
    batch = _primed_batch()
    before = engine_state(batch.engine)
    with pytest.raises(ValueError, match="data must be 64 bytes"):
        batch.write_many([(0, bytes(64)), (64, bytes(63)), (128, bytes(64))])
    assert batch._queue == []
    assert engine_state(batch.engine) == before


def test_write_many_rejects_str_data_before_any_counter_moves():
    """Data of the right length that ``bytes()`` refuses fails the call
    like ``queue_write`` does, before any counter advances: a later
    write of block 0 leaves what the scalar engine leaves."""
    batch, scalar = _primed_batch(), _primed_batch()
    with pytest.raises(TypeError) as expected:
        scalar.queue_write(0, "x" * 64)
    with pytest.raises(TypeError) as raised:
        batch.write_many([(0, "x" * 64)])
    assert str(raised.value) == str(expected.value)
    batch.write_many([(0, bytes([5]) * 64)])
    scalar.engine.write(0, bytes([5]) * 64)
    assert engine_state(batch.engine) == engine_state(scalar.engine)


@pytest.mark.parametrize("call", ["write_many", "read_many"])
def test_rejected_call_keeps_deferred_writes_deferred(call):
    """A call that fails validation does not flush what ``queue_write``
    deferred: the queue and the engine are as they were."""
    batch = _primed_batch()
    batch.queue_write(128, bytes([4]) * 64)
    queued, before = list(batch._queue), engine_state(batch.engine)
    with pytest.raises(ValueError, match="aligned"):
        if call == "write_many":
            batch.write_many([(192, bytes(64)), (3, bytes(64))])
        else:
            batch.read_many([0, 3])
    assert batch._queue == queued
    assert engine_state(batch.engine) == before


def test_rejected_read_leaves_no_read_for_the_next_call():
    """A ``read_many`` that fails validation reads nothing, not even its
    valid prefix: the next ``write_many`` must not run a read of the
    corrupted block 0 first, and raise its IntegrityError."""
    batch = _primed_batch()
    batch.engine.flip_data_bits(0, range(5))
    with pytest.raises(ValueError, match="aligned"):
        batch.read_many([0, 3])
    batch.write_many([(64, bytes([3]) * 64)])
    assert batch._queue == []
    assert batch.read_many([64])[0].data == bytes([3]) * 64
    with pytest.raises(IntegrityError) as excinfo:
        batch.read_many([0])
    assert (excinfo.value.kind, excinfo.value.address) == ("mac", 0)


#: configs whose overflow handlers re-encrypt a group, or everything,
#: mid-run: delta, dual-length (the endurance preset), split, and a
#: monolithic counter wrap
OVERFLOW_CONFIGS = [
    ("combined", {"delta_bits": 2}),
    ("endurance", {}),
    ("split", {"minor_bits": 2}),
    ("mac_in_ecc", {"counter_bits": 3}),
]


def _overflow_config(name, scheme_kwargs):
    if name == "split":
        return EngineConfig(
            counter_scheme="split",
            mac_in_ecc=True,
            protected_bytes=REGION,
            keystream_mode="splitmix",
            scheme_kwargs=scheme_kwargs,
        )
    return _config(name, scheme_kwargs)


def _lagging_group_run():
    """Writes where groups dirtied earlier in the same run overflow.

    Blocks 1 and 2 (group 0) and 64 (group 1) are written first, so
    their groups' storage lags when block 0 -- hammered until its
    counter overflows, repeatedly -- forces a re-encryption that must
    decode blocks 1 and 2's old counters (and, for a global wrap, block
    64's) from storage.
    """
    writes = [1, 64, 2, 1, 65]
    writes += [0] * 40 + [64] * 9 + [0, 2] * 6
    return [
        (block * 64, bytes((block * 7 + sequence + i) & 0xFF
                           for i in range(64)))
        for sequence, block in enumerate(writes)
    ]


@pytest.mark.parametrize("name,scheme_kwargs", OVERFLOW_CONFIGS)
def test_overflow_of_group_dirtied_earlier_in_the_same_run(
    name, scheme_kwargs, monkeypatch
):
    config = _overflow_config(name, scheme_kwargs)
    prologue = [(block * 64, bytes([block]) * 64) for block in (1, 3, 66)]
    run = _lagging_group_run()

    def scalar():
        registry = MetricRegistry()
        with use_registry(registry):
            engine = SecureMemory(config, KEY)
            for address, data in prologue + run:
                engine.write(address, data)
            reads = [engine.read(address).data for address, _ in run]
            return engine_state(engine), reads, registry.snapshot().totals()

    def batched():
        registry = MetricRegistry()
        with use_registry(registry):
            engine = SecureMemory(config, KEY)
            batch = BatchSecureMemory(engine, mode="fast")
            batch.write_many(prologue)
            batch.write_many(run)  # one write run, one commit
            reads = [r.data for r in batch.read_many([a for a, _ in run])]
            return engine_state(engine), reads, registry.snapshot().totals()

    scalar_state, scalar_reads, scalar_totals = scalar()
    scalar_calls = _spy_scalar_reencrypts(monkeypatch)
    batch_state, batch_reads, batch_totals = batched()
    assert batch_state == scalar_state
    assert batch_reads == scalar_reads
    assert batch_reads[-1] == run[-1][1]
    assert _reencryptions(scalar_totals) >= 2
    assert _reencryptions(batch_totals) >= 2  # re-encryptions ran
    assert scalar_calls == []  # ... all of them batched


def test_wrap_with_no_other_stored_block_matches_scalar():
    """Monolithic wraps while the wrapping block is the only one stored:
    each batched global re-encryption decodes no group at all."""
    config = _config("mac_in_ecc", {"counter_bits": 1})
    writes = [(0, bytes([n]) * 64) for n in range(9)]

    def run(batched):
        registry = MetricRegistry()
        with use_registry(registry):
            engine = SecureMemory(config, KEY)
            if batched:
                BatchSecureMemory(engine, mode="paranoid").write_many(writes)
            else:
                for address, data in writes:
                    engine.write(address, data)
        return engine_state(engine), engine.scheme.epoch

    assert run(batched=True) == run(batched=False)
    assert run(batched=True)[1] == 4


# -- non-clean re-encryptions go to the scalar handlers --------------------


def _first_reencryption(config, blocks):
    """Index of the first write in ``blocks`` that re-encrypts."""
    with use_registry(MetricRegistry()):
        scheme = config.build_scheme()
    for index, block in enumerate(blocks):
        outcome = scheme.on_write(block)
        if outcome.reencrypted_group is not None or outcome.has(
            CounterEvent.GLOBAL_RE_ENCRYPT
        ):
            return index
    raise AssertionError("the writes never re-encrypt")


def _payloads(blocks, start):
    return [
        (block * 64, bytes((block * 29 + sequence * 7 + i) & 0xFF
                           for i in range(64)))
        for sequence, block in enumerate(blocks, start)
    ]


def _flip(*positions):
    """Flip stored ciphertext bits of block 1, in group 0."""
    return lambda engine: engine.flip_data_bits(64, positions)


def _corrupt_group_counters(engine):
    stored = bytearray(engine._stored_metadata(0))
    stored[0] ^= 1
    engine.corrupt_counter_storage(0, bytes(stored))


#: id -> (preset, scheme overrides, tamper applied before the run,
#: blocks the run writes before the overflowing one, expected calls of
#: the scalar handlers)
ROUTING_CASES = {
    "correctable-flip": ("endurance", {}, _flip(5), [], 1),
    "flipped-check-bit": (
        "endurance", {}, lambda engine: engine.flip_ecc_bits(64, [58]), [], 1
    ),
    "uncorrectable-tamper": ("endurance", {}, _flip(*range(0, 64, 4)), [], 1),
    "tampered-counters": ("endurance", {}, _corrupt_group_counters, [], 1),
    "never-written-blocks": ("endurance", {}, None, [], 0),
    "separate-mac": ("delta_only", {"delta_bits": 2}, _flip(5), [], 1),
    "monolithic-wrap": ("mac_in_ecc", {"counter_bits": 4}, None,
                        [65, 130], 0),
    "monolithic-wrap-flip": ("mac_in_ecc", {"counter_bits": 4}, _flip(5),
                             [65, 130], 1),
}


@pytest.mark.parametrize("mode", ["fast", "paranoid"])
@pytest.mark.parametrize("case", list(ROUTING_CASES))
def test_non_clean_reencryption_goes_to_the_scalar_handler(
    case, mode, monkeypatch
):
    """A re-encryption that meets a block the read path would not take
    as clean (a flipped bit, a tamper, wrong stored counters) runs the
    scalar handler once, so its corrections, raises and metrics are the
    scalar engine's; clean groups (never-written blocks included, and a
    monolithic wrap while other groups lag) stay batched."""
    name, scheme_kwargs, tamper, lead, expected_calls = ROUTING_CASES[case]
    config = _config(name, scheme_kwargs)
    hammer = [1, 2, 3, 64] + [0] * 200
    brink = _first_reencryption(config, hammer)
    # The run opens at the overflowing write (after ``lead``'s writes
    # to other groups), so a raise leaves both engines comparable.
    prologue = _payloads(hammer[:brink], 0)
    run = _payloads(lead + hammer[brink : brink + 60] + [1, 2, 64], brink)
    addresses = sorted({address for address, _ in prologue + run})

    def drive(batched):
        registry = MetricRegistry()
        with use_registry(registry), probes(True):
            engine = SecureMemory(config, KEY)
            batch = BatchSecureMemory(engine, mode=mode)

            def write(writes):
                if batched:
                    batch.write_many(writes)
                else:
                    for address, data in writes:
                        engine.write(address, data)

            write(prologue)
            if tamper is not None:
                tamper(engine)
            lazy = 64 - sum(block in engine.ciphertexts for block in range(64))
            try:
                write(run)
                if batched:
                    results = batch.read_many(addresses)
                else:
                    results = [engine.read(address) for address in addresses]
                outcome = [(r.data, r.outcome) for r in results]
            except IntegrityError as error:
                outcome = (error.kind, error.address)
            state = engine_state(engine)
        probed = registry.histogram("probe.engine.reencrypt").count
        return outcome, state, registry.snapshot().totals(), lazy, probed

    scalar_outcome, scalar_state, scalar_totals, _, _ = drive(batched=False)
    calls = _spy_scalar_reencrypts(monkeypatch)
    batch_outcome, batch_state, batch_totals, lazy, probed = drive(
        batched=True
    )
    # One probe observation per re-encryption, scalar fallbacks included.
    assert probed == _reencryptions(batch_totals)
    assert batch_outcome == scalar_outcome
    assert batch_state == scalar_state
    for metric, value in scalar_totals.items():
        if metric.startswith(("engine.", "counters.")):
            assert batch_totals.get(metric) == value, metric
    assert len(calls) == expected_calls
    assert batch_totals.get("fast.fallback.scalar", 0) == expected_calls
    assert _reencryptions(batch_totals) > 0
    assert lazy > 0  # group 0 holds never-written blocks when it overflows
    assert batch_totals.get("fast.paranoid.divergence", 0) == 0
    if mode == "paranoid":
        assert batch_totals["fast.paranoid.checks"] == batch_totals[
            "fast.kernel.calls"
        ]
    if case == "correctable-flip":
        assert batch_totals["engine.read.correction"] == 1
    if case in ("uncorrectable-tamper", "tampered-counters", "separate-mac"):
        assert batch_outcome == ("mac", 64)


# -- one counter encode per dirty group ------------------------------------


def _counting_encodes(batch):
    """Wrap the batch's ``counters.encode`` kernel; returns the groups
    each call encoded, one list per call."""
    calls = []
    pair = batch.kernels.pairs["counters.encode"]

    def fast(groups):
        calls.append(list(groups))
        return pair.fast(groups)

    batch.kernels.pairs["counters.encode"] = KernelPair(
        name=pair.name, fast=fast, reference=pair.reference
    )
    return calls


@pytest.mark.parametrize("name", ["combined", "combined_dual", "endurance"])
def test_one_counter_encode_per_dirty_group(name):
    """A sequential run that never reaches the overflow path encodes
    each dirty group exactly once per write run (counted in encoded
    rows: a run's groups go through one multi-group encode)."""
    config = _config(name, {})
    engine = SecureMemory(config, KEY, registry=MetricRegistry())
    batch = BatchSecureMemory(engine, mode="fast")
    calls = _counting_encodes(batch)
    # Runs of 100 straddle group boundaries; every block is written
    # once, so no counter comes near its overflow width.
    expected = 0
    for start in range(0, 1000, 100):
        before = len(calls)
        blocks = range(start, start + 100)
        batch.write_many([(block * 64, bytes(64)) for block in blocks])
        groups = {engine.scheme.group_of(block) for block in blocks}
        expected += len(groups)
        assert len(calls) == before + 1
        assert sorted(calls[-1]) == sorted(groups)
    assert sum(len(rows) for rows in calls) == expected


#: 4 MiB of combined-preset groups: tree levels (1024, 128, 16), so one
#: off-chip interior level is hashed on every commit
DEEP_REGION = 4 * 1024 * 1024


def _deep_config():
    return preset(
        "combined", protected_bytes=DEEP_REGION, keystream_mode="splitmix"
    )


def test_shared_tree_ancestors_hashed_once_per_flush():
    """A flush whose dirty groups share parents hashes each touched
    node once per level: the leaves, then each distinct interior
    ancestor below the on-chip top."""
    engine = SecureMemory(_deep_config(), KEY, registry=MetricRegistry())
    assert engine.tree.geometry.level_sizes == (1024, 128, 16)
    batch = BatchSecureMemory(engine, mode="fast")
    hashed: list[tuple[int, list[int]]] = []
    pair = batch.kernels.pairs["tree.hash"]

    def fast(datas, level, indices):
        hashed.append((level, list(indices)))
        return pair.fast(datas, level, indices)

    batch.kernels.pairs["tree.hash"] = KernelPair(
        name=pair.name, fast=fast, reference=pair.reference
    )
    groups = [0, 1, 7, 8, 9, 63, 64, 700, 701]  # parents 0, 1, 7, 8, 87
    blocks_per_group = engine.scheme.blocks_per_group
    batch.write_many(
        [(g * blocks_per_group * 64, bytes([g % 256]) * 64) for g in groups]
    )
    assert hashed == [(0, groups), (1, [0, 1, 7, 8, 87])]
    hashed.clear()
    batch.read_many([g * blocks_per_group * 64 for g in groups])
    assert hashed == [(0, groups), (1, [0, 1, 7, 8, 87])]


def test_batch_state_equivalence_with_offchip_tree_levels():
    """Reads and writes spread over a region whose tree has off-chip
    interior nodes: the batched walks leave the scalar engine's state,
    reads and metrics."""
    config = _deep_config()
    rng = random.Random(0x7EE)
    blocks = DEEP_REGION // 64
    written: list[int] = []
    ops = []
    for sequence in range(600):
        if written and rng.random() < 0.4:
            ops.append(("read", rng.choice(written)))
            continue
        block = rng.randrange(blocks)
        ops.append(("write", block, bytes([sequence % 256]) * 64))
        written.append(block)
    scalar_state, scalar_reads, scalar_totals = _run_scalar(config, ops)
    batch_state, batch_reads, batch_scoped, _ = _run_batch(
        config, ops, mode="paranoid", chunk=64
    )
    assert batch_state == scalar_state
    assert batch_reads == scalar_reads
    assert batch_scoped == {
        name: value
        for name, value in scalar_totals.items()
        if name.startswith(("engine.", "counters."))
    }


@pytest.mark.parametrize(
    "flips",
    [(3,), (58,), (63,), (3, 60), (59, 62)],
    ids=["mac-bit", "check-bit", "parity-bit", "mac+check", "two-check"],
)
def test_ecc_lane_read_faults_fall_back_bit_identically(flips):
    """Flips in the stored ECC field: the batch's lane-based clean test
    sends exactly the non-clean blocks to the scalar read, so heals,
    outcomes and raised errors match the scalar engine's."""
    config = _config("combined", {})
    writes = [(block * 64, bytes([block]) * 64) for block in range(6)]

    def run(batched):
        registry = MetricRegistry()
        with use_registry(registry):
            engine = SecureMemory(config, KEY)
            batch = BatchSecureMemory(engine, mode="fast")
            for address, data in writes:
                engine.write(address, data)
            engine.flip_ecc_bits(2 * 64, flips)
            addresses = [address for address, _ in writes]
            try:
                if batched:
                    results = batch.read_many(addresses)
                else:
                    results = [engine.read(address) for address in addresses]
                outcome = results
            except IntegrityError as error:  # the raise itself must match
                outcome = (type(error).__name__, str(error))
            return outcome, engine_state(engine), registry.snapshot().totals()

    scalar_outcome, scalar_state, scalar_totals = run(batched=False)
    batch_outcome, batch_state, batch_totals = run(batched=True)
    assert batch_outcome == scalar_outcome
    assert batch_state == scalar_state
    for name, value in scalar_totals.items():
        if name.startswith("engine."):
            assert batch_totals.get(name) == value, name


# -- per-run read classification --------------------------------------------


def test_clean_many_equals_the_dataclass_constructor():
    datas = [bytes([n]) * 64 for n in range(3)]
    built = ReadResult.clean_many(datas)
    expected = [ReadResult(data, CheckOutcome.CLEAN) for data in datas]
    assert built == expected
    assert [hash(r) for r in built] == [hash(r) for r in expected]
    assert [repr(r) for r in built] == [repr(r) for r in expected]
    assert all(r.clean for r in built)
    assert ReadResult.clean_many([]) == []


#: id -> (preset, scheme overrides, hammered writes of block 0 before the
#: run's blocks are written).  ``wrapped`` is a 1-bit monolithic counter
#: taken through 128 epoch wraps, so its nonces carry an 8-bit epoch.
READ_RUN_CONFIGS = {
    "bmt_baseline": ("bmt_baseline", {}, 0),
    "combined": ("combined", {}, 0),
    "wrapped": ("mac_in_ecc", {"counter_bits": 1}, 256),
}

#: the run's blocks: slots 0..5 of groups 0..3 are written, 6 and 7 not
_READ_SLOTS = 8
_WRITTEN_SLOTS = 6


def _read_block(group, slot):
    return group * 64 + slot


@st.composite
def _read_runs(draw):
    """A read run over four groups with anomalies to install first."""
    pool = st.tuples(st.integers(0, 3), st.integers(0, _READ_SLOTS - 1))
    written = st.tuples(st.integers(0, 3), st.integers(0, _WRITTEN_SLOTS - 1))
    return {
        "run": draw(st.lists(pool, min_size=1, max_size=48)),
        "data_flips": draw(
            st.lists(
                st.tuples(written, st.sets(st.integers(0, 511), min_size=1,
                                           max_size=2)),
                max_size=2,
            )
        ),
        "ecc_flips": draw(
            st.lists(
                st.tuples(written, st.sets(st.integers(0, 63), min_size=1,
                                           max_size=2)),
                max_size=2,
            )
        ),
        "missing_mac": draw(st.none() | written),
        "tampered_group": draw(st.none() | st.integers(0, 3)),
        "perturb": draw(st.none() | written),
    }


def _install_anomalies(engine, case):
    """Apply ``case``'s faults and tampers; returns the blocks whose
    stored state the read path cannot take as clean (None: all)."""
    #: block -> the bits left flipped (a bit flipped twice is restored)
    data_bits: dict[int, set[int]] = {}
    ecc_bits: dict[int, set[int]] = {}
    for (group, slot), positions in case["data_flips"]:
        block = _read_block(group, slot)
        engine.flip_data_bits(block * 64, positions)
        data_bits[block] = data_bits.get(block, set()) ^ positions
    if engine.config.mac_in_ecc:
        for (group, slot), positions in case["ecc_flips"]:
            block = _read_block(group, slot)
            engine.flip_ecc_bits(block * 64, positions)
            ecc_bits[block] = ecc_bits.get(block, set()) ^ positions
    # The ciphertext parity bit (63) is not part of the read check.
    suspect = {block for block, bits in data_bits.items() if bits}
    suspect |= {block for block, bits in ecc_bits.items() if bits - {63}}
    if case["missing_mac"] is not None:
        block = _read_block(*case["missing_mac"])
        del engine.lanes[block]
        suspect.add(block)
    if case["tampered_group"] is not None:
        group = case["tampered_group"]
        stored = bytearray(engine._stored_metadata(group))
        stored[-1] ^= 0x80
        engine.corrupt_counter_storage(group, bytes(stored))
    if case["perturb"] is not None:
        target = _read_block(*case["perturb"]) * 64

        def perturb(address, ciphertext, ecc):
            if address == target:
                ciphertext = bytes([ciphertext[0] ^ 4]) + ciphertext[1:]
            return ciphertext, ecc

        engine.read_perturb = perturb
        return None
    return suspect


@pytest.mark.parametrize("case_id", list(READ_RUN_CONFIGS))
@settings(max_examples=30, deadline=None)
@given(case=_read_runs())
def test_read_run_matches_the_scalar_read_loop(case_id, case):
    """One ``read_many`` call over clean blocks mixed with every anomaly
    -- lazy initialization, corrections, ECC-field flips, a missing MAC,
    a tree failure mid-run, a perturb hook -- returns the scalar loop's
    results or raise, leaves its state and metrics, and falls back to
    the scalar read exactly for the reads whose stored state is not
    clean when the run starts."""
    name, scheme_kwargs, hammer = READ_RUN_CONFIGS[case_id]
    config = _config(name, scheme_kwargs)
    addresses = [_read_block(*pair) * 64 for pair in case["run"]]
    written = [
        _read_block(group, slot)
        for group in range(4)
        for slot in range(_WRITTEN_SLOTS)
    ]

    def drive(batched):
        registry = MetricRegistry()
        with use_registry(registry):
            engine = SecureMemory(config, KEY)
            for _ in range(hammer):
                engine.write(0, bytes(64))
            for block in written:
                engine.write(block * 64, bytes([block % 256]) * 64)
            if hammer:
                assert engine.scheme.epoch >= 128
            suspect = _install_anomalies(engine, case)
            batch = BatchSecureMemory(engine, mode="fast")
            results = []
            try:
                if batched:
                    results = batch.read_many(addresses)
                else:
                    for address in addresses:
                        results.append(engine.read(address))
                outcome = results
            except IntegrityError as error:
                outcome = (type(error).__name__, str(error),
                           getattr(error, "kind", None))
            state = engine_state(engine)
        # ``results`` of the scalar loop: the reads before a raise
        return outcome, state, registry.snapshot().totals(), suspect, results

    scalar_outcome, scalar_state, scalar_totals, suspect, done = drive(False)
    batch_outcome, batch_state, batch_totals, _, _ = drive(True)
    assert batch_outcome == scalar_outcome
    assert batch_state == scalar_state
    scoped = ("engine.", "counters.")
    assert {
        metric: value
        for metric, value in batch_totals.items()
        if metric.startswith(scoped)
    } == {
        metric: value
        for metric, value in scalar_totals.items()
        if metric.startswith(scoped)
    }
    # The reads the scalar loop performed, up to and including a MAC
    # raise (a tree failure raises before any read).
    performed = addresses
    if isinstance(scalar_outcome, tuple):
        performed = addresses[: len(done) + (scalar_outcome[2] != "tree")]
    untouched = {_read_block(g, s) for g in range(4)
                 for s in range(_WRITTEN_SLOTS, _READ_SLOTS)}
    fallbacks = sum(
        suspect is None or address // 64 in suspect | untouched
        for address in performed
    )
    assert batch_totals.get("fast.fallback.scalar", 0) == fallbacks


def test_missing_ecc_field_raises_integrity_error_on_both_paths():
    """A MAC-in-ECC block whose ECC field is gone reads as uncorrectable
    MAC bits -- the same ``IntegrityError`` from the scalar read and from
    ``read_many`` -- not an ``AttributeError`` from the detection flow."""

    def read(batched):
        engine = SecureMemory(_config("mac_in_ecc", {}), KEY)
        engine.write(64, bytes(range(64)))
        del engine.lanes[1]
        with pytest.raises(IntegrityError) as info:
            if batched:
                BatchSecureMemory(engine).read_many([64])
            else:
                engine.read(64)
        error = info.value
        return type(error), str(error), error.kind, error.outcome

    scalar = read(False)
    assert scalar == read(True)
    assert scalar[2:] == ("mac_bits", CheckOutcome.MAC_UNCORRECTABLE)


# -- a write run that raises partway ---------------------------------------

#: preset -> widths small enough that hammering one block re-encrypts
#: its group (or, monolithic, wraps and re-encrypts every stored block)
RAISING_RUN_CONFIGS = {
    "combined": {"delta_bits": 2},
    "delta_only": {"delta_bits": 2},
    "mac_in_ecc": {"counter_bits": 2},
    "bmt_baseline": {"counter_bits": 2},
    "endurance": {},
}


def _raising_run(seed):
    """A prologue, and a run whose writes to other groups come before and
    between the hammering of block 0 that re-encrypts tampered group 0."""
    rng = random.Random(seed)
    region_blocks = REGION // 64
    prologue = [0, 5] + [rng.randrange(64, region_blocks) for _ in range(6)]
    lead = rng.randrange(1, 5)
    run = [rng.randrange(64, region_blocks) for _ in range(lead)]
    for _ in range(60):
        if rng.random() < 0.3:
            run.append(rng.randrange(64, region_blocks))
        run.append(0)
    return _payloads(prologue, 0), _payloads(run, len(prologue))


@pytest.mark.parametrize("name", list(RAISING_RUN_CONFIGS))
def test_write_run_that_raises_leaves_the_scalar_loop_state(name):
    """An ``IntegrityError`` partway through ``write_many`` (the
    re-encryption meets tampered block 5) leaves the engine as the scalar
    write loop leaves it: every earlier write of the run stored and
    readable, its group's metadata and tree leaf committed."""
    config = _config(name, RAISING_RUN_CONFIGS[name])

    def drive(batched, prologue, run):
        engine = SecureMemory(config, KEY, registry=MetricRegistry())
        batch = BatchSecureMemory(engine, mode="fast")
        batch.write_many(prologue)
        engine.flip_data_bits(5 * 64, range(0, 512, 8))
        with pytest.raises(IntegrityError) as raised:
            if batched:
                batch.write_many(run)
            else:
                for address, data in run:
                    engine.write(address, data)
        digest = state_digest(engine)
        reads = []
        for address in sorted({address for address, _ in prologue + run}):
            try:
                reads.append(engine.read(address).data)
            except IntegrityError as error:
                reads.append((error.kind, str(error)))
        return (raised.value.kind, raised.value.address), digest, reads

    for seed in range(6):
        prologue, run = _raising_run(seed)
        assert drive(True, prologue, run) == drive(False, prologue, run), seed
