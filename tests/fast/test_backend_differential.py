"""Cross-backend differential battery + sampled-paranoid guarantees.

Three claims are pinned here:

1. **Pad equivalence.**  Every AES-family backend (``reference`` scalar
   table AES, ``fast`` numpy batch, ``aesni`` via ``cryptography``)
   computes bit-identical keystream pads for random keys, counters and
   addresses -- an accelerated backend cannot win benchmarks by
   computing a different (wrong) keystream.
2. **Engine-state equivalence.**  A full engine driven with each
   backend ends in the same externally observable state (ciphertexts,
   MACs, counter metadata, tree root) across presets.
3. **Sampled paranoia works.**  ``mode="sampled:N"`` checks exactly
   1-in-N kernel calls on a seeded deterministic schedule, catches an
   injected persistent kernel corruption within N calls, and repeats
   the same schedule on every run.
"""

from __future__ import annotations

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine.config import preset
from repro.core.engine.secure_memory import SecureMemory
from repro.crypto.prf import splitmix64
from repro.crypto.mac import CarterWegmanMac
from repro.fast.backends import (
    aes_nonce_block,
    aes_nonce_blocks,
    keystream_backends,
    resolve_backend,
)
from repro.fast.batch_memory import BatchSecureMemory
from repro.fast.kernels import (
    SAMPLE_SEED,
    KernelDivergence,
    KernelPair,
    KernelTable,
)
from repro.fast.mac_batch import BatchCarterWegmanMac
from repro.obs.metrics import MetricRegistry, use_registry
from tests.fast.conftest import engine_state, run_ops

AES_BACKENDS = ["reference", "fast", "aesni"]
KEY = bytes((i * 73 + 5) & 0xFF for i in range(48))
REGION = 16 * 1024

U48 = st.integers(min_value=0, max_value=(1 << 48) - 1)
U56 = st.integers(min_value=0, max_value=(1 << 56) - 1)


def _aes_engines(key16):
    out = {}
    for name in AES_BACKENDS:
        backend = resolve_backend(name)
        if backend.availability_error() is not None:
            continue
        out[name] = backend.build(key16)
    return out


# -- 1. pad equivalence -----------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    key=st.binary(min_size=16, max_size=16),
    data=st.data(),
    count=st.integers(1, 6),
)
def test_aes_family_pads_bit_identical(key, data, count):
    counters = data.draw(st.lists(U56, min_size=count, max_size=count))
    addresses = data.draw(st.lists(U48, min_size=count, max_size=count))
    engines = _aes_engines(key)
    assert "reference" in engines and "fast" in engines
    pads = {
        name: np.asarray(engine.pads(counters, addresses))
        for name, engine in engines.items()
    }
    baseline = pads.pop("reference")
    assert baseline.shape == (count, 64)
    for name, batch in pads.items():
        assert np.array_equal(batch, baseline), name


@settings(max_examples=25, deadline=None)
@given(
    key=st.binary(min_size=16, max_size=16),
    counter=U56,
    address=U48,
    length=st.integers(1, 64),
)
def test_aes_family_scalar_keystream_bit_identical(
    key, counter, address, length
):
    engines = _aes_engines(key)
    streams = {
        name: engine.keystream(counter, address, length)
        for name, engine in engines.items()
    }
    baseline = streams.pop("reference")
    assert len(baseline) == length
    for name, stream in streams.items():
        assert stream == baseline, name


@settings(max_examples=40, deadline=None)
@given(
    rows=st.lists(
        st.tuples(U56, st.integers(0, (1 << 64) - 1)),
        min_size=1,
        max_size=6,
    )
)
def test_nonce_blocks_equal_the_scalar_nonce_block(rows):
    """The batched nonce blocks are byte-for-byte the scalar
    ``aes_nonce_block``, over the whole nonce lane and any address."""
    counters = [counter for counter, _ in rows]
    addresses = [address for _, address in rows]
    blocks = aes_nonce_blocks(counters, addresses)
    assert blocks.shape == (len(rows), 4, 16)
    for row, (counter, address) in enumerate(rows):
        for segment in range(4):
            assert blocks[row, segment].tobytes() == aes_nonce_block(
                counter, address, segment
            )


#: nonces just outside the 56-bit lane, and far outside it
OUT_OF_LANE = [-1, 1 << 56, (1 << 56) + 5, 1 << 63, (1 << 64) + 1]


@pytest.mark.parametrize("name", keystream_backends())
@pytest.mark.parametrize("nonce", OUT_OF_LANE)
def test_out_of_lane_nonces_raise_on_every_backend(name, nonce):
    """The lane is enforced, not masked: an out-of-lane nonce raises on
    the scalar and the batch path of every backend's keystream and MAC,
    even beside in-lane nonces, as a list or an array."""
    backend = resolve_backend(name)
    if backend.availability_error() is not None:
        pytest.skip(backend.availability_error())
    engine = backend.build(KEY[:16])
    with pytest.raises(ValueError, match="nonce lane"):
        engine.keystream(nonce, 64, 64)
    with pytest.raises(ValueError, match="nonce lane"):
        engine.pads([0, nonce], [0, 64])
    mac = CarterWegmanMac(KEY[16:40], mode=name)
    with pytest.raises(ValueError, match="nonce lane"):
        mac.tag(bytes(64), 64, nonce)
    messages = np.zeros((2, 64), dtype=np.uint8)
    with pytest.raises(ValueError, match="nonce lane"):
        BatchCarterWegmanMac(mac).tags(messages, [0, 64], [0, nonce])
    if 0 <= nonce < 1 << 63:  # an int64 array can hold it
        with pytest.raises(ValueError, match="nonce lane"):
            engine.pads(np.array([0, nonce], dtype=np.int64), [0, 64])


@settings(max_examples=15, deadline=None)
@given(key=st.binary(min_size=16, max_size=16), counter=U56, address=U48)
def test_splitmix_family_actually_differs(key, counter, address):
    # The simulation PRF is a different family on purpose; if it ever
    # collides with real AES something is badly miswired.
    aes = resolve_backend("fast").build(key)
    prf = resolve_backend("splitmix").build(key)
    assert aes.keystream(counter, address, 64) != prf.keystream(
        counter, address, 64
    )


# -- 2. full engine-state equivalence ---------------------------------------


def _mixed_ops(seed, count, region=REGION, hot_blocks=12):
    rng = random.Random(seed)
    region_blocks = region // 64
    written = []
    ops = []
    for sequence in range(count):
        if written and rng.random() < 0.35:
            ops.append(("read", rng.choice(written)))
            continue
        block = (
            rng.randrange(hot_blocks)
            if rng.random() < 0.7
            else rng.randrange(region_blocks)
        )
        data = bytes(
            (block * 89 + sequence * 29 + i) & 0xFF for i in range(64)
        )
        ops.append(("write", block, data))
        written.append(block)
    return ops


def _drive(config, ops, batched=True):
    registry = MetricRegistry()
    with use_registry(registry):
        engine = SecureMemory(config, KEY)
        reads = []
        if batched:
            batch = BatchSecureMemory(engine, mode="fast")
            reads = [
                (result.data, result.outcome)
                for result in run_ops(batch, ops)
            ]
        else:
            for op in ops:
                if op[0] == "write":
                    engine.write(op[1] * 64, op[2])
                else:
                    result = engine.read(op[1] * 64)
                    reads.append((result.data, result.outcome))
        return engine_state(engine), reads


@pytest.mark.parametrize("preset_name", ["combined", "mac_in_ecc"])
def test_engine_state_identical_across_aes_backends(preset_name):
    ops = _mixed_ops(seed=0xA55, count=220)
    outcomes = {}
    for name in AES_BACKENDS:
        if resolve_backend(name).availability_error() is not None:
            continue
        config = preset(
            preset_name, protected_bytes=REGION, keystream_mode=name
        )
        outcomes[name] = _drive(config, ops)
    assert "reference" in outcomes and "fast" in outcomes
    state0, reads0 = outcomes.pop("reference")
    for name, (state, reads) in outcomes.items():
        assert state == state0, name
        assert reads == reads0, name


@pytest.mark.parametrize(
    "backend_name",
    [
        pytest.param(
            name,
            marks=pytest.mark.skipif(
                resolve_backend(name).availability_error() is not None,
                reason=str(resolve_backend(name).availability_error()),
            ),
        )
        for name in AES_BACKENDS + ["splitmix"]
    ],
)
def test_batched_equals_scalar_per_backend(backend_name):
    # The batch facade must agree with the scalar engine loop under
    # every backend, not just the one the batch kernels were tuned on.
    config = preset(
        "combined", protected_bytes=REGION, keystream_mode=backend_name
    )
    ops = _mixed_ops(seed=0xBEE, count=180)
    scalar = _drive(config, ops, batched=False)
    batched = _drive(config, ops, batched=True)
    assert batched == scalar


# -- 3. sampled-paranoid guarantees -----------------------------------------


def _counting_table(sample, corrupt_after=None):
    """A table with one integer-doubling kernel; optionally make the
    fast side return a wrong value from call ``corrupt_after`` on."""
    calls = {"n": 0}

    def fast(value):
        calls["n"] += 1
        if corrupt_after is not None and calls["n"] > corrupt_after:
            return value * 2 + 1
        return value * 2

    pair = KernelPair(name="double", fast=fast, reference=lambda v: v * 2)
    registry = MetricRegistry()
    with use_registry(registry):
        table = KernelTable([pair], mode=f"sampled:{sample}")
    return table, registry


@pytest.mark.parametrize("sample", [2, 4, 8, 32])
def test_sampling_rate_is_exactly_one_in_n(sample):
    table, registry = _counting_table(sample)
    calls = 10 * sample + 3
    for value in range(calls):
        assert table.run("double", value) == value * 2
    totals = registry.snapshot().totals()
    expected = len(
        [i for i in range(calls) if i % sample == table._sample_phase]
    )
    assert totals["fast.paranoid.sampled"] == expected
    assert totals["fast.paranoid.skipped"] == calls - expected
    assert totals["fast.paranoid.checks"] == expected
    # Exactly 1-in-N over any whole number of periods.
    assert expected == (calls - table._sample_phase + sample - 1) // sample


@pytest.mark.parametrize("sample", [3, 16])
def test_persistent_corruption_caught_within_n_calls(sample):
    table, registry = _counting_table(sample, corrupt_after=0)
    caught_at = None
    for index in range(sample):
        try:
            table.run("double", index)
        except KernelDivergence:
            caught_at = index
            break
    assert caught_at is not None, (
        f"persistent corruption survived {sample} calls at "
        f"sampled:{sample}"
    )
    assert caught_at == table._sample_phase
    assert registry.snapshot().totals()["fast.paranoid.divergence"] == 1


def test_sampled_schedule_is_deterministic():
    first, _ = _counting_table(8)
    second, _ = _counting_table(8)
    assert first._sample_phase == second._sample_phase
    assert first._sample_phase == splitmix64(SAMPLE_SEED) % 8
    checked_first = [
        i for i in range(64) if i % 8 == first._sample_phase
    ]
    checked_second = [
        i for i in range(64) if i % 8 == second._sample_phase
    ]
    assert checked_first == checked_second


def test_sampled_paranoid_catches_corruption_through_the_engine():
    """End to end: corrupt the batched CTR kernel mid-workload and the
    sampled cross-check must raise within one sampling window."""
    config = preset(
        "combined", protected_bytes=REGION, keystream_mode="fast"
    )
    registry = MetricRegistry()
    with use_registry(registry):
        engine = SecureMemory(config, KEY)
        # Each flush below writes one group and issues kernels with
        # period 5 (encrypt, tags, ecc.lane, then the commit's one
        # counter encode and one tree.hash per hashed tree level -- a
        # single level, as this region's tree sits all on-chip); a
        # coprime sampling stride guarantees the schedule rotates over
        # every kernel instead of aliasing onto one.
        batch = BatchSecureMemory(engine, mode="sampled:3")
        table = batch.kernels
        real = table.pairs["ctr.encrypt"].fast

        def corrupted(data, counters, addresses):
            out = np.array(real(data, counters, addresses), copy=True)
            out[..., 0] ^= 0xFF
            return out

        table.pairs["ctr.encrypt"] = KernelPair(
            name="ctr.encrypt",
            fast=corrupted,
            reference=table.pairs["ctr.encrypt"].reference,
        )
        with pytest.raises(KernelDivergence):
            # Enough writes for at least 4 ctr.encrypt kernel calls.
            for sequence in range(64):
                batch.queue_write(
                    (sequence % 16) * 64, bytes([sequence]) * 64
                )
                if sequence % 2 == 1:
                    batch.flush()
    assert (
        registry.snapshot().totals()["fast.paranoid.divergence"] == 1
    )


def test_flush_kernel_sequence_period_is_coprime_to_the_stride():
    """The flush pattern above issues the kernel sequence the sampling
    stride 3 was chosen against: the run's kernels, one counter encode
    over the dirty groups, and one tree.hash per hashed tree level (the
    leaves only, since this region's tree fits on-chip)."""
    config = preset(
        "combined", protected_bytes=REGION, keystream_mode="fast"
    )
    engine = SecureMemory(config, KEY, registry=MetricRegistry())
    batch = BatchSecureMemory(engine, mode="fast")
    table = batch.kernels
    names: list[str] = []
    run = table.run

    def recording(name, *args, **kwargs):
        names.append(name)
        return run(name, *args, **kwargs)

    table.run = recording
    for sequence in range(8):
        batch.queue_write((sequence % 16) * 64, bytes([sequence]) * 64)
        if sequence % 2 == 1:
            batch.flush()
    assert engine.tree.geometry.offchip_levels == 0
    period = [
        "ctr.encrypt", "mac.tags", "ecc.lane", "counters.encode", "tree.hash"
    ]
    assert names == period * 4
    assert math.gcd(len(period), 3) == 1


def test_paranoid_sample_validation():
    for token, period in (
        ("fast", 0),
        ("paranoid", 1),
        ("sampled:1", 1),
        ("sampled:32", 32),
    ):
        table = KernelTable([], mode=token)
        assert table.mode == token
        assert table._period == period
    for token in (
        "reference", "sampled:0", "sampled:x", "sampled:-3", "paranoid:4", "aes",
    ):
        with pytest.raises(ValueError, match="fast, paranoid, sampled:N"):
            KernelTable([], mode=token)
