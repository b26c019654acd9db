"""Pinned ``lane_digest`` values: the off-chip MAC state at bench scale.

``state_digest`` (the digest every bench payload carries) hashes
ciphertexts, counter storage and the tree root, not the MAC lane, so a
wrong stored lane word would show only if the read-back happened to
read that block.  These pins cover the lane of every stored block of:

* the ``combined`` batch engine over short ``stream`` and ``gups``
  write-back streams (MAC-in-ECC words from the batched store),
* ``bmt_baseline`` (bare tags: the separate-MAC store),
* ``endurance`` facesim, whose writes fire batched group
  re-encryptions,
* a scalar ``combined`` engine that heals one MAC-lane flip and
  corrects one data flip on read (both write a lane back), and keeps
  one unread lane flip.
"""

from __future__ import annotations

import pytest

from repro.core.ecc_mac.detection import CheckOutcome
from repro.core.engine.config import preset
from repro.core.engine.secure_memory import SecureMemory
from repro.fast.batch_memory import BatchSecureMemory
from repro.harness.parallel import (
    FLUSH_CHUNK,
    BenchSpec,
    app_key,
    lane_digest,
    state_digest,
    writeback_stream,
)
from repro.lint.contracts import BLOCK_BYTES
from repro.obs.metrics import MetricRegistry, use_registry

KEY = bytes(range(48))


def _replay(app: str, spec: BenchSpec) -> tuple[SecureMemory, MetricRegistry]:
    """``run_app``'s write-back replay and read-back, keeping the engine."""
    registry = MetricRegistry()
    with use_registry(registry):
        stream, _ = writeback_stream(app, spec)
        config = preset(
            spec.preset,
            protected_bytes=spec.region_mb * 1024 * 1024,
            keystream_mode=spec.keystream,
        )
        engine = SecureMemory(config, app_key(app, spec.seed))
        batch = BatchSecureMemory(engine, mode=spec.mode)
        for start in range(0, len(stream), FLUSH_CHUNK):
            batch.write_many(
                [
                    (block * BLOCK_BYTES, data)
                    for block, data in stream[start : start + FLUSH_CHUNK]
                ]
            )
        payloads = dict(stream)
        written = sorted(payloads)
        for start in range(0, len(written), FLUSH_CHUNK):
            chunk = written[start : start + FLUSH_CHUNK]
            results = batch.read_many([block * BLOCK_BYTES for block in chunk])
            assert [r.data for r in results] == [payloads[b] for b in chunk]
    return engine, registry


#: (app, preset, accesses) -> (lane_digest, state_digest)
PINS = {
    ("stream", "combined", 3000): (
        "e5f1605ba80ddadb7cccb437dd949682f05bc448a63cc7674891f5701a7cce5b",
        "09e3b9e15b4f9484ca2f4a606355cc639877074ae54d2c1a05364ed383cbd3cb",
    ),
    ("gups", "combined", 3000): (
        "39adb3ecc4eafba0a0e6ad63dc2b4dfb1384d0a64f4c6073d7fec0ba340b0a05",
        "942045022c0940fc2fe068e3acbec679069bb786d4cb630fc651b95dc797bf2e",
    ),
    ("stream", "bmt_baseline", 3000): (
        "d6c4ea8827299665cbb013dd9d0d2c02dfac3d29f8b8d818436457a7e2768f37",
        "a0f555c47a5a63ec8cc9ae88e34cbead1c9f33467eef99def6d89e40ff189b2d",
    ),
    ("facesim", "endurance", 30000): (
        "3d96064bbdea20d58c06d3802b97a29968041cf5932b50b5e0ce0151011822b0",
        "d76b44a571a29f71377f71e06926059f53d8f6fb90091ccf94c04d66fcbb587d",
    ),
}


@pytest.mark.parametrize("app,preset_name,accesses", list(PINS), ids=str)
def test_batch_lane_digest_is_pinned(app, preset_name, accesses):
    spec = BenchSpec(
        apps=(app,), accesses=accesses, region_mb=2, preset=preset_name
    )
    engine, registry = _replay(app, spec)
    assert len(engine.ciphertexts) > 0
    if preset_name == "endurance":
        totals = registry.snapshot().totals()
        assert totals.get("engine.write.group_reencrypt", 0) >= 30
        assert totals.get("fast.fallback.scalar", 0) == 0
    assert (lane_digest(engine), state_digest(engine)) == PINS[
        (app, preset_name, accesses)
    ]


SCALAR_PIN = (
    "20051c9032e15b1120c5749eb318211a983180ff3b25bacb7f4e1dd95c8ecee9"
)


def test_scalar_heals_write_their_lanes_back():
    engine = SecureMemory(
        preset("combined", protected_bytes=64 * 1024,
               keystream_mode="splitmix"),
        KEY,
    )
    datas = {
        block: bytes((block * 37 + i) & 0xFF for i in range(BLOCK_BYTES))
        for block in range(8)
    }
    for block, data in datas.items():
        engine.write(block * BLOCK_BYTES, data)
    # A single flipped MAC bit: Hamming self-corrects, the lane is healed.
    engine.flip_ecc_bits(1 * BLOCK_BYTES, [9])
    healed = engine.read(1 * BLOCK_BYTES)
    assert healed.outcome is CheckOutcome.MAC_CORRECTED
    # A single flipped data bit: flip-and-check corrects and rewrites.
    engine.flip_data_bits(2 * BLOCK_BYTES, [100])
    corrected = engine.read(2 * BLOCK_BYTES)
    assert corrected.corrected_bits == (100,)
    assert (healed.data, corrected.data) == (datas[1], datas[2])
    assert engine.counters.mac_self_corrections == 1
    assert engine.counters.corrections == 1
    # Flips never read back stay in the lane the digest hashes.
    engine.flip_ecc_bits(5 * BLOCK_BYTES, [3, 60, 63])
    assert lane_digest(engine) == SCALAR_PIN
