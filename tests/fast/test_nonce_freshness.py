"""Nonce freshness: no stored block ever reuses a keystream pad or a MAC
mask at its address.

Every preset runs at tiny counter widths (1-2-bit monolithic counters,
2-bit deltas, the 2+2-bit dual-length layout) on every available
keystream backend, through scalar ``SecureMemory`` writes and then
``BatchSecureMemory`` runs, until each overflow path its scheme has --
monolithic wrap, group re-encryption, widen, reset, re-encode -- has
fired in both.  Every ciphertext the engine stores is recorded with its
(address, nonce): ``SecureMemory._store_block`` on the scalar path, the
``ctr.encrypt``/``mac.tags`` kernels inside
``BatchSecureMemory._flush_pending`` on the batch path.  The backend
then turns each into the keystream pad and the MAC mask it selects; two
stores at one address must never share either.  (The AES family's pads
and masks are computed through its fastest available member: the family
is bit-identical, which ``test_backend_differential.py`` pins.)
"""

from __future__ import annotations

import contextlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine.config import preset
from repro.core.engine.secure_memory import SecureMemory
from repro.crypto.ctr import CtrModeCipher
from repro.crypto.mac import CarterWegmanMac
from repro.fast.backends import keystream_backends, resolve_backend
from repro.fast.batch_memory import BatchSecureMemory
from repro.fast.kernels import KernelTable

KEY = bytes((i * 29 + 3) & 0xFF for i in range(48))
BACKENDS = [n for n in keystream_backends() if resolve_backend(n).available()]
#: a 64-block region (one monolithic group); the delta schemes split it
#: into groups of 8 and the workload writes the first two
REGION_BLOCKS = 64
GROUPS = 2
GROUP_BLOCKS = 8

_DUAL = {"base_delta_bits": 2, "extension_bits": 2}
#: preset -> (scheme width overrides, the overflow events its scheme fires)
PRESETS = {
    "bmt_baseline": (None, ("global_re_encryptions",)),
    "mac_in_ecc": (None, ("global_re_encryptions",)),
    "delta_only": (
        {"delta_bits": 2}, ("re_encryptions", "resets", "re_encodes")
    ),
    "combined": (
        {"delta_bits": 2}, ("re_encryptions", "resets", "re_encodes")
    ),
    "combined_dual": (
        _DUAL, ("re_encryptions", "resets", "re_encodes", "widens")
    ),
    "endurance": (
        _DUAL, ("re_encryptions", "resets", "re_encodes", "widens")
    ),
}
#: writes per phase: at least the floor, then until every overflow
#: event has fired, failing at the cap
_PHASE_FLOOR = 32
_PHASE_CAP = 2000


@contextlib.contextmanager
def _recorded_stores():
    """Yield the (address, nonce) of every stored ciphertext and of every
    stored MAC tag, appended as the engine stores them."""
    pads: list[tuple[int, int]] = []
    masks: list[tuple[int, int]] = []
    store_block = SecureMemory._store_block
    flush_pending = BatchSecureMemory._flush_pending
    run = KernelTable.run
    flushing = []

    def recording_store_block(self, block, ciphertext, nonce):
        address = block * 64
        pads.append((address, int(nonce)))
        masks.append((address, int(nonce)))
        return store_block(self, block, ciphertext, nonce)

    def recording_flush_pending(self, *args):
        flushing.append(True)
        try:
            return flush_pending(self, *args)
        finally:
            flushing.pop()

    def recording_run(self, name, *args, blocks=1):
        if flushing and name == "ctr.encrypt":
            _, nonces, addresses = args
            pads.extend(zip(map(int, addresses), map(int, nonces)))
        elif flushing and name == "mac.tags":
            _, addresses, nonces = args
            masks.extend(zip(map(int, addresses), map(int, nonces)))
        return run(self, name, *args, blocks=blocks)

    SecureMemory._store_block = recording_store_block
    BatchSecureMemory._flush_pending = recording_flush_pending
    KernelTable.run = recording_run
    try:
        yield pads, masks
    finally:
        SecureMemory._store_block = store_block
        BatchSecureMemory._flush_pending = flush_pending
        KernelTable.run = run


def _twin_mode(mode: str) -> str:
    """The backend that derives ``mode``'s pads and masks in the check."""
    family = resolve_backend(mode).family
    if family == "aes" and "aesni" in BACKENDS:
        return "aesni"
    return mode


def _drive(engine, batch, rng, events):
    """Scalar writes, then batch runs, each phase until every one of
    ``events`` has fired in it; a few reads lazily store untouched
    blocks on the way."""
    stats = engine.scheme.stats
    for batched in (False, True):
        before = {event: getattr(stats, event) for event in events}
        writes = 0
        while writes < _PHASE_FLOOR or not all(
            getattr(stats, event) > before[event] for event in events
        ):
            assert writes < _PHASE_CAP, (batched, events)
            # A few writes to three hot blocks of group 0, a sweep of
            # one group (group 1 sees only sweeps, so its deltas
            # converge), or a read.
            roll = rng.random()
            if roll < 0.05:
                engine.read(rng.randrange(GROUPS * GROUP_BLOCKS) * 64)
                continue
            if roll < 0.35:
                start = rng.randrange(GROUPS) * GROUP_BLOCKS
                blocks = range(start, start + GROUP_BLOCKS)
            else:
                blocks = [rng.randrange(3) for _ in range(rng.randint(1, 6))]
            run = [(block * 64, rng.randbytes(64)) for block in blocks]
            if batched:
                batch.write_many(run)
            else:
                for address, data in run:
                    engine.write(address, data)
            writes += len(run)


@pytest.mark.parametrize("mode", BACKENDS)
@pytest.mark.parametrize("preset_name", list(PRESETS))
@settings(max_examples=2, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), counter_bits=st.sampled_from([1, 2]))
def test_no_stored_block_reuses_a_pad_or_mask(
    preset_name, mode, seed, counter_bits
):
    widths, events = PRESETS[preset_name]
    if widths is None:
        widths = {"counter_bits": counter_bits}
    base = preset(preset_name)
    config = preset(
        preset_name,
        protected_bytes=REGION_BLOCKS * 64,
        blocks_per_group=GROUP_BLOCKS,
        keystream_mode=mode,
        scheme_kwargs={**base.scheme_kwargs, **widths},
    )
    with _recorded_stores() as (pads, masks):
        engine = SecureMemory(config, KEY)
        batch = BatchSecureMemory(engine)
        _drive(engine, batch, random.Random(seed), events)

    twin = _twin_mode(mode)
    cipher = CtrModeCipher(engine.cipher._key, mode=twin)
    mac = CarterWegmanMac(engine.mac._key, mode=twin)
    stored_pads = {
        (address, cipher.keystream(nonce, address)) for address, nonce in pads
    }
    assert len(stored_pads) == len(pads), "a keystream pad was reused"
    stored_masks = {
        (address, mac._mask_value(address, nonce)) for address, nonce in masks
    }
    assert len(stored_masks) == len(masks), "a MAC mask was reused"
