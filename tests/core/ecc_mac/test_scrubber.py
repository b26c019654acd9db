"""Parity-assisted scrubbing (Section 3.3)."""

import pytest

from repro.core.ecc_mac.layout import MacEccCodec
from repro.core.ecc_mac.scrubber import Scrubber
from repro.crypto.mac import CarterWegmanMac
from tests.conftest import random_block


@pytest.fixture
def codec(key24):
    return MacEccCodec(CarterWegmanMac(key24, mode="splitmix"))


def _population(codec, rng, count=16):
    blocks = []
    for i in range(count):
        ct = random_block(rng)
        blocks.append([i * 64, ct, codec.build(ct, i * 64, 1)])
    return blocks


class TestScrubber:
    def test_clean_sweep(self, codec, rng):
        scrubber = Scrubber(codec)
        report = scrubber.scrub(tuple(b) for b in _population(codec, rng))
        assert report.blocks_scanned == 16
        assert report.suspicious_blocks == []

    def test_single_data_flip_flagged(self, codec, rng):
        blocks = _population(codec, rng)
        corrupted = bytearray(blocks[3][1])
        corrupted[10] ^= 4
        blocks[3][1] = bytes(corrupted)
        report = Scrubber(codec).scrub(tuple(b) for b in blocks)
        assert report.data_parity_failures == [3 * 64]
        assert report.suspicious_blocks == [3 * 64]

    def test_single_mac_flip_flagged(self, codec, rng):
        blocks = _population(codec, rng)
        blocks[5][2] = blocks[5][2].flip_bit(30)
        report = Scrubber(codec).scrub(tuple(b) for b in blocks)
        assert report.mac_parity_failures == [5 * 64]
        assert report.suspicious_blocks == [5 * 64]

    def test_double_data_flip_escapes_parity(self, codec, rng):
        """Inherent parity blind spot: even flip counts pass the quick
        scan (they are still caught at the next demand-read MAC check)."""
        blocks = _population(codec, rng)
        corrupted = bytearray(blocks[0][1])
        corrupted[0] ^= 1
        corrupted[1] ^= 1
        blocks[0][1] = bytes(corrupted)
        report = Scrubber(codec).scrub(tuple(b) for b in blocks)
        assert report.data_parity_failures == []

    def test_multiple_failures_deduplicated(self, codec, rng):
        blocks = _population(codec, rng)
        corrupted = bytearray(blocks[2][1])
        corrupted[0] ^= 1
        blocks[2][1] = bytes(corrupted)
        blocks[2][2] = blocks[2][2].flip_bit(12)
        report = Scrubber(codec).scrub(tuple(b) for b in blocks)
        assert report.suspicious_blocks == [2 * 64]

    def test_skip_list_excludes_retired_blocks(self, codec, rng):
        """Quarantined addresses are left out of the sweep entirely: a
        corrupt retired block must neither be flagged nor scanned."""
        blocks = _population(codec, rng)
        corrupted = bytearray(blocks[7][1])
        corrupted[10] ^= 4
        blocks[7][1] = bytes(corrupted)
        report = Scrubber(codec).scrub(
            (tuple(b) for b in blocks), skip=[7 * 64]
        )
        assert report.blocks_skipped == 1
        assert report.blocks_scanned == 15
        assert report.suspicious_blocks == []
