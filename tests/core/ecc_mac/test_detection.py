"""Section 3.3 detection flow."""

import pytest

from repro.core.ecc_mac.detection import CheckOutcome, check_block
from repro.core.ecc_mac.layout import MacEccCodec
from repro.crypto.mac import CarterWegmanMac
from tests.conftest import random_block


@pytest.fixture
def codec(key24):
    return MacEccCodec(CarterWegmanMac(key24, mode="splitmix"))


def _flip(data, positions):
    out = bytearray(data)
    for p in positions:
        out[p >> 3] ^= 1 << (p & 7)
    return bytes(out)


class TestCheckBlock:
    def test_clean(self, codec, rng):
        ct = random_block(rng)
        field = codec.build(ct, 0x80, 3)
        result = check_block(codec, ct, field, 0x80, 3)
        assert result.outcome is CheckOutcome.CLEAN
        assert result.ok
        assert result.recovered_mac == field.mac

    def test_any_data_corruption_detected(self, codec, rng):
        """MAC-based detection has no 2-flips-per-word limit: any number
        of flips is caught (up to the 2^-56 collision bound)."""
        ct = random_block(rng)
        field = codec.build(ct, 0x80, 3)
        for flips in (1, 2, 5, 17, 100, 512):
            corrupted = _flip(ct, rng.sample(range(512), flips))
            result = check_block(codec, corrupted, field, 0x80, 3)
            assert result.outcome is CheckOutcome.DATA_MISMATCH, flips
            assert not result.ok

    def test_single_mac_bit_fault_self_corrected(self, codec, rng):
        ct = random_block(rng)
        field = codec.build(ct, 0x80, 3).flip_bit(20)
        result = check_block(codec, ct, field, 0x80, 3)
        assert result.outcome is CheckOutcome.MAC_CORRECTED
        assert result.ok
        assert result.recovered_mac == codec.mac.tag(ct, 0x80, 3)

    def test_double_mac_bit_fault_uncorrectable(self, codec, rng):
        ct = random_block(rng)
        field = codec.build(ct, 0x80, 3).flip_bit(20).flip_bit(41)
        result = check_block(codec, ct, field, 0x80, 3)
        assert result.outcome is CheckOutcome.MAC_UNCORRECTABLE
        assert result.recovered_mac is None

    def test_wrong_counter_is_mismatch(self, codec, rng):
        """A stale counter (replay without tree protection) shows up as a
        data mismatch -- the tree is what turns this into a hard fail."""
        ct = random_block(rng)
        field = codec.build(ct, 0x80, 3)
        result = check_block(codec, ct, field, 0x80, 4)
        assert result.outcome is CheckOutcome.DATA_MISMATCH

    def test_wrong_address_is_mismatch(self, codec, rng):
        """Block relocation defense."""
        ct = random_block(rng)
        field = codec.build(ct, 0x80, 3)
        result = check_block(codec, ct, field, 0xC0, 3)
        assert result.outcome is CheckOutcome.DATA_MISMATCH

    def test_simultaneous_mac_and_data_fault(self, codec, rng):
        """1 MAC flip + data flips: the MAC self-corrects first, then the
        data mismatch is still caught against the *recovered* MAC."""
        ct = random_block(rng)
        field = codec.build(ct, 0x80, 3).flip_bit(10)
        corrupted = _flip(ct, [100])
        result = check_block(codec, corrupted, field, 0x80, 3)
        assert result.outcome is CheckOutcome.DATA_MISMATCH
        assert result.recovered_mac == codec.mac.tag(ct, 0x80, 3)
