"""Flip-and-check error correction (Section 3.4): both the literal
brute-force algorithm and the linearity-accelerated variant."""

import pytest

from repro.core.ecc_mac.correction import (
    BLOCK_BITS,
    CorrectionMethod,
    FlipAndCheckCorrector,
)
from repro.crypto.mac import CarterWegmanMac
from tests.conftest import random_block


@pytest.fixture
def mac(key24):
    return CarterWegmanMac(key24, mode="splitmix")


@pytest.fixture
def corrector(mac):
    return FlipAndCheckCorrector(mac)


def _flip(data, positions):
    out = bytearray(data)
    for p in positions:
        out[p >> 3] ^= 1 << (p & 7)
    return bytes(out)


class TestAcceleratedSingleBit:
    def test_corrects_every_position(self, corrector, mac, rng):
        """All 512 single-bit positions must be correctable."""
        data = random_block(rng)
        tag = mac.tag(data, 0x40, 9)
        for position in range(BLOCK_BITS):
            result = corrector.correct_accelerated(
                _flip(data, [position]), 0x40, 9, tag
            )
            assert result.corrected, position
            assert result.data == data, position
            assert result.flipped_bits == (position,)
            assert result.error_weight == 1

    def test_checks_are_tiny(self, corrector, mac, rng):
        """Syndrome lookup needs O(1) confirming MAC evaluations for a
        single-bit error -- the whole point of the acceleration."""
        data = random_block(rng)
        tag = mac.tag(data, 0x40, 9)
        result = corrector.correct_accelerated(_flip(data, [99]), 0x40, 9, tag)
        assert result.checks <= 3


class TestAcceleratedDoubleBit:
    def test_corrects_sampled_pairs(self, corrector, mac, rng):
        data = random_block(rng)
        tag = mac.tag(data, 0x40, 9)
        for _ in range(25):
            pair = tuple(sorted(rng.sample(range(BLOCK_BITS), 2)))
            result = corrector.correct_accelerated(
                _flip(data, pair), 0x40, 9, tag
            )
            assert result.corrected, pair
            assert result.data == data, pair
            assert tuple(sorted(result.flipped_bits)) == pair

    def test_triple_bit_fails_cleanly(self, corrector, mac, rng):
        data = random_block(rng)
        tag = mac.tag(data, 0x40, 9)
        result = corrector.correct_accelerated(
            _flip(data, [1, 2, 3]), 0x40, 9, tag
        )
        assert not result.corrected
        assert result.data is None


class TestBruteForce:
    def test_single_bit_sampled_positions(self, corrector, mac, rng):
        data = random_block(rng)
        tag = mac.tag(data, 0x40, 9)
        for position in rng.sample(range(BLOCK_BITS), 6):
            result = corrector.correct_brute_force(
                _flip(data, [position]), 0x40, 9, tag
            )
            assert result.corrected and result.data == data
            # Brute force stops exactly at the flipped position.
            assert result.checks == position + 1

    def test_double_bit_one_pair(self, corrector, mac, rng):
        data = random_block(rng)
        tag = mac.tag(data, 0x40, 9)
        pair = (3, 17)  # early pair keeps the search quick
        result = corrector.correct_brute_force(
            _flip(data, pair), 0x40, 9, tag
        )
        assert result.corrected and result.data == data
        assert tuple(sorted(result.flipped_bits)) == pair

    def test_equivalence_with_accelerated(self, corrector, mac, rng):
        """The two algorithms must find the same correction."""
        data = random_block(rng)
        tag = mac.tag(data, 0x40, 9)
        for positions in ([5], [200], [0, 40]):
            corrupted = _flip(data, positions)
            brute = corrector.correct_brute_force(corrupted, 0x40, 9, tag)
            fast = corrector.correct_accelerated(corrupted, 0x40, 9, tag)
            assert brute.corrected == fast.corrected
            assert brute.data == fast.data
            assert sorted(brute.flipped_bits) == sorted(fast.flipped_bits)
            assert fast.checks <= brute.checks


class TestCostModel:
    def test_paper_bounds(self):
        """<=512 checks for single, 512 + C(512,2) = 131,328 total for
        double (the paper quotes the 130,816 pair count)."""
        assert FlipAndCheckCorrector.worst_case_checks(1) == 512
        assert FlipAndCheckCorrector.worst_case_checks(2) == 512 + 130816
        with pytest.raises(ValueError):
            FlipAndCheckCorrector.worst_case_checks(3)

    def test_max_errors_validation(self, mac):
        with pytest.raises(ValueError):
            FlipAndCheckCorrector(mac, max_errors=3)

    def test_single_only_mode_rejects_doubles(self, mac, rng):
        corrector = FlipAndCheckCorrector(mac, max_errors=1)
        data = random_block(rng)
        tag = mac.tag(data, 0, 0)
        result = corrector.correct_accelerated(
            _flip(data, [10, 20]), 0, 0, tag
        )
        assert not result.corrected


class TestDispatch:
    def test_correct_dispatches(self, corrector, mac, rng):
        data = random_block(rng)
        tag = mac.tag(data, 0, 0)
        corrupted = _flip(data, [7])
        fast = corrector.correct(corrupted, 0, 0, tag)
        assert fast.method is CorrectionMethod.ACCELERATED
        brute = corrector.correct(
            corrupted, 0, 0, tag, method=CorrectionMethod.BRUTE_FORCE
        )
        assert brute.method is CorrectionMethod.BRUTE_FORCE
        assert brute.data == fast.data

    def test_wrong_length_rejected(self, corrector):
        with pytest.raises(ValueError):
            corrector.correct_accelerated(b"x" * 63, 0, 0, 0)

    def test_no_error_still_searches_honestly(self, corrector, mac, rng):
        """If the stored MAC itself was forged (not a bit flip), the
        search must fail rather than 'correct' into something."""
        data = random_block(rng)
        bogus_tag = mac.tag(data, 0, 0) ^ 0xABCDEF  # not a 1/2-bit delta
        result = corrector.correct_accelerated(data, 0, 0, bogus_tag)
        # Overwhelmingly likely to fail; a syndrome collision would be
        # rejected by the confirming MAC evaluation anyway.
        assert not result.corrected


class TestParityHint:
    """The parity-hint extension: the scrub bit halves the search."""

    def test_single_bit_skips_nothing_but_pairs(self, corrector, mac, rng):
        from repro.ecc.parity import parity_of_bytes

        data = random_block(rng)
        tag = mac.tag(data, 0x40, 9)
        parity = parity_of_bytes(data)
        corrupted = _flip(data, [200])
        result = corrector.correct_with_parity_hint(
            corrupted, 0x40, 9, tag, parity
        )
        assert result.corrected and result.data == data
        assert result.checks == 201  # position + 1, like plain brute force

    def test_double_bit_skips_all_singles(self, corrector, mac, rng):
        from repro.ecc.parity import parity_of_bytes

        data = random_block(rng)
        tag = mac.tag(data, 0x40, 9)
        parity = parity_of_bytes(data)
        pair = (0, 5)  # very early pair
        result = corrector.correct_with_parity_hint(
            _flip(data, pair), 0x40, 9, tag, parity
        )
        assert result.corrected and result.data == data
        assert tuple(sorted(result.flipped_bits)) == pair
        # Plain brute force would burn 512 single checks first.
        plain = corrector.correct_brute_force(
            _flip(data, pair), 0x40, 9, tag
        )
        assert result.checks == plain.checks - 512

    def test_agrees_with_unhinted(self, corrector, mac, rng):
        from repro.ecc.parity import parity_of_bytes

        data = random_block(rng)
        tag = mac.tag(data, 0x40, 9)
        parity = parity_of_bytes(data)
        for positions in ([17], [9, 100]):
            corrupted = _flip(data, positions)
            hinted = corrector.correct_with_parity_hint(
                corrupted, 0x40, 9, tag, parity
            )
            unhinted = corrector.correct_accelerated(
                corrupted, 0x40, 9, tag
            )
            assert hinted.corrected == unhinted.corrected
            assert hinted.data == unhinted.data
            assert hinted.checks >= unhinted.checks  # accel still wins

    def test_triple_fails(self, corrector, mac, rng):
        from repro.ecc.parity import parity_of_bytes

        data = random_block(rng)
        tag = mac.tag(data, 0x40, 9)
        result = corrector.correct_with_parity_hint(
            _flip(data, [1, 2, 3]), 0x40, 9, tag, parity_of_bytes(data)
        )
        assert not result.corrected
