"""Adversarial two-flip property: for every combination of one data-bit
flip and one ECC-field-bit flip, the detect/correct pipeline must end in
``corrected`` (back to the original plaintext bits) or ``detected`` --
never in silently serving wrong data.

This is the paper's core reliability claim (Section 3.3/3.4) pushed
through the worst case where the fault straddles both the ciphertext and
the ECC chips that protect it.
"""

import pytest

from repro.core.ecc_mac.correction import BLOCK_BITS, FlipAndCheckCorrector
from repro.core.ecc_mac.detection import CheckOutcome, check_block
from repro.core.ecc_mac.layout import ECC_FIELD_BITS, MacEccCodec
from repro.crypto.mac import CarterWegmanMac
from tests.conftest import random_block

ADDRESS = 0x1C0
COUNTER = 17


@pytest.fixture(scope="module")
def codec():
    key = bytes(range(24))
    return MacEccCodec(CarterWegmanMac(key, mode="splitmix"))


@pytest.fixture(scope="module")
def corrector(codec):
    return FlipAndCheckCorrector(codec.mac)


def _flip(data, positions):
    out = bytearray(data)
    for position in positions:
        out[position >> 3] ^= 1 << (position & 7)
    return bytes(out)


def classify(codec, corrector, original, ciphertext, field):
    """Run detection then (if needed) flip-and-check; name the outcome.

    ``corrected`` and ``detected`` are the only acceptable results;
    ``silent-wrong`` / ``miscorrected`` mean wrong data reached the CPU.
    """
    result = check_block(codec, ciphertext, field, ADDRESS, COUNTER)
    if result.outcome is CheckOutcome.MAC_UNCORRECTABLE:
        return "detected"
    if result.ok:
        return "corrected" if ciphertext == original else "silent-wrong"
    correction = corrector.correct_accelerated(
        ciphertext, ADDRESS, COUNTER, result.recovered_mac
    )
    if not correction.corrected:
        return "detected"
    return "corrected" if correction.data == original else "miscorrected"


class TestDataPlusEccFlip:
    def test_sampled_combinations_always_corrected(self, codec, corrector, rng):
        """One data bit + one ECC bit: the Hamming code fixes (or is
        indifferent to) the ECC-side flip, and flip-and-check fixes the
        data-side flip. A broad sample runs in the default suite; the
        exhaustive matrix is in the ``slow`` test below."""
        original = random_block(rng)
        field = codec.build(original, ADDRESS, COUNTER)
        for _ in range(250):
            data_bit = rng.randrange(BLOCK_BITS)
            ecc_bit = rng.randrange(ECC_FIELD_BITS)
            verdict = classify(
                codec,
                corrector,
                original,
                _flip(original, [data_bit]),
                field.flip_bit(ecc_bit),
            )
            assert verdict == "corrected", (data_bit, ecc_bit)

    @pytest.mark.slow
    def test_exhaustive_matrix_never_silently_wrong(self, codec, corrector, rng):
        """All 512 x 64 (data-bit, ECC-bit) combinations."""
        original = random_block(rng)
        field = codec.build(original, ADDRESS, COUNTER)
        for data_bit in range(BLOCK_BITS):
            corrupted = _flip(original, [data_bit])
            for ecc_bit in range(ECC_FIELD_BITS):
                verdict = classify(
                    codec, corrector, original, corrupted,
                    field.flip_bit(ecc_bit),
                )
                assert verdict == "corrected", (data_bit, ecc_bit)


class TestHeavierCombinations:
    def test_two_data_bits_plus_ecc_bit_corrected(self, codec, corrector, rng):
        """Two data flips stay inside the <=2-bit flip-and-check budget
        even with a simultaneous ECC-side flip."""
        original = random_block(rng)
        field = codec.build(original, ADDRESS, COUNTER)
        for _ in range(40):
            data_bits = rng.sample(range(BLOCK_BITS), 2)
            ecc_bit = rng.randrange(ECC_FIELD_BITS)
            verdict = classify(
                codec, corrector, original,
                _flip(original, data_bits), field.flip_bit(ecc_bit),
            )
            assert verdict == "corrected", (data_bits, ecc_bit)

    def test_three_data_bits_plus_ecc_bit_detected(self, codec, corrector, rng):
        """Three data flips exceed the correction budget: the only
        acceptable outcome is detection (a DUE), never wrong data."""
        original = random_block(rng)
        field = codec.build(original, ADDRESS, COUNTER)
        for _ in range(40):
            data_bits = rng.sample(range(BLOCK_BITS), 3)
            ecc_bit = rng.randrange(ECC_FIELD_BITS)
            verdict = classify(
                codec, corrector, original,
                _flip(original, data_bits), field.flip_bit(ecc_bit),
            )
            assert verdict == "detected", (data_bits, ecc_bit)

    def test_data_bit_plus_double_mac_flip_detected(self, codec, corrector, rng):
        """Two flips inside the SEC-DED-protected MAC bits make the MAC
        unrecoverable; detection must refuse rather than guess."""
        original = random_block(rng)
        field = codec.build(original, ADDRESS, COUNTER)
        for _ in range(40):
            data_bit = rng.randrange(BLOCK_BITS)
            # bits 0..62 are inside the SEC-DED codeword (MAC + check)
            mac_bits = rng.sample(range(63), 2)
            corrupted_field = field.flip_bit(mac_bits[0]).flip_bit(mac_bits[1])
            verdict = classify(
                codec, corrector, original,
                _flip(original, [data_bit]), corrupted_field,
            )
            assert verdict == "detected", (data_bit, mac_bits)
