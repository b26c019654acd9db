"""Fault-pattern matrix: conventional SEC-DED vs MAC-based ECC (Figure 3).

The paper's Figure 3 compares how the two schemes fare under different
numbers and placements of bit flips.  This module reproduces the
comparison *empirically*: it injects each fault pattern into real encoded
blocks and reports what each scheme actually does, rather than quoting
the expected outcomes.

Outcomes:

* ``CORRECTED``     -- the scheme returned the original data
* ``DETECTED``      -- flagged uncorrectable, data not silently wrong
* ``MISCORRECTED``  -- the scheme "fixed" the block into *wrong* data
  without flagging (SEC-DED's >2-flips-per-word failure mode)
* ``UNDETECTED``    -- wrong data passed the check silently

Scenario expectations (what Figure 3 illustrates):

====================================  ==============  ===================
fault pattern                         SEC-DED          MAC-based ECC
====================================  ==============  ===================
1 flip in one word                    corrected        corrected
2 flips in one word                   detected only    corrected
2 flips in different words            corrected        corrected
up to 16 flips, <=2 per word          detected         detected
3 flips in one word                   *miscorrect*     detected
1 flip in stored MAC/ECC bits         corrected        corrected
====================================  ==============  ===================
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field

from repro.core.ecc_mac.correction import FlipAndCheckCorrector
from repro.core.ecc_mac.detection import CheckOutcome, check_block
from repro.core.ecc_mac.layout import MacEccCodec
from repro.crypto.mac import CarterWegmanMac
from repro.ecc.secded import BlockSecDed
from repro.lint.contracts import BLOCK_BITS, BLOCK_BYTES

WORD_BITS = 64


class FaultOutcome(enum.Enum):
    CORRECTED = "corrected"
    DETECTED = "detected"
    MISCORRECTED = "miscorrected"
    UNDETECTED = "undetected"


@dataclass(frozen=True)
class FaultScenario:
    """A named fault pattern: a function drawing bit positions to flip.

    ``data_bits(rng)`` returns positions in the 512 data bits;
    ``ecc_bits(rng)`` returns positions in the 64 stored ECC bits.
    """

    name: str
    description: str
    data_bits: object = field(repr=False)
    ecc_bits: object = field(repr=False, default=None)

    def draw(self, rng: random.Random) -> tuple:
        data = tuple(self.data_bits(rng)) if self.data_bits else ()
        ecc = tuple(self.ecc_bits(rng)) if self.ecc_bits else ()
        return data, ecc


def _one_flip(rng):
    return [rng.randrange(BLOCK_BITS)]


def _two_flips_same_word(rng):
    word = rng.randrange(BLOCK_BITS // WORD_BITS)
    first, second = rng.sample(range(WORD_BITS), 2)
    return [word * WORD_BITS + first, word * WORD_BITS + second]


def _two_flips_different_words(rng):
    word_a, word_b = rng.sample(range(BLOCK_BITS // WORD_BITS), 2)
    return [
        word_a * WORD_BITS + rng.randrange(WORD_BITS),
        word_b * WORD_BITS + rng.randrange(WORD_BITS),
    ]


def _sixteen_flips_spread(rng):
    # Two flips in every one of the 8 words: SEC-DED detects all (2/word
    # is its detection limit); MAC detects but cannot correct (>2 total).
    positions = []
    for word in range(8):
        for bit in rng.sample(range(WORD_BITS), 2):
            positions.append(word * WORD_BITS + bit)
    return positions


def _three_flips_same_word(rng):
    word = rng.randrange(BLOCK_BITS // WORD_BITS)
    return [word * WORD_BITS + b for b in rng.sample(range(WORD_BITS), 3)]


def _one_ecc_flip(rng):
    # Flip inside the 56 stored MAC bits (the Hamming-protected field).
    return [rng.randrange(56)]


def figure3_scenarios() -> list:
    """The fault patterns of Figure 3."""
    return [
        FaultScenario(
            "single-bit",
            "1 flip in one 8-byte word",
            _one_flip,
        ),
        FaultScenario(
            "double-bit-same-word",
            "2 flips inside one 8-byte word",
            _two_flips_same_word,
        ),
        FaultScenario(
            "double-bit-two-words",
            "2 flips in different 8-byte words",
            _two_flips_different_words,
        ),
        FaultScenario(
            "sixteen-bit-spread",
            "16 flips, exactly 2 per 8-byte word",
            _sixteen_flips_spread,
        ),
        FaultScenario(
            "triple-bit-same-word",
            "3 flips inside one 8-byte word",
            _three_flips_same_word,
        ),
        FaultScenario(
            "mac-bit-flip",
            "1 flip in the stored MAC/ECC field",
            None,
            _one_ecc_flip,
        ),
    ]


@dataclass
class FaultMatrix:
    """Outcome counts: scenario -> scheme -> FaultOutcome -> count."""

    trials: int
    results: dict = field(default_factory=dict)

    def record(self, scenario: str, scheme: str, outcome: FaultOutcome):
        per_scheme = self.results.setdefault(scenario, {})
        per_outcome = per_scheme.setdefault(scheme, {})
        per_outcome[outcome] = per_outcome.get(outcome, 0) + 1

    def dominant(self, scenario: str, scheme: str) -> FaultOutcome:
        """Most frequent outcome for a (scenario, scheme) pair."""
        counts = self.results[scenario][scheme]
        return max(counts, key=counts.get)


def _flip_bits(data: bytes, positions) -> bytes:
    out = bytearray(data)
    for position in positions:
        out[position >> 3] ^= 1 << (position & 7)
    return bytes(out)


def _run_secded(secded: BlockSecDed, data: bytes, data_flips,
                ecc_flips) -> FaultOutcome:
    checks = secded.encode_block(data)
    corrupted = _flip_bits(data, data_flips)
    corrupted_checks = _flip_bits(checks, ecc_flips)
    result = secded.decode_block(corrupted, corrupted_checks)
    if result.detected:
        return FaultOutcome.DETECTED
    if result.data == data:
        return FaultOutcome.CORRECTED
    if result.corrected_bits:
        return FaultOutcome.MISCORRECTED
    return FaultOutcome.UNDETECTED


def _run_mac_ecc(codec: MacEccCodec, corrector: FlipAndCheckCorrector,
                 data: bytes, address: int, counter: int, data_flips,
                 ecc_flips) -> FaultOutcome:
    clean_field = codec.build(data, address, counter)
    corrupted = _flip_bits(data, data_flips)
    field = clean_field
    for position in ecc_flips:
        field = field.flip_bit(position)
    result = check_block(codec, corrupted, field, address, counter)
    if result.outcome is CheckOutcome.MAC_UNCORRECTABLE:
        return FaultOutcome.DETECTED
    if result.ok:
        if corrupted == data:
            return FaultOutcome.CORRECTED
        return FaultOutcome.UNDETECTED  # MAC collision (2^-56)
    correction = corrector.correct(
        corrupted, address, counter, result.recovered_mac
    )
    if not correction.corrected:
        return FaultOutcome.DETECTED
    if correction.data == data:
        return FaultOutcome.CORRECTED
    return FaultOutcome.MISCORRECTED


def run_fault_matrix(
    trials: int = 20,
    seed: int = 7,
    scenarios: list | None = None,
) -> FaultMatrix:
    """Inject each scenario ``trials`` times into both schemes."""
    rng = random.Random(seed)
    secded = BlockSecDed()
    mac = CarterWegmanMac(bytes(range(24)), mode="splitmix")
    codec = MacEccCodec(mac)
    corrector = FlipAndCheckCorrector(mac)
    matrix = FaultMatrix(trials=trials)
    for scenario in scenarios or figure3_scenarios():
        for trial in range(trials):
            data = bytes(rng.randrange(256) for _ in range(BLOCK_BYTES))
            address = rng.randrange(1 << 20) * BLOCK_BYTES
            counter = rng.randrange(1 << 20)
            data_flips, ecc_flips = scenario.draw(rng)
            matrix.record(
                scenario.name,
                "secded",
                _run_secded(secded, data, data_flips, ecc_flips),
            )
            matrix.record(
                scenario.name,
                "mac_ecc",
                _run_mac_ecc(
                    codec, corrector, data, address, counter,
                    data_flips, ecc_flips,
                ),
            )
    return matrix


__all__ = [
    "FaultOutcome",
    "FaultScenario",
    "FaultMatrix",
    "figure3_scenarios",
    "run_fault_matrix",
]
