"""Brute-force flip-and-check error correction (paper Section 3.4).

When the data MAC check fails but the counter is tree-verified, the
failure may be a DRAM fault rather than tampering.  MACs cannot point at
the flipped bit, so the paper corrects by brute force: flip each of the
512 ciphertext bits and re-check the MAC (<= 512 checks for single-bit
errors), then each of the C(512,2) = 130,816 pairs for double-bit errors.
The paper argues this is feasible because GF-multiplication MACs evaluate
in ~1 hardware cycle and DRAM faults are rare.

Two implementations are provided:

* :meth:`FlipAndCheckCorrector.correct_brute_force` -- the literal
  algorithm, counting every MAC evaluation (the cost model behind the
  paper's "512 / 130,816 checks" numbers, exercised by the ablation
  bench).
* :meth:`FlipAndCheckCorrector.correct_accelerated` -- exploits the
  GF(2)-linearity of the Carter-Wegman hash: flipping bit *i* shifts the
  tag by a precomputable syndrome s_i, so a single-bit error satisfies
  ``s_i == observed_delta`` (one table lookup) and a double-bit error
  satisfies ``s_i ^ s_j == observed_delta`` (meet-in-the-middle, O(512)
  lookups).  Candidates are confirmed with a real MAC check, so a 56-bit
  syndrome collision can never cause a silent miscorrection.  This is an
  *extension* beyond the paper (its "future work" of making correction
  cheap), and the test suite proves it equivalent to brute force.

If no <=2-bit flip explains the mismatch, the block is reported
uncorrectable -- the engine then treats it as tampering (raising an
integrity violation), exactly the conservative behaviour the paper's
threat model requires.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import combinations

from repro.crypto.mac import CarterWegmanMac
from repro.lint.contracts import BLOCK_BITS, BLOCK_BYTES


class CorrectionMethod(enum.Enum):
    BRUTE_FORCE = "brute_force"
    ACCELERATED = "accelerated"


@dataclass(frozen=True)
class CorrectionResult:
    """Outcome of a correction attempt.

    ``checks`` counts MAC evaluations (brute force) or syndrome lookups
    plus confirming MAC evaluations (accelerated) -- the quantity the
    paper's latency argument is about.
    """

    corrected: bool
    data: bytes | None
    flipped_bits: tuple[int, ...]
    checks: int
    method: CorrectionMethod

    @property
    def error_weight(self) -> int:
        return len(self.flipped_bits)


def _flip(data: bytes, positions: tuple[int, ...]) -> bytes:
    out = bytearray(data)
    for position in positions:
        out[position >> 3] ^= 1 << (position & 7)
    return bytes(out)


class FlipAndCheckCorrector:
    """Corrects single/double bit errors in a 64-byte ciphertext whose MAC
    failed, given the trusted (tree-verified) counter and recovered MAC."""

    def __init__(self, mac: CarterWegmanMac, max_errors: int = 2) -> None:
        if max_errors not in (1, 2):
            raise ValueError(
                "flip-and-check supports max_errors of 1 or 2; beyond "
                "double errors the paper's own latency analysis rules it out"
            )
        self.mac = mac
        self.max_errors = max_errors
        # lazily built, depend only on the key
        self._syndromes: list[int] | None = None
        self._syndrome_index: dict[int, list[int]] | None = None

    # -- the literal paper algorithm ------------------------------------------

    def correct_brute_force(
        self, ciphertext: bytes, address: int, counter: int, stored_mac: int
    ) -> CorrectionResult:
        """Flip bits one (then two) at a time, re-checking the MAC."""
        self._validate(ciphertext)
        checks = 0
        for position in range(BLOCK_BITS):
            candidate = _flip(ciphertext, (position,))
            checks += 1
            if self.mac.tag(candidate, address, counter) == stored_mac:
                return CorrectionResult(
                    True, candidate, (position,), checks,
                    CorrectionMethod.BRUTE_FORCE,
                )
        if self.max_errors >= 2:
            for pair in combinations(range(BLOCK_BITS), 2):
                candidate = _flip(ciphertext, pair)
                checks += 1
                if self.mac.tag(candidate, address, counter) == stored_mac:
                    return CorrectionResult(
                        True, candidate, pair, checks,
                        CorrectionMethod.BRUTE_FORCE,
                    )
        return CorrectionResult(
            False, None, (), checks, CorrectionMethod.BRUTE_FORCE
        )

    # -- linearity-accelerated variant ------------------------------------------

    def _ensure_syndromes(self) -> None:
        if self._syndromes is None:
            self._syndromes = self.mac.single_bit_syndromes(BLOCK_BYTES)
            index: dict[int, list[int]] = {}
            for position, syndrome in enumerate(self._syndromes):
                index.setdefault(syndrome, []).append(position)
            self._syndrome_index = index

    def correct_accelerated(
        self, ciphertext: bytes, address: int, counter: int, stored_mac: int
    ) -> CorrectionResult:
        """Syndrome-decode using MAC linearity; confirm with real checks."""
        self._validate(ciphertext)
        self._ensure_syndromes()
        assert self._syndromes is not None
        assert self._syndrome_index is not None
        delta = self.mac.tag(ciphertext, address, counter) ^ stored_mac
        checks = 0

        # Single-bit candidates: syndrome == delta.
        for position in self._syndrome_index.get(delta, ()):
            candidate = _flip(ciphertext, (position,))
            checks += 1
            if self.mac.tag(candidate, address, counter) == stored_mac:
                return CorrectionResult(
                    True, candidate, (position,), checks,
                    CorrectionMethod.ACCELERATED,
                )

        if self.max_errors >= 2:
            # Double-bit: s_i ^ s_j == delta -> look up delta ^ s_i.
            for i in range(BLOCK_BITS):
                partner = delta ^ self._syndromes[i]
                for j in self._syndrome_index.get(partner, ()):
                    if j <= i:
                        continue
                    candidate = _flip(ciphertext, (i, j))
                    checks += 1
                    if self.mac.tag(candidate, address, counter) == stored_mac:
                        return CorrectionResult(
                            True, candidate, (i, j), checks,
                            CorrectionMethod.ACCELERATED,
                        )
        return CorrectionResult(
            False, None, (), checks, CorrectionMethod.ACCELERATED
        )

    def correct(
        self,
        ciphertext: bytes,
        address: int,
        counter: int,
        stored_mac: int,
        method: CorrectionMethod = CorrectionMethod.ACCELERATED,
    ) -> CorrectionResult:
        """Dispatch to the requested correction algorithm."""
        if method is CorrectionMethod.BRUTE_FORCE:
            return self.correct_brute_force(
                ciphertext, address, counter, stored_mac
            )
        return self.correct_accelerated(
            ciphertext, address, counter, stored_mac
        )

    # -- parity-hint extension ---------------------------------------------

    def correct_with_parity_hint(
        self,
        ciphertext: bytes,
        address: int,
        counter: int,
        stored_mac: int,
        stored_ct_parity: int,
    ) -> CorrectionResult:
        """Brute force guided by the layout's ciphertext parity bit.

        The spare bit the paper dedicates to scrubbing (Section 3.3) also
        tells the corrector the *parity of the error weight*: a parity
        mismatch means an odd number of flips (search singles first and
        skip pairs); a match means an even number (skip the 512 single
        checks and go straight to pairs).  This halves-or-better the
        brute-force work at zero hardware cost -- an extension beyond the
        paper, validated against the unhinted algorithms in the tests.

        (Assumes the parity bit itself is intact; a flipped parity bit
        plus a double error would mislead the hint, which is why the
        result is still confirmed by real MAC checks and a failed hinted
        search can fall back to the full search.)
        """
        self._validate(ciphertext)
        from repro.ecc.parity import parity_of_bytes

        parity_mismatch = parity_of_bytes(ciphertext) != (
            stored_ct_parity & 1
        )
        checks = 0
        if parity_mismatch:
            # Odd error weight: singles only (within the <=2 budget).
            for position in range(BLOCK_BITS):
                candidate = _flip(ciphertext, (position,))
                checks += 1
                if self.mac.tag(candidate, address, counter) == stored_mac:
                    return CorrectionResult(
                        True, candidate, (position,), checks,
                        CorrectionMethod.BRUTE_FORCE,
                    )
            return CorrectionResult(
                False, None, (), checks, CorrectionMethod.BRUTE_FORCE
            )
        # Even error weight: pairs only.
        if self.max_errors >= 2:
            for pair in combinations(range(BLOCK_BITS), 2):
                candidate = _flip(ciphertext, pair)
                checks += 1
                if self.mac.tag(candidate, address, counter) == stored_mac:
                    return CorrectionResult(
                        True, candidate, pair, checks,
                        CorrectionMethod.BRUTE_FORCE,
                    )
        return CorrectionResult(
            False, None, (), checks, CorrectionMethod.BRUTE_FORCE
        )

    @staticmethod
    def _validate(ciphertext: bytes) -> None:
        if len(ciphertext) != BLOCK_BYTES:
            raise ValueError(f"ciphertext must be {BLOCK_BYTES} bytes")

    # -- cost model -----------------------------------------------------------

    @staticmethod
    def worst_case_checks(max_errors: int) -> int:
        """The paper's Section 3.4 cost bound for brute force."""
        if max_errors == 1:
            return BLOCK_BITS
        if max_errors == 2:
            return BLOCK_BITS + BLOCK_BITS * (BLOCK_BITS - 1) // 2
        raise ValueError("cost model defined for 1 or 2 errors")


__all__ = [
    "FlipAndCheckCorrector",
    "CorrectionResult",
    "CorrectionMethod",
    "BLOCK_BITS",
]
