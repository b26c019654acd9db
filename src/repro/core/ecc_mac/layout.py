"""The 64-bit ECC field layout of Figure 2.

Per 64-byte ciphertext block the ECC chips store:

=======  =====  ==========================================================
bits     width  contents
=======  =====  ==========================================================
0..55    56     Carter-Wegman MAC over the ciphertext (keyed, nonce-bound)
56..62   7      Hamming SEC-DED check bits over the 56 MAC bits
63       1      even-parity bit over the ciphertext (scrubbing aid)
=======  =====  ==========================================================

The 7 check bits let the controller correct a single flip *in the MAC
itself* and detect doubles without touching the integrity tree
(Section 3.3, "Corrupted MACs"); the parity bit lets a scrubber sweep for
single-bit data upsets without recomputing MACs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.mac import CarterWegmanMac, MAC_BITS, MAC_MASK
from repro.ecc.hamming import HammingResult, HammingSecDed
from repro.ecc.parity import parity_of_bytes

# The field geometry is the RL001 contract table's ECC_FIELD_LAYOUT: one
# source of truth shared by this codec and the checker that guards it.
from repro.lint.contracts import (
    CT_PARITY_SHIFT as _CT_PARITY_SHIFT,
    ECC_FIELD_BITS,
    ECC_FIELD_BYTES,
    HAMMING_BITS as _MAC_CHECK_BITS,
    MAC_CHECK_SHIFT as _MAC_CHECK_SHIFT,
)


@dataclass(frozen=True)
class EccField:
    """Decoded view of one block's 64 ECC bits."""

    mac: int  # 56-bit MAC tag
    mac_check: int  # 7-bit Hamming SEC-DED over the MAC
    ct_parity: int  # 1 parity bit over the ciphertext

    def __post_init__(self):
        if not 0 <= self.mac <= MAC_MASK:
            raise ValueError("mac must be a 56-bit value")
        if not 0 <= self.mac_check < (1 << _MAC_CHECK_BITS):
            raise ValueError("mac_check must be a 7-bit value")
        if self.ct_parity not in (0, 1):
            raise ValueError("ct_parity must be 0 or 1")

    @property
    def word(self) -> int:
        """The 64-bit lane word: ``mac | check << 56 | parity << 63``."""
        return (
            self.mac
            | (self.mac_check << _MAC_CHECK_SHIFT)
            | (self.ct_parity << _CT_PARITY_SHIFT)
        )

    @classmethod
    def from_word(cls, word: int) -> "EccField":
        """Decode one 64-bit lane word."""
        return cls(
            mac=word & MAC_MASK,
            mac_check=(word >> _MAC_CHECK_SHIFT) & ((1 << _MAC_CHECK_BITS) - 1),
            ct_parity=(word >> _CT_PARITY_SHIFT) & 1,
        )

    def pack(self) -> bytes:
        """Serialize to the 8 bytes the ECC chips store."""
        return self.word.to_bytes(ECC_FIELD_BYTES, "little")

    @classmethod
    def unpack(cls, raw: bytes) -> "EccField":
        """Parse the 8 stored ECC bytes."""
        if len(raw) != ECC_FIELD_BYTES:
            raise ValueError(f"ECC field must be {ECC_FIELD_BYTES} bytes")
        return cls.from_word(int.from_bytes(raw, "little"))

    def flip_bit(self, position: int) -> "EccField":
        """Return a copy with one of the 64 stored bits flipped (for fault
        injection)."""
        if not 0 <= position < ECC_FIELD_BITS:
            raise ValueError("position must be within the 64-bit field")
        return EccField.from_word(self.word ^ (1 << position))


class MacEccCodec:
    """Build and self-check ECC fields for ciphertext blocks.

    Owns the MAC key and the 56-bit Hamming codec; the higher-level
    detection/correction flows compose this with the tree-verified counter.
    """

    def __init__(self, mac: CarterWegmanMac):
        self.mac = mac
        self.mac_hamming = HammingSecDed(MAC_BITS)
        assert self.mac_hamming.check_bits == _MAC_CHECK_BITS

    def build(self, ciphertext: bytes, address: int, counter: int) -> EccField:
        """Compute the full ECC field stored alongside a ciphertext."""
        tag = self.mac.tag(ciphertext, address, counter)
        return EccField(
            mac=tag,
            mac_check=self.mac_hamming.encode(tag),
            ct_parity=parity_of_bytes(ciphertext),
        )

    def recover_mac(self, field: EccField) -> HammingResult:
        """Self-correct the stored MAC using its 7 Hamming bits.

        Returns the Hamming decode result: the (possibly corrected) MAC and
        whether the MAC bits were clean / corrected / uncorrectable.
        """
        return self.mac_hamming.decode(field.mac, field.mac_check)


__all__ = ["EccField", "MacEccCodec", "ECC_FIELD_BITS", "ECC_FIELD_BYTES"]
