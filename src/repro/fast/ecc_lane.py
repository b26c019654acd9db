"""The MAC-in-ECC lane's check byte, computed for a whole batch at once.

Per block the ECC lane stores the MAC, its SEC-DED check bits and one
even-parity bit over the ciphertext (Figure 2).  The bits above the MAC
-- the *check byte*, ``check | parity << PARITY_SHIFT`` -- depend only
on the tag and the ciphertext, and both parts are GF(2)-linear:

* SEC-DED encoding is linear, so a tag's check bits are the XOR of the
  check bits of its set bits.  Grouping the single-bit columns by tag
  byte gives one 256-entry table per byte; a batch's check bits are one
  lookup per tag byte, XOR-ed together.
* The parity bit is the parity of the XOR of the ciphertext's bytes,
  read from a 256-entry popcount table.

The lookup table is built once per process, at import, from one scalar
:meth:`HammingSecDed.encode` call per MAC bit (about a millisecond).
"""

from __future__ import annotations

import numpy as np

from repro.ecc.hamming import HammingSecDed
from repro.lint.contracts import (
    CT_PARITY_SHIFT,
    HAMMING_BITS,
    MAC_BITS,
    MAC_CHECK_SHIFT,
)

#: position of the ciphertext parity bit inside the check byte
PARITY_SHIFT = CT_PARITY_SHIFT - MAC_CHECK_SHIFT
#: the SEC-DED check bits inside the check byte
CHECK_MASK = (1 << HAMMING_BITS) - 1

_BYTE_VALUES = 1 << 8
_TAG_BYTES = -(-MAC_BITS // 8)
_ROWS = np.arange(_TAG_BYTES)
#: parity bit of every byte value
_BYTE_PARITY = np.array(
    [bin(value).count("1") & 1 for value in range(_BYTE_VALUES)],
    dtype=np.uint8,
)


def _check_table() -> np.ndarray:
    """``table[j, v]``: the check bits of a tag whose byte ``j`` is ``v``
    and whose other bytes are zero."""
    hamming = HammingSecDed(MAC_BITS)
    columns = np.zeros(_TAG_BYTES * 8, dtype=np.uint8)
    columns[:MAC_BITS] = [hamming.encode(1 << bit) for bit in range(MAC_BITS)]
    bit_set = np.unpackbits(
        np.arange(_BYTE_VALUES, dtype=np.uint8)[:, None],
        axis=1,
        bitorder="little",
    ).astype(bool)  # (value, bit)
    return np.bitwise_xor.reduce(
        np.where(bit_set, columns.reshape(_TAG_BYTES, 1, 8), np.uint8(0)),
        axis=2,
    )


CHECK_TABLE = _check_table()


def check_bytes(tags: np.ndarray, ciphertexts: np.ndarray) -> np.ndarray:
    """Check byte for every (tag, ciphertext row) of a batch."""
    tag_bytes = (
        np.asarray(tags, dtype="<u8").view(np.uint8).reshape(-1, 8)
    )[:, :_TAG_BYTES]
    check = np.bitwise_xor.reduce(CHECK_TABLE[_ROWS, tag_bytes], axis=1)
    words = np.bitwise_xor.reduce(
        np.ascontiguousarray(ciphertexts, dtype=np.uint8).view("<u8"), axis=1
    )
    for shift in (32, 16, 8):
        words ^= words >> np.uint64(shift)
    parity = _BYTE_PARITY[(words & np.uint64(0xFF)).astype(np.intp)]
    return check | (parity << PARITY_SHIFT)


__all__ = ["CHECK_MASK", "CHECK_TABLE", "PARITY_SHIFT", "check_bytes"]
