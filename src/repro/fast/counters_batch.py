"""Array view of the delta-counter layout (Figures 2/6).

:class:`~repro.core.counters.layout.DeltaLayout` is the one description
of a group's bits and carries the scalar codec (``BitWriter`` /
``BitReader``: LSB-first fields in a little-endian byte stream, which is
exactly numpy's ``bitorder="little"`` convention).  :func:`pack` and
:func:`unpack` are the same codec over arrays: every field of the group
-- reference, deltas and, with an extension, the extension fields,
widened index and valid flag -- becomes one vector of field values, and
one gather / ``packbits`` (or ``unpackbits`` / ``add.reduceat``) moves
all of its bits at once.

Each field gets one array-level range check, so out-of-range inputs
raise the ``ValueError`` the scalar codec would.  Field values travel as
int64, which holds the contracted 56-bit reference.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

import numpy as np

from repro.core.counters.layout import DeltaLayout
from repro.lint.contracts import DELTA_GROUPS, WIDEN_INDEX_BITS, WIDEN_VALID_BITS


@lru_cache(maxsize=None)
def _plan(layout: DeltaLayout) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per stream bit: its field and bit position; plus field starts."""
    widths = [layout.reference_bits] + [layout.delta_bits] * layout.slots
    if layout.extension_bits:
        widths += [layout.extension_bits] * layout.deltas_per_delta_group
        widths += [WIDEN_INDEX_BITS, WIDEN_VALID_BITS]
    field = np.repeat(np.arange(len(widths)), widths)
    starts = np.cumsum([0] + widths[:-1])
    bit = (np.arange(layout.bits_per_group) - starts[field]).astype(np.int64)
    for shared in (field, bit, starts):  # cached: every caller sees these
        shared.flags.writeable = False
    return field, bit, starts


def _check_range(values: np.ndarray, width: int, name: str) -> None:
    if values.size and (values.min() < 0 or values.max() >= 1 << width):
        raise ValueError(f"{name} does not fit in {width} bits")


def pack(
    layout: DeltaLayout,
    reference: int,
    deltas: Sequence[int],
    widened: int | None = None,
) -> bytes:
    """Serialize one group exactly as ``layout.pack``."""
    if not 0 <= reference < 1 << layout.reference_bits:
        raise ValueError(
            f"reference does not fit in {layout.reference_bits} bits"
        )
    low = np.array(deltas, dtype=np.int64)
    if low.shape != (layout.slots,):
        raise ValueError(f"expected {layout.slots} deltas, got {len(low)}")
    fields = [np.array([reference], dtype=np.int64), low]
    if layout.extension_bits:
        per = layout.deltas_per_delta_group
        extension = np.zeros(per, dtype=np.int64)
        index = valid = 0
        if widened is not None:
            if not 0 <= widened < DELTA_GROUPS:
                raise ValueError(f"widened delta-group {widened} out of range")
            span = slice(widened * per, (widened + 1) * per)
            extension = low[span] >> layout.delta_bits
            low[span] &= (1 << layout.delta_bits) - 1
            index, valid = widened, 1
        _check_range(extension, layout.extension_bits, "extension")
        fields += [extension, np.array([index, valid], dtype=np.int64)]
    _check_range(low, layout.delta_bits, "delta")
    field, bit, _ = _plan(layout)
    bits = (np.concatenate(fields)[field] >> bit) & 1
    packed = np.packbits(bits.astype(np.uint8), bitorder="little").tobytes()
    return packed.ljust(layout.padded_bytes, b"\0")


def unpack(
    layout: DeltaLayout, data: bytes
) -> tuple[int, list[int], int | None]:
    """Decode one group exactly as ``layout.unpack``."""
    if len(data) * 8 < layout.bits_per_group:
        raise ValueError("read past end of bit stream")
    field, bit, starts = _plan(layout)
    bits = np.unpackbits(np.frombuffer(data, dtype=np.uint8), bitorder="little")
    weighted = bits[: layout.bits_per_group].astype(np.int64) << bit
    values = np.add.reduceat(weighted, starts)
    deltas = values[1 : 1 + layout.slots]
    widened = None
    if layout.extension_bits and values[-1]:
        per = layout.deltas_per_delta_group
        widened = int(values[-2])
        extension = values[1 + layout.slots : 1 + layout.slots + per]
        deltas[widened * per : (widened + 1) * per] |= (
            extension << layout.delta_bits
        )
    return int(values[0]), deltas.tolist(), widened


__all__ = ["pack", "unpack"]
