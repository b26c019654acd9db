"""Array view of the delta-counter layout (Figures 2/6), many groups at once.

:class:`~repro.core.counters.layout.DeltaLayout` is the one description
of a group's bits and carries the scalar codec (``BitWriter`` /
``BitReader``: LSB-first fields in a little-endian byte stream).  In that
order, stream bit ``k`` is bit ``k % 64`` of little-endian 64-bit word
``k // 64``, so :func:`pack` and :func:`unpack` move whole fields with
uint64 shifts and ORs over a ``(G, fields)`` matrix -- one row per
group, one column per field (reference, deltas and, with an extension,
the extension fields, widened index and valid flag).  A field that
crosses a word boundary contributes a low part to its first word and a
high part to the next.  No intermediate holds one value per bit.

Each field gets one range check over the whole batch, so out-of-range
inputs raise the ``ValueError`` the scalar codec would.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from repro.core.counters.layout import DeltaLayout
from repro.lint.contracts import DELTA_GROUPS, WIDEN_INDEX_BITS, WIDEN_VALID_BITS

_WORD_BITS = 64

#: one group as ``DeltaLayout.pack`` takes it: (reference, deltas, widened)
GroupFields = tuple[int, Sequence[int], int | None]


class _Plan(NamedTuple):
    """Where each field's bits sit in a group's 64-bit words."""

    word: np.ndarray  # per field: the word holding its low bits
    offset: np.ndarray  # per field: its start bit within that word
    mask: np.ndarray  # per field: its width as a mask
    start_words: np.ndarray  # the words where some field starts ...
    first_field: np.ndarray  # ... and the first field starting in each
    spill: np.ndarray  # the fields crossing into the next word ...
    high_shift: np.ndarray  # ... and the shift aligning their high parts


@lru_cache(maxsize=None)
def _plan(layout: DeltaLayout) -> _Plan:
    widths = [layout.reference_bits] + [layout.delta_bits] * layout.slots
    if layout.extension_bits:
        widths += [layout.extension_bits] * layout.deltas_per_delta_group
        widths += [WIDEN_INDEX_BITS, WIDEN_VALID_BITS]
    if max(widths) >= _WORD_BITS:  # field values travel as int64
        raise ValueError(f"fields must be narrower than {_WORD_BITS} bits")
    start = np.cumsum([0] + widths[:-1])
    word = start // _WORD_BITS
    offset = start % _WORD_BITS
    spill = np.flatnonzero(offset + widths > _WORD_BITS)
    first_field = np.flatnonzero(np.diff(word, prepend=-1))  # word ascends
    plan = _Plan(
        word=word,
        offset=offset.astype(np.uint64),
        mask=np.array([(1 << w) - 1 for w in widths], dtype=np.uint64),
        start_words=word[first_field],
        first_field=first_field,
        spill=spill,
        high_shift=(_WORD_BITS - offset[spill]).astype(np.uint64),
    )
    for array in plan:  # cached: every caller sees these
        array.flags.writeable = False
    return plan


def _check_range(values: np.ndarray, width: int, name: str) -> None:
    if values.size and (values.min() < 0 or values.max() >= 1 << width):
        raise ValueError(f"{name} does not fit in {width} bits")


def _widened_columns(
    layout: DeltaLayout, widened: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(rows, columns) of the deltas in each row's widened delta-group."""
    per = layout.deltas_per_delta_group
    rows = np.flatnonzero(widened >= 0)
    columns = widened[rows, None] * per + np.arange(per)
    return rows[:, None], columns


def pack(layout: DeltaLayout, groups: Sequence[GroupFields]) -> list[bytes]:
    """Serialize each group exactly as ``layout.pack(*fields)``."""
    if not groups:
        return []
    plan = _plan(layout)
    count, slots = len(groups), layout.slots
    values = np.zeros((count, len(plan.word)), dtype=np.int64)
    values[:, 0] = [g[0] for g in groups]
    _check_range(values[:, 0], layout.reference_bits, "reference")
    low = values[:, 1 : 1 + slots]
    low[:] = [g[1] for g in groups]
    if layout.extension_bits:
        widened = np.array(
            [-1 if g[2] is None else g[2] for g in groups], dtype=np.int64
        )
        bad = (widened < -1) | (widened >= DELTA_GROUPS)
        if bad.any():
            raise ValueError(
                f"widened delta-group {widened[bad][0]} out of range"
            )
        rows, span = _widened_columns(layout, widened)
        extension = values[:, 1 + slots : -2]
        extension[rows[:, 0]] = low[rows, span] >> layout.delta_bits
        low[rows, span] &= (1 << layout.delta_bits) - 1
        _check_range(extension, layout.extension_bits, "extension")
        values[:, -2] = np.maximum(widened, 0)
        values[:, -1] = widened >= 0
    _check_range(low, layout.delta_bits, "delta")
    fields = values.view(np.uint64)  # every field is in range, so >= 0
    words = np.zeros((count, layout.padded_bytes * 8 // _WORD_BITS), np.uint64)
    words[:, plan.start_words] = np.bitwise_or.reduceat(
        fields << plan.offset, plan.first_field, axis=1
    )
    words[:, plan.word[plan.spill] + 1] |= fields[:, plan.spill] >> plan.high_shift
    raw = words.astype("<u8", copy=False).tobytes()
    size = layout.padded_bytes
    return [raw[i * size : (i + 1) * size] for i in range(count)]


def unpack(
    layout: DeltaLayout, datas: Sequence[bytes]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decode each group exactly as ``layout.unpack``.

    Returns ``(references, deltas, widened)``: shapes ``(G,)``,
    ``(G, slots)`` with the extension bits folded into the widened
    deltas, and ``(G,)`` holding -1 where no delta-group is widened.
    """
    size = layout.padded_bytes
    if any(len(data) * 8 < layout.bits_per_group for data in datas):
        raise ValueError("read past end of bit stream")
    raw = b"".join(
        data if len(data) == size else data[:size].ljust(size, b"\0")
        for data in datas
    )
    words = np.frombuffer(raw, dtype="<u8").reshape(len(datas), size // 8)
    plan = _plan(layout)
    fields = words[:, plan.word]
    fields >>= plan.offset
    fields[:, plan.spill] |= words[:, plan.word[plan.spill] + 1] << plan.high_shift
    fields &= plan.mask
    values = fields.view(np.int64)  # fields are at most 63 bits wide
    deltas = values[:, 1 : 1 + layout.slots]
    widened = np.full(len(datas), -1, dtype=np.int64)
    if layout.extension_bits:
        valid = values[:, -1] == 1
        widened[valid] = values[valid, -2]
        rows, span = _widened_columns(layout, widened)
        extension = values[:, 1 + layout.slots : -2]
        deltas[rows, span] |= extension[rows[:, 0]] << layout.delta_bits
    return values[:, 0], deltas, widened


__all__ = ["GroupFields", "pack", "unpack"]
