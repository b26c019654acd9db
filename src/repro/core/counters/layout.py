"""The delta-counter metadata layout (paper Figures 2 and 6), in one place.

A block-group's counters serialize as LSB-first fields in a little-endian
byte stream (``BitWriter``/``BitReader`` order)::

    reference | slots x delta | [extensions | widened index | valid]

The bracketed tail exists only when ``extension_bits > 0``: the Figure 6
dual-length layout, whose spare bits widen every delta of one of the
contracted ``DELTA_GROUPS`` delta-groups.  With ``extension_bits == 0``
it is the single-width Figure 2 layout (56 + 64 x 7 bits).

:class:`DeltaLayout` owns every field offset and the scalar codec.  Both
delta schemes serialize through it, :mod:`repro.fast.counters_batch` is
the array view of the same geometry, and the Figure 7 units in
:mod:`repro.core.engine.units` read their offsets from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.lint.contracts import (
    DELTA_GROUPS,
    METADATA_BLOCK_BITS,
    WIDEN_INDEX_BITS,
    WIDEN_VALID_BITS,
)
from repro.util.bits import BitReader, BitWriter


@dataclass(frozen=True)
class DeltaLayout:
    """Field geometry of one delta-encoded counter group.

    ``extension_bits`` is the widening per delta of the extended
    delta-group; 0 means the single-width layout.
    """

    reference_bits: int
    delta_bits: int
    slots: int
    extension_bits: int

    def __post_init__(self) -> None:
        if (
            self.reference_bits <= 0
            or self.delta_bits <= 0
            or self.extension_bits < 0
        ):
            raise ValueError("field widths must be positive")
        if self.extension_bits and self.slots % DELTA_GROUPS:
            raise ValueError(
                f"blocks_per_group must divide into {DELTA_GROUPS} "
                "delta-groups"
            )

    # -- geometry ------------------------------------------------------------

    @property
    def deltas_per_delta_group(self) -> int:
        return self.slots // DELTA_GROUPS

    @property
    def deltas_shift(self) -> int:
        return self.reference_bits

    @property
    def extensions_shift(self) -> int:
        return self.reference_bits + self.slots * self.delta_bits

    @property
    def index_shift(self) -> int:
        return (
            self.extensions_shift
            + self.deltas_per_delta_group * self.extension_bits
        )

    @property
    def valid_shift(self) -> int:
        return self.index_shift + WIDEN_INDEX_BITS

    @property
    def bits_per_group(self) -> int:
        if not self.extension_bits:
            return self.extensions_shift
        return self.valid_shift + WIDEN_VALID_BITS

    @property
    def padded_bytes(self) -> int:
        """Serialized length: whole 64-byte metadata blocks."""
        blocks = -(-self.bits_per_group // METADATA_BLOCK_BITS)
        return blocks * METADATA_BLOCK_BITS // 8

    # -- scalar codec --------------------------------------------------------

    def pack(
        self,
        reference: int,
        deltas: Sequence[int],
        widened: int | None = None,
    ) -> bytes:
        """Serialize one group; ``widened`` names the delta-group whose
        deltas carry extension bits (dual-length only)."""
        if len(deltas) != self.slots:
            raise ValueError(f"expected {self.slots} deltas, got {len(deltas)}")
        low, per = list(deltas), self.deltas_per_delta_group
        extension, index, valid = [0] * per, 0, 0
        if self.extension_bits and widened is not None:
            span = slice(widened * per, (widened + 1) * per)
            extension = [d >> self.delta_bits for d in low[span]]
            low[span] = [d & ((1 << self.delta_bits) - 1) for d in low[span]]
            index, valid = widened, 1
        writer = BitWriter().write(reference, self.reference_bits)
        for delta in low:
            writer.write(delta, self.delta_bits)
        if self.extension_bits:
            for high in extension:
                writer.write(high, self.extension_bits)
            writer.write(index, WIDEN_INDEX_BITS).write(valid, WIDEN_VALID_BITS)
        return writer.to_bytes(self.padded_bytes)

    def unpack(self, data: bytes) -> tuple[int, list[int], int | None]:
        """Inverse of :meth:`pack`: (reference, full deltas, widened)."""
        reader = BitReader(data)
        reference = reader.read(self.reference_bits)
        deltas = [reader.read(self.delta_bits) for _ in range(self.slots)]
        if not self.extension_bits:
            return reference, deltas, None
        extension = [
            reader.read(self.extension_bits)
            for _ in range(self.deltas_per_delta_group)
        ]
        index = reader.read(WIDEN_INDEX_BITS)
        if not reader.read(WIDEN_VALID_BITS):
            return reference, deltas, None
        start = index * self.deltas_per_delta_group
        for offset, high in enumerate(extension):
            deltas[start + offset] |= high << self.delta_bits
        return reference, deltas, index


__all__ = ["DeltaLayout"]
