"""Dual-length delta encoding (paper Section 4.3, Figure 6).

A constrained variable-length encoding: a 64-block group's deltas are
partitioned into 4 *delta-groups* of 16.  Every delta starts at 6 bits
(instead of 7), which frees 72 bits per metadata block:

    56 (reference) + 64 x 6 (deltas) = 440 bits; 512 - 440 = 72 spare.

When one delta-group overflows its 6-bit capacity, the spare bits are
assigned to it: each of its 16 deltas is *widened by 4 bits* (16 x 4 = 64
bits) and a group-index field records which delta-group owns the extension
(the remaining spare bits hold the index and a valid flag).  Only one
delta-group can be widened at a time; a further overflow in any other
group -- or past the widened 10-bit capacity -- falls back to the ordinary
delta machinery: re-encode if delta_min > 0, else re-encrypt.

On reset or re-encode the widening is *released* when every delta of the
widened group fits 6 bits again, making the spare bits available to the
next hot group.  (The paper does not spell this out; releasing is the
natural hardware behaviour since the extension bits are dead weight once
the deltas shrink, and it is what makes dual-length strictly better than
7-bit deltas on all but pathological workloads -- matching Table 2, where
facesim is exactly such a pathology: several delta-groups overflow
concurrently and cannot all be widened.)

The scheme is :class:`repro.core.counters.delta.DeltaCounters` plus
widening: the same write path, aggregates, reset, re-encode and
re-encryption, over the Figure 6 :class:`~repro.core.counters.layout.DeltaLayout`
(``extension_bits > 0``).  This class adds only the widened delta-group's
larger capacity, the widen step, and releasing the widening.
"""

from __future__ import annotations

from repro.core.counters.delta import DeltaCounters
from repro.core.counters.layout import DeltaLayout
from repro.lint.contracts import (
    BASE_DELTA_BITS,
    EXTENSION_BITS,
    GROUP_BLOCKS,
    REFERENCE_BITS,
)


class DualLengthDeltaCounters(DeltaCounters):
    """6-bit deltas, 4 delta-groups of 16, one widenable to 10 bits.

    The defaults are the Figure 6 layout contract: 56 + 64*6 = 440 bits,
    leaving the contracted 72 reserved bits for the 16x4-bit extension
    field, the widened-group index and its valid flag.
    """

    name = "dual_length"

    def __init__(
        self,
        total_blocks: int,
        blocks_per_group: int = GROUP_BLOCKS,
        base_delta_bits: int = BASE_DELTA_BITS,
        extension_bits: int = EXTENSION_BITS,
        reference_bits: int = REFERENCE_BITS,
        enable_reset: bool = True,
        enable_reencode: bool = True,
    ) -> None:
        super().__init__(
            total_blocks,
            blocks_per_group,
            delta_bits=base_delta_bits,
            reference_bits=reference_bits,
            enable_reset=enable_reset,
            enable_reencode=enable_reencode,
        )
        if extension_bits <= 0:
            raise ValueError("field widths must be positive")
        self.layout = DeltaLayout(
            reference_bits, base_delta_bits, blocks_per_group, extension_bits
        )
        self._wide_limit = 1 << (base_delta_bits + extension_bits)
        #: per block-group: which delta-group holds the extension (or None)
        self._widened: list[int | None] = [None] * self.num_groups

    # -- reads ----------------------------------------------------------------

    def widened_delta_group(self, group_index: int) -> int | None:
        """Index of the widened delta-group, or None."""
        self._check_group(group_index)
        return self._widened[group_index]

    def delta_group_of(self, block_index: int) -> int:
        """Which of the 4 delta-groups a block's delta lives in."""
        self._check_block(block_index)
        slot = block_index % self.blocks_per_group
        return slot // self.layout.deltas_per_delta_group

    def group_fields(self, group_index: int) -> tuple[int, list[int], int | None]:
        reference, deltas, _ = super().group_fields(group_index)
        return reference, deltas, self._widened[group_index]

    # -- widening ---------------------------------------------------------------

    def may_overflow(self, block_index: int) -> bool:
        group = block_index // self.blocks_per_group
        if self._widened[group] == self.delta_group_of(block_index):
            capacity = self._wide_limit
        else:
            capacity = self._delta_limit
        return self._deltas[block_index] + 1 >= capacity

    def _widen(self, block_index: int, tentative: int) -> bool:
        """Assign the spare overflow bits to the block's delta-group."""
        group = block_index // self.blocks_per_group
        if self._widened[group] is not None or tentative >= self._wide_limit:
            return False
        self._widened[group] = self.delta_group_of(block_index)
        return True

    def _zero_deltas(self, group: int) -> None:
        """Reset and re-encryption zero every delta: release the bits."""
        super()._zero_deltas(group)
        self._widened[group] = None

    def _try_reencode(self, group: int) -> bool:
        """Re-encode, then free the extension bits once the widened
        deltas fit the base width again."""
        if not super()._try_reencode(group):
            return False
        widened = self._widened[group]
        if widened is not None:
            per = self.layout.deltas_per_delta_group
            start = group * self.blocks_per_group + widened * per
            if max(self._deltas[start : start + per]) < self._delta_limit:
                self._widened[group] = None
        return True

    def _restore_widening(self, group: int, widened: int | None) -> None:
        self._widened[group] = widened


__all__ = ["DualLengthDeltaCounters"]
