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

The write path uses the same O(1)-amortized min/max aggregate tracking as
:class:`repro.core.counters.delta.DeltaCounters`.
"""

from __future__ import annotations

from repro.core.counters.base import CounterScheme
from repro.core.counters.events import CounterEvent, WriteOutcome
from repro.lint.contracts import (
    BASE_DELTA_BITS,
    EXTENSION_BITS,
    GROUP_BLOCKS,
    REFERENCE_BITS,
    WIDEN_INDEX_BITS,
    WIDEN_VALID_BITS,
)
from repro.lint.contracts import DELTA_GROUPS as CONTRACT_DELTA_GROUPS
from repro.util.bits import BitReader, BitWriter


class DualLengthDeltaCounters(CounterScheme):
    """6-bit deltas, 4 delta-groups of 16, one widenable to 10 bits.

    The defaults are the Figure 6 layout contract: 56 + 64*6 = 440 bits,
    leaving the contracted 72 reserved bits for the 16x4-bit extension
    field, the widened-group index and its valid flag.
    """

    name = "dual_length"

    DELTA_GROUPS = CONTRACT_DELTA_GROUPS

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
        super().__init__(total_blocks, blocks_per_group)
        if blocks_per_group % self.DELTA_GROUPS:
            raise ValueError(
                "blocks_per_group must divide into "
                f"{self.DELTA_GROUPS} delta-groups"
            )
        if base_delta_bits <= 0 or extension_bits <= 0:
            raise ValueError("field widths must be positive")
        self.base_delta_bits = base_delta_bits
        self.extension_bits = extension_bits
        self.reference_bits = reference_bits
        self.enable_reset = enable_reset
        self.enable_reencode = enable_reencode
        self.deltas_per_delta_group = blocks_per_group // self.DELTA_GROUPS
        self._base_limit = 1 << base_delta_bits
        self._wide_limit = 1 << (base_delta_bits + extension_bits)
        self._references = [0] * self.num_groups
        self._deltas = [0] * total_blocks
        #: per block-group: which delta-group holds the extension (or None)
        self._widened: list[int | None] = [None] * self.num_groups
        # Incremental aggregates (whole block-group).
        self._min = [0] * self.num_groups
        self._min_count = [blocks_per_group] * self.num_groups
        self._max = [0] * self.num_groups

    # -- reads ----------------------------------------------------------------

    def counter(self, block_index: int) -> int:
        self._check_block(block_index)
        group = block_index // self.blocks_per_group
        return self._references[group] + self._deltas[block_index]

    def reference(self, group_index: int) -> int:
        self._check_group(group_index)
        return self._references[group_index]

    def deltas(self, group_index: int) -> list[int]:
        self._check_group(group_index)
        return [self._deltas[b] for b in self.blocks_in_group(group_index)]

    def widened_delta_group(self, group_index: int) -> int | None:
        """Index of the widened delta-group, or None."""
        self._check_group(group_index)
        return self._widened[group_index]

    def delta_group_of(self, block_index: int) -> int:
        """Which of the 4 delta-groups a block's delta lives in."""
        self._check_block(block_index)
        slot = block_index % self.blocks_per_group
        return slot // self.deltas_per_delta_group

    # -- aggregate maintenance -----------------------------------------------------

    def _group_slice(self, group: int) -> slice:
        start = group * self.blocks_per_group
        return slice(start, start + self.blocks_per_group)

    def _recompute_aggregates(self, group: int) -> None:
        values = self._deltas[self._group_slice(group)]
        lowest = min(values)
        self._min[group] = lowest
        self._min_count[group] = values.count(lowest)
        self._max[group] = max(values)

    def _set_all(self, group: int, value: int) -> None:
        self._deltas[self._group_slice(group)] = (
            [value] * self.blocks_per_group
        )
        self._min[group] = value
        self._min_count[group] = self.blocks_per_group
        self._max[group] = value

    def _capacity(self, group: int, delta_group: int) -> int:
        if self._widened[group] == delta_group:
            return self._wide_limit
        return self._base_limit

    def _delta_group_values(self, group: int, delta_group: int) -> list[int]:
        start = (
            group * self.blocks_per_group
            + delta_group * self.deltas_per_delta_group
        )
        return self._deltas[start : start + self.deltas_per_delta_group]

    def _maybe_release_widening(self, group: int) -> None:
        """Free the extension bits once the widened deltas fit 6 bits."""
        widened = self._widened[group]
        if widened is None:
            return
        if all(
            d < self._base_limit
            for d in self._delta_group_values(group, widened)
        ):
            self._widened[group] = None

    # -- the overflow-avoidance moves --------------------------------------------------

    def _do_reset(self, group: int) -> None:
        """Caller guarantees min == max != 0."""
        self._references[group] += self._min[group]
        self._set_all(group, 0)
        self._widened[group] = None  # all deltas are 0: release

    def _try_reencode(self, group: int) -> bool:
        delta_min = self._min[group]
        if delta_min == 0:
            return False
        self._references[group] += delta_min
        sl = self._group_slice(group)
        self._deltas[sl] = [d - delta_min for d in self._deltas[sl]]
        self._min[group] = 0
        self._max[group] -= delta_min
        self._maybe_release_widening(group)
        return True

    def _reencrypt(self, group: int, overflow_value: int) -> int:
        """New reference strictly above every counter ever used in the
        group (the overflowing block's next value may not be the group max
        when another delta-group is widened, so take the max explicitly)."""
        bump = max(overflow_value, self._max[group] + 1)
        self._references[group] += bump
        self._set_all(group, 0)
        self._widened[group] = None
        return self._references[group]

    # -- the write path -------------------------------------------------------------

    def may_overflow(self, block_index: int) -> bool:
        return self._deltas[block_index] + 1 >= self._capacity(
            block_index // self.blocks_per_group,
            self.delta_group_of(block_index),
        )

    def _increment(self, block_index: int) -> WriteOutcome:
        group = block_index // self.blocks_per_group
        delta_group = self.delta_group_of(block_index)
        events: list[CounterEvent] = []
        current = self._deltas[block_index]
        tentative = current + 1

        if tentative >= self._capacity(group, delta_group):
            if (
                tentative < self._wide_limit
                and self._widened[group] is None
            ):
                # Assign the spare overflow bits to this delta-group.
                self._widened[group] = delta_group
                events.append(CounterEvent.WIDEN)
            elif self.enable_reencode and self._try_reencode(group):
                events.append(CounterEvent.RE_ENCODE)
                current = self._deltas[block_index]
                tentative = current + 1
                if tentative >= self._capacity(group, delta_group):
                    if (
                        tentative < self._wide_limit
                        and self._widened[group] is None
                    ):
                        # Re-encode released the extension bits; claim them
                        # for this delta-group instead of re-encrypting.
                        self._widened[group] = delta_group
                        events.append(CounterEvent.WIDEN)
                    else:
                        # Re-encode shifted by delta_min but the hot delta
                        # is still at capacity: re-encrypt.
                        group_counter = self._reencrypt(group, tentative)
                        events.append(CounterEvent.RE_ENCRYPT)
                        return WriteOutcome(
                            counter=group_counter,
                            events=tuple(events),
                            reencrypted_group=group,
                            group_counter=group_counter,
                        )
            else:
                group_counter = self._reencrypt(group, tentative)
                events.append(CounterEvent.RE_ENCRYPT)
                return WriteOutcome(
                    counter=group_counter,
                    events=tuple(events),
                    reencrypted_group=group,
                    group_counter=group_counter,
                )

        self._deltas[block_index] = tentative
        if tentative > self._max[group]:
            self._max[group] = tentative
        if current == self._min[group]:
            self._min_count[group] -= 1
            if self._min_count[group] == 0:
                self._recompute_aggregates(group)
        counter = self._references[group] + tentative
        events.append(CounterEvent.INCREMENT)
        if (
            self.enable_reset
            and self._min[group] == self._max[group]
            and self._min[group] != 0
        ):
            self._do_reset(group)
            events.append(CounterEvent.RESET)
        return WriteOutcome(counter=counter, events=tuple(events))

    # -- storage / serialization -----------------------------------------------------

    @property
    def bits_per_group(self) -> int:
        # reference + base deltas + extension field + group index + valid.
        return (
            self.reference_bits
            + self.base_delta_bits * self.blocks_per_group
            + self.extension_bits * self.deltas_per_delta_group
            + WIDEN_INDEX_BITS
            + WIDEN_VALID_BITS
        )

    def group_metadata(self, group_index: int) -> bytes:
        """Serialize exactly as the hardware layout of Figure 6: reference,
        6-bit base fields, the 4-bit extension fields, the widened-group
        index and a valid flag."""
        self._check_group(group_index)
        writer = BitWriter()
        writer.write(self._references[group_index], self.reference_bits)
        widened = self._widened[group_index]
        base_mask = self._base_limit - 1
        for block in self.blocks_in_group(group_index):
            writer.write(
                self._deltas[block] & base_mask, self.base_delta_bits
            )
        # Extension payload: high bits of the widened group's deltas.
        if widened is None:
            for _ in range(self.deltas_per_delta_group):
                writer.write(0, self.extension_bits)
            writer.write(0, WIDEN_INDEX_BITS)
            writer.write(0, WIDEN_VALID_BITS)  # valid = 0
        else:
            for value in self._delta_group_values(group_index, widened):
                writer.write(value >> self.base_delta_bits, self.extension_bits)
            writer.write(widened, WIDEN_INDEX_BITS)
            writer.write(1, WIDEN_VALID_BITS)  # valid = 1
        length = -(-writer.bit_length // 8)
        padded = -(-length // 64) * 64
        return writer.to_bytes(padded)

    def decode_metadata(self, data: bytes) -> list[int]:
        """The Figure 7 decode unit: splice extension bits back onto the
        widened delta-group, then sum reference + delta per slot."""
        reader = BitReader(data)
        reference = reader.read(self.reference_bits)
        base = [
            reader.read(self.base_delta_bits)
            for _ in range(self.blocks_per_group)
        ]
        extension = [
            reader.read(self.extension_bits)
            for _ in range(self.deltas_per_delta_group)
        ]
        widened = reader.read(WIDEN_INDEX_BITS)
        valid = reader.read(WIDEN_VALID_BITS)
        deltas = list(base)
        if valid:
            start = widened * self.deltas_per_delta_group
            for offset, high in enumerate(extension):
                deltas[start + offset] |= high << self.base_delta_bits
        return [reference + d for d in deltas]

    def restore_group_metadata(self, group_index: int, data: bytes) -> None:
        self._check_group(group_index)
        reader = BitReader(data)
        self._references[group_index] = reader.read(self.reference_bits)
        base = [
            reader.read(self.base_delta_bits)
            for _ in range(self.blocks_per_group)
        ]
        extension = [
            reader.read(self.extension_bits)
            for _ in range(self.deltas_per_delta_group)
        ]
        widened = reader.read(WIDEN_INDEX_BITS)
        valid = reader.read(WIDEN_VALID_BITS)
        if valid:
            start = widened * self.deltas_per_delta_group
            for offset, high in enumerate(extension):
                base[start + offset] |= high << self.base_delta_bits
        self._widened[group_index] = widened if valid else None
        self._deltas[self._group_slice(group_index)] = base
        self._recompute_aggregates(group_index)


__all__ = ["DualLengthDeltaCounters"]
