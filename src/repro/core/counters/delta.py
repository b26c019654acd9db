"""Frame-of-reference delta-encoded counters (paper Section 4).

Each block-group stores one wide *reference* counter R (56 bits, never
overflows in practice) and one small *delta* per block; a block's
encryption counter is ``R + delta``.  With 7-bit deltas and 64-block (4 KB)
groups, a group's counters fit one 64-byte metadata block: 56 + 64*7 = 504
of 512 bits.

Because the counter is a *sum* (not a concatenation as in split counters),
two overflow-avoidance moves become possible (Section 4.3):

* **Reset** (Figure 5b): when every delta in the group has converged to
  the same non-zero value d, fold it into the reference (R += d, deltas
  := 0).  Pure re-labelling -- no counter value changes, nothing is
  re-encrypted.  Triggered after each successful increment.
* **Re-encode** (Figure 5c): on overflow, subtract the group's minimum
  delta from every delta and add it to the reference.  Also pure
  re-labelling; possible only when delta_min > 0.

Only when both fail does the group get re-encrypted (Figure 5a): the
overflowing counter R + 2^bits is the largest in the group, so it becomes
the new reference, all deltas reset, and every block is re-encrypted under
that identical fresh counter.

Both optimizations are individually toggleable so the ablation benches can
isolate their contributions.

Implementation note: the hardware's reset detector ("checks if all the
deltas are identical", Section 4.4) is a comparator tree; here the
condition is tracked incrementally (per-group min / min-multiplicity /
max) so the software hot path is O(1) amortized -- increments only grow
values, so the minimum only needs a rescan when its multiplicity drops to
zero, which in the convergent (lock-step) case happens once per full lap
of the group.
"""

from __future__ import annotations

from repro.core.counters.base import CounterScheme
from repro.core.counters.events import CounterEvent, WriteOutcome
from repro.lint.contracts import DELTA_BITS, GROUP_BLOCKS, REFERENCE_BITS
from repro.util.bits import BitReader, BitWriter


class DeltaCounters(CounterScheme):
    """56-bit reference + fixed-width per-block deltas, with reset and
    re-encode overflow mitigation.

    The defaults are the paper's layout contract (56 + 64*7 = 504 of 512
    metadata bits); both arguments stay overridable for the ablation
    benches that sweep field widths.
    """

    name = "delta"

    def __init__(
        self,
        total_blocks: int,
        blocks_per_group: int = GROUP_BLOCKS,
        delta_bits: int = DELTA_BITS,
        reference_bits: int = REFERENCE_BITS,
        enable_reset: bool = True,
        enable_reencode: bool = True,
    ) -> None:
        super().__init__(total_blocks, blocks_per_group)
        if delta_bits <= 0 or reference_bits <= 0:
            raise ValueError("field widths must be positive")
        self.delta_bits = delta_bits
        self.reference_bits = reference_bits
        self.enable_reset = enable_reset
        self.enable_reencode = enable_reencode
        self._delta_limit = 1 << delta_bits
        self._references = [0] * self.num_groups
        self._deltas = [0] * total_blocks
        # Incremental aggregates per group (see module docstring).
        self._min = [0] * self.num_groups
        self._min_count = [blocks_per_group] * self.num_groups
        self._max = [0] * self.num_groups

    # -- reads ----------------------------------------------------------------

    def counter(self, block_index: int) -> int:
        self._check_block(block_index)
        group = block_index // self.blocks_per_group
        return self._references[group] + self._deltas[block_index]

    def reference(self, group_index: int) -> int:
        """The group's reference counter (tests and reporting)."""
        self._check_group(group_index)
        return self._references[group_index]

    def deltas(self, group_index: int) -> list[int]:
        """Snapshot of a group's deltas (tests and reporting)."""
        self._check_group(group_index)
        return [self._deltas[b] for b in self.blocks_in_group(group_index)]

    # -- aggregate maintenance ---------------------------------------------------

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

    # -- the overflow-avoidance moves -----------------------------------------------

    def _do_reset(self, group: int) -> None:
        """Fold converged deltas into the reference (Figure 5b).  Caller
        guarantees min == max != 0."""
        self._references[group] += self._min[group]
        self._set_all(group, 0)

    def _try_reencode(self, group: int) -> bool:
        """Shift delta_min into the reference (Figure 5c)."""
        delta_min = self._min[group]
        if delta_min == 0:
            return False
        self._references[group] += delta_min
        sl = self._group_slice(group)
        self._deltas[sl] = [d - delta_min for d in self._deltas[sl]]
        self._min[group] = 0
        self._max[group] -= delta_min
        return True

    def _reencrypt(self, group: int, overflow_value: int) -> int:
        """Re-encrypt the group under its largest counter (Figure 5a).

        ``overflow_value`` is the would-be delta of the overflowing block
        (2^bits when a full delta wraps); R + overflow_value strictly
        exceeds every counter previously used by any block of the group,
        so the shared fresh counter is nonce-safe for all of them.
        """
        self._references[group] += overflow_value
        self._set_all(group, 0)
        return self._references[group]

    # -- the write path ---------------------------------------------------------

    def may_overflow(self, block_index: int) -> bool:
        return self._deltas[block_index] + 1 >= self._delta_limit

    def _increment(self, block_index: int) -> WriteOutcome:
        group = block_index // self.blocks_per_group
        events: list[CounterEvent] = []
        current = self._deltas[block_index]
        tentative = current + 1

        if tentative >= self._delta_limit:
            # Overflow path: re-encode if possible, else re-encrypt.
            if self.enable_reencode and self._try_reencode(group):
                events.append(CounterEvent.RE_ENCODE)
                current = self._deltas[block_index]
                tentative = current + 1
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

    # -- storage / serialization --------------------------------------------------

    @property
    def bits_per_group(self) -> int:
        return self.reference_bits + self.delta_bits * self.blocks_per_group

    def group_metadata(self, group_index: int) -> bytes:
        self._check_group(group_index)
        writer = BitWriter()
        writer.write(self._references[group_index], self.reference_bits)
        for block in self.blocks_in_group(group_index):
            writer.write(self._deltas[block], self.delta_bits)
        length = -(-writer.bit_length // 8)
        padded = -(-length // 64) * 64
        return writer.to_bytes(padded)

    def decode_metadata(self, data: bytes) -> list[int]:
        reader = BitReader(data)
        reference = reader.read(self.reference_bits)
        return [
            reference + reader.read(self.delta_bits)
            for _ in range(self.blocks_per_group)
        ]

    def restore_group_metadata(self, group_index: int, data: bytes) -> None:
        self._check_group(group_index)
        reader = BitReader(data)
        self._references[group_index] = reader.read(self.reference_bits)
        for block in self.blocks_in_group(group_index):
            self._deltas[block] = reader.read(self.delta_bits)
        self._recompute_aggregates(group_index)


__all__ = ["DeltaCounters"]
