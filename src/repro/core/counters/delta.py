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

The group's bits are laid out by :class:`~repro.core.counters.layout.DeltaLayout`
(reference, then one delta per block), which also serializes them.
:class:`~repro.core.counters.dual_length.DualLengthDeltaCounters`
extends this class with widening; the write path below already carries
the widen step as a hook that this single-width scheme never takes.

Implementation note: the hardware's reset detector ("checks if all the
deltas are identical", Section 4.4) is a comparator tree; here the
condition is tracked incrementally (per-group min / min-multiplicity /
max) so the software hot path is O(1) amortized -- increments only grow
values, so the minimum only needs a rescan when its multiplicity drops to
zero, which in the convergent (lock-step) case happens once per full lap
of the group.
"""

from __future__ import annotations

from itertools import islice
from typing import Sequence

from repro.core.counters.base import CounterScheme
from repro.core.counters.events import CounterEvent, WriteOutcome
from repro.core.counters.layout import DeltaLayout
from repro.lint.contracts import DELTA_BITS, GROUP_BLOCKS, REFERENCE_BITS


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
        self.layout = DeltaLayout(
            reference_bits, delta_bits, blocks_per_group, extension_bits=0
        )
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
        return self._deltas[self._group_slice(group_index)]

    def group_fields(self, group_index: int) -> tuple[int, list[int], int | None]:
        """The group as :meth:`DeltaLayout.pack` takes it: reference,
        deltas and the widened delta-group (always None here)."""
        return self.reference(group_index), self.deltas(group_index), None

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

    def _zero_deltas(self, group: int) -> None:
        self._deltas[self._group_slice(group)] = [0] * self.blocks_per_group
        self._min[group] = 0
        self._min_count[group] = self.blocks_per_group
        self._max[group] = 0

    # -- the overflow-avoidance moves -----------------------------------------------

    def _widen(self, block_index: int, tentative: int) -> bool:
        """Give the block's delta more bits (Figure 6).  Single-width
        deltas have no spare bits, so this never succeeds here."""
        return False

    def _do_reset(self, group: int) -> None:
        """Fold converged deltas into the reference (Figure 5b).  Caller
        guarantees min == max != 0."""
        self._references[group] += self._min[group]
        self._zero_deltas(group)

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
        """Re-encrypt the group under a fresh shared counter (Figure 5a).

        ``overflow_value`` is the would-be delta of the overflowing block
        (2^bits when a full single-width delta wraps).  The new reference
        R + max(overflow_value, delta_max + 1) strictly exceeds every
        counter previously used by any block of the group -- including a
        widened delta-group's larger deltas -- so it is nonce-safe for
        all of them.
        """
        self._references[group] += max(overflow_value, self._max[group] + 1)
        self._zero_deltas(group)
        return self._references[group]

    # -- the write path ---------------------------------------------------------

    def may_overflow(self, block_index: int) -> bool:
        return self._deltas[block_index] + 1 >= self._delta_limit

    def _increment(self, block_index: int) -> WriteOutcome:
        group = block_index // self.blocks_per_group
        events: list[CounterEvent] = []
        tentative = self._deltas[block_index] + 1

        # Below the base width nothing can overflow; only then ask the
        # (possibly widened) capacity test.
        if tentative >= self._delta_limit and self.may_overflow(block_index):
            # Overflow path: widen if spare bits are free, else re-encode
            # if possible, else re-encrypt.
            if self._widen(block_index, tentative):
                events.append(CounterEvent.WIDEN)
            else:
                if self.enable_reencode and self._try_reencode(group):
                    events.append(CounterEvent.RE_ENCODE)
                    tentative = self._deltas[block_index] + 1
                # A re-encode may have released the extension bits; claim
                # them instead of re-encrypting when the delta still
                # does not fit.
                if self.may_overflow(block_index):
                    if not self._widen(block_index, tentative):
                        group_counter = self._reencrypt(group, tentative)
                        events.append(CounterEvent.RE_ENCRYPT)
                        return WriteOutcome(
                            counter=group_counter,
                            events=tuple(events),
                            reencrypted_group=group,
                            group_counter=group_counter,
                        )
                    events.append(CounterEvent.WIDEN)

        counter, reset = self._bump(block_index)
        events.append(CounterEvent.INCREMENT)
        if reset:
            events.append(CounterEvent.RESET)
        return WriteOutcome(counter=counter, events=tuple(events))

    def _bump(self, block_index: int) -> tuple[int, bool]:
        """The plain increment every write that stores a fresh delta ends
        with: the delta grows by one, the aggregates follow, and a group
        whose deltas converged resets.  Returns the block's counter and
        whether the group reset."""
        group = block_index // self.blocks_per_group
        current = self._deltas[block_index]
        tentative = current + 1
        self._deltas[block_index] = tentative
        if tentative > self._max[group]:
            self._max[group] = tentative
        if current == self._min[group]:
            self._min_count[group] -= 1
            if self._min_count[group] == 0:
                self._recompute_aggregates(group)
        counter = self._references[group] + tentative
        if (
            self.enable_reset
            and self._min[group] == self._max[group]
            and self._min[group] != 0
        ):
            self._do_reset(group)
            return counter, True
        return counter, False

    def on_writes(self, blocks: Sequence[int], start: int = 0) -> list[int]:
        """One lean loop over the list state: the exact overflow test
        (the base-width check first, as :meth:`_increment` opens with),
        then :meth:`_bump`; statistics as one bulk count per kind.

        Not an array update: a reset fires mid-run whenever a plain bump
        makes a group's deltas converge, and every later counter of that
        group depends on it.
        """
        deltas = self._deltas
        limit = self._delta_limit
        bump = self._bump
        counters: list[int] = []
        resets = 0
        for block in islice(blocks, start, None):
            if deltas[block] + 1 >= limit and self.may_overflow(block):
                break
            counter, reset = bump(block)
            counters.append(counter)
            resets += reset
        if counters:
            self.stats.record_increments(len(counters), resets)
        return counters

    # -- storage / serialization --------------------------------------------------

    @property
    def bits_per_group(self) -> int:
        return self.layout.bits_per_group

    def group_metadata(self, group_index: int) -> bytes:
        return self.layout.pack(*self.group_fields(group_index))

    def decode_metadata(self, data: bytes) -> list[int]:
        reference, deltas, _ = self.layout.unpack(data)
        return [reference + delta for delta in deltas]

    def restore_group_metadata(self, group_index: int, data: bytes) -> None:
        self._check_group(group_index)
        reference, deltas, widened = self.layout.unpack(data)
        self._references[group_index] = reference
        self._deltas[self._group_slice(group_index)] = deltas
        self._recompute_aggregates(group_index)
        self._restore_widening(group_index, widened)

    def _restore_widening(self, group: int, widened: int | None) -> None:
        """Single-width layouts decode no widened delta-group."""


__all__ = ["DeltaCounters"]
