"""Split counters (Yan et al., ISCA 2006) -- the prior-art comparator.

Each block-group shares one 64-bit *major* counter M; each block keeps a
small (7-bit by default) *minor* counter m.  A block's encryption counter
is the concatenation ``(M << minor_bits) | m``.  When a minor counter
overflows, the entire group is re-encrypted under major M+1 with all
minors zeroed (Section 2.2).

This is the scheme the paper's Table 2 compares against: same 8x storage
compaction as delta encoding, but *every* minor overflow forces a group
re-encryption -- there is no reset or re-encode escape hatch, because the
concatenation (unlike a sum) cannot absorb a common offset.
"""

from __future__ import annotations

from repro.core.counters.base import CounterScheme
from repro.core.counters.events import CounterEvent, WriteOutcome
from repro.util.bits import BitReader, BitWriter


class SplitCounters(CounterScheme):
    """64-bit major + per-block minor counters with group re-encryption."""

    name = "split"

    def __init__(
        self,
        total_blocks: int,
        blocks_per_group: int = 64,
        minor_bits: int = 7,
        major_bits: int = 64,
    ) -> None:
        super().__init__(total_blocks, blocks_per_group)
        if minor_bits <= 0 or major_bits <= 0:
            raise ValueError("counter widths must be positive")
        self.minor_bits = minor_bits
        self.major_bits = major_bits
        self._minor_limit = 1 << minor_bits
        self._majors = [0] * self.num_groups
        self._minors = [0] * total_blocks

    def counter(self, block_index: int) -> int:
        self._check_block(block_index)
        group = block_index // self.blocks_per_group
        return (self._majors[group] << self.minor_bits) | self._minors[
            block_index
        ]

    def may_overflow(self, block_index: int) -> bool:
        return self._minors[block_index] + 1 >= self._minor_limit

    def _increment(self, block_index: int) -> WriteOutcome:
        group = block_index // self.blocks_per_group
        minor = self._minors[block_index] + 1
        if minor < self._minor_limit:
            self._minors[block_index] = minor
            return WriteOutcome(
                counter=(self._majors[group] << self.minor_bits) | minor,
                events=(CounterEvent.INCREMENT,),
            )
        # Minor overflow: re-encrypt the group under the next major.
        self._majors[group] += 1
        for block in self.blocks_in_group(group):
            self._minors[block] = 0
        group_counter = self._majors[group] << self.minor_bits
        return WriteOutcome(
            counter=group_counter,
            events=(CounterEvent.RE_ENCRYPT,),
            reencrypted_group=group,
            group_counter=group_counter,
        )

    @property
    def bits_per_group(self) -> int:
        return self.major_bits + self.minor_bits * self.blocks_per_group

    def group_metadata(self, group_index: int) -> bytes:
        self._check_group(group_index)
        writer = BitWriter()
        writer.write(self._majors[group_index], self.major_bits)
        for block in self.blocks_in_group(group_index):
            writer.write(self._minors[block], self.minor_bits)
        length = -(-writer.bit_length // 8)
        padded = -(-length // 64) * 64
        return writer.to_bytes(padded)

    def decode_metadata(self, data: bytes) -> list[int]:
        reader = BitReader(data)
        major = reader.read(self.major_bits)
        return [
            (major << self.minor_bits) | reader.read(self.minor_bits)
            for _ in range(self.blocks_per_group)
        ]

    def restore_group_metadata(self, group_index: int, data: bytes) -> None:
        self._check_group(group_index)
        reader = BitReader(data)
        self._majors[group_index] = reader.read(self.major_bits)
        for block in self.blocks_in_group(group_index):
            self._minors[block] = reader.read(self.minor_bits)

    def major(self, group_index: int) -> int:
        """Expose the major counter (used by tests and reporting)."""
        self._check_group(group_index)
        return self._majors[group_index]


__all__ = ["SplitCounters"]
