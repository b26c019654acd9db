"""Monolithic per-block counters (the SGX-style baseline).

One full-width counter (56 bits by default, matching Intel SGX [3]) per
64-byte block.  Simple and overflow-free in practice -- a 56-bit counter
"would never overflow during the lifetime of a machine" -- but costs ~11%
of protected capacity, which is exactly the overhead Section 4 attacks.

If a counter *does* wrap (reachable in tests with tiny widths), the only
sound response is a global re-encryption under a fresh key; we model it as
a :data:`~repro.core.counters.events.CounterEvent.GLOBAL_RE_ENCRYPT` event
that restarts the counter space in a new epoch.
"""

from __future__ import annotations

from repro.core.counters.base import CounterScheme
from repro.core.counters.events import CounterEvent, WriteOutcome
from repro.util.bits import BitReader, BitWriter


class MonolithicCounters(CounterScheme):
    """Full-width counter per block; groups exist only for serialization."""

    name = "monolithic"

    def __init__(
        self,
        total_blocks: int,
        counter_bits: int = 56,
        blocks_per_group: int = 64,
    ) -> None:
        super().__init__(total_blocks, blocks_per_group)
        if counter_bits <= 0:
            raise ValueError("counter_bits must be positive")
        self.counter_bits = counter_bits
        self._limit = 1 << counter_bits
        self._counters = [0] * total_blocks
        #: epoch increments on global re-encryption so nonces stay fresh
        #: (a real system would re-key; the epoch models that key change).
        self.epoch = 0

    def counter(self, block_index: int) -> int:
        self._check_block(block_index)
        return self._counters[block_index]

    def may_overflow(self, block_index: int) -> bool:
        return self._counters[block_index] + 1 >= self._limit

    def _increment(self, block_index: int) -> WriteOutcome:
        value = self._counters[block_index] + 1
        if value < self._limit:
            self._counters[block_index] = value
            return WriteOutcome(counter=value, events=(CounterEvent.INCREMENT,))
        # Counter exhausted: global re-encryption under a new epoch/key.
        self.epoch += 1
        self._counters = [0] * self.total_blocks
        return WriteOutcome(
            counter=0,
            events=(CounterEvent.GLOBAL_RE_ENCRYPT,),
        )

    @property
    def bits_per_group(self) -> int:
        return self.counter_bits * self.blocks_per_group

    def group_metadata(self, group_index: int) -> bytes:
        writer = BitWriter()
        for block in self.blocks_in_group(group_index):
            writer.write(self._counters[block], self.counter_bits)
        length = -(-writer.bit_length // 8)
        # Pad to whole 64-byte metadata blocks.
        padded = -(-length // 64) * 64
        return writer.to_bytes(padded)

    def decode_metadata(self, data: bytes) -> list[int]:
        reader = BitReader(data)
        return [
            reader.read(self.counter_bits)
            for _ in range(self.blocks_per_group)
        ]

    def restore_group_metadata(self, group_index: int, data: bytes) -> None:
        self._check_group(group_index)
        reader = BitReader(data)
        for block in self.blocks_in_group(group_index):
            self._counters[block] = reader.read(self.counter_bits)


__all__ = ["MonolithicCounters"]
