"""Monolithic per-block counters (the SGX-style baseline).

One full-width counter (56 bits by default, matching Intel SGX [3]) per
64-byte block.  Simple and overflow-free in practice -- a 56-bit counter
"would never overflow during the lifetime of a machine" -- but costs ~11%
of protected capacity, which is exactly the overhead Section 4 attacks.

If a counter *does* wrap (reachable in tests with tiny widths), a
:data:`~repro.core.counters.events.CounterEvent.GLOBAL_RE_ENCRYPT` event
restarts the counter space in a new *epoch*, packed above the counter in
the one 56-bit nonce lane: ``nonce = epoch << counter_bits | counter``,
a split counter whose major is one global value.  A wrap whose epoch
would leave the lane is refused before any state changes -- at the
default 56 bits, the first (2**56 writes to one block).
"""

from __future__ import annotations

from typing import Any

from repro.core.counters.base import CounterScheme
from repro.core.counters.events import CounterEvent, WriteOutcome
from repro.crypto.ctr import NONCE_LIMIT
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
        if counter_bits <= 0 or 1 << counter_bits > NONCE_LIMIT:
            raise ValueError("counter_bits must be in 1..56 (nonce lane)")
        self.counter_bits = counter_bits
        self._limit = 1 << counter_bits
        self._counters = [0] * total_blocks
        #: global re-encryptions so far, packed above every counter
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
        # Counter exhausted: global re-encryption into the next epoch.
        if (self.epoch + 2) << self.counter_bits > NONCE_LIMIT:
            raise OverflowError("the next epoch would leave the nonce lane")
        self.epoch += 1
        self._counters = [0] * self.total_blocks
        return WriteOutcome(
            counter=0,
            events=(CounterEvent.GLOBAL_RE_ENCRYPT,),
        )

    def nonce(self, counter: Any, epoch: int | None = None) -> Any:
        """``epoch << counter_bits | counter``, by default in the current
        epoch: the one place the epoch meets the counter."""
        epoch = self.epoch if epoch is None else epoch
        return epoch << self.counter_bits | counter

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
