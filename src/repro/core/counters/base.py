"""Abstract interface shared by all counter-representation schemes.

A counter scheme owns the encryption counters of ``total_blocks`` 64-byte
memory blocks, arranged in block-groups of ``blocks_per_group``.  The
memory-encryption engine interacts with it through these operations:

* :meth:`CounterScheme.counter` -- the current encryption counter of a
  block (needed to decrypt it on a read),
* :meth:`CounterScheme.on_write` -- bump a block's counter before a write,
  returning a :class:`~repro.core.counters.events.WriteOutcome` that also
  tells the engine whether a whole group must be re-encrypted,
* :meth:`CounterScheme.on_writes` -- the same for a run of writes, up to
  the first that may overflow: only plain increments, so it returns bare
  counters and records their statistics in bulk,
* :meth:`CounterScheme.group_metadata` -- the byte serialization of one
  group's counters, which is what actually lives in DRAM, flows through
  the metadata cache, and is hashed by the Bonsai Merkle tree.
* :meth:`CounterScheme.nonce` -- the nonce a counter encrypts under.

:meth:`CounterScheme.may_overflow` lets a caller ask, before a write,
whether that write can reach the scheme's overflow path (and with it a
group or global re-encryption).

All schemes maintain the central security invariant: a block is never
encrypted twice under the same (address, nonce) pair, and every nonce
lies in the 56-bit lane the keystream and MAC layers enforce.  The stateful
hypothesis tests in ``tests/core/test_counter_properties.py`` check this
across arbitrary write interleavings for every scheme.
"""

from __future__ import annotations

import abc
from itertools import islice
from typing import Any, Sequence

from repro.core.counters.events import CounterStats, WriteOutcome
from repro.lint.contracts import BLOCK_BYTES, METADATA_BLOCK_BITS
from repro.obs.metrics import get_registry

METADATA_BLOCK_BYTES = METADATA_BLOCK_BITS // 8


class CounterScheme(abc.ABC):
    """Base class: group bookkeeping, stats, and the abstract operations."""

    #: short machine name used by configs and report tables
    name: str = "abstract"

    def __init__(self, total_blocks: int, blocks_per_group: int) -> None:
        if total_blocks <= 0:
            raise ValueError("total_blocks must be positive")
        if blocks_per_group <= 0:
            raise ValueError("blocks_per_group must be positive")
        if total_blocks % blocks_per_group:
            raise ValueError(
                "total_blocks must be a multiple of blocks_per_group"
            )
        self.total_blocks = total_blocks
        self.blocks_per_group = blocks_per_group
        self.num_groups = total_blocks // blocks_per_group
        # Scheme event counts live in the active registry under
        # ``counters.<scheme>.*`` (Table 2's raw inputs).
        registry = get_registry()
        self.stats = CounterStats(
            registry=registry,
            labels={"inst": registry.instance("scheme")},
            prefix=f"counters.{self.name}",
        )

    # -- geometry ----------------------------------------------------------

    def group_of(self, block_index: int) -> int:
        """Block-group index a block belongs to."""
        self._check_block(block_index)
        return block_index // self.blocks_per_group

    def slot_of(self, block_index: int) -> int:
        """Position of a block within its group."""
        self._check_block(block_index)
        return block_index % self.blocks_per_group

    def blocks_in_group(self, group_index: int) -> range:
        """All block indices of one group."""
        self._check_group(group_index)
        start = group_index * self.blocks_per_group
        return range(start, start + self.blocks_per_group)

    def _check_block(self, block_index: int) -> None:
        if not 0 <= block_index < self.total_blocks:
            raise IndexError(f"block index {block_index} out of range")

    def _check_group(self, group_index: int) -> None:
        if not 0 <= group_index < self.num_groups:
            raise IndexError(f"group index {group_index} out of range")

    # -- abstract operations -------------------------------------------------

    @abc.abstractmethod
    def counter(self, block_index: int) -> int:
        """Current encryption counter of a block."""

    @abc.abstractmethod
    def _increment(self, block_index: int) -> WriteOutcome:
        """Scheme-specific counter bump; subclasses implement this."""

    @abc.abstractmethod
    def may_overflow(self, block_index: int) -> bool:
        """True when the next :meth:`on_write` of this block can take the
        overflow path.

        It is the exact test :meth:`_increment` opens its overflow branch
        with, so a False answer guarantees the write is a plain increment:
        no ``reencrypted_group`` and no global re-encryption.  A True
        answer may still resolve without re-encryption (widen,
        re-encode).
        """

    def nonce(self, counter: Any) -> Any:
        """The keystream/MAC nonce of ``counter`` (an int or an int64
        array): the counter itself, unless the scheme has an epoch."""
        return counter

    def on_write(self, block_index: int) -> WriteOutcome:
        """Advance a block's counter for a write and record statistics."""
        outcome = self._increment(block_index)
        self.stats.record(outcome, group=self.group_of(block_index))
        return outcome

    def on_writes(self, blocks: Sequence[int], start: int = 0) -> list[int]:
        """Advance ``blocks[start:]`` up to the first that may overflow.

        Stops before the first block whose :meth:`may_overflow` is True
        -- that write belongs to the exact :meth:`on_write` -- and
        returns the counters of the blocks it advanced, so the stop
        index is ``start + len(result)``.  Counters, scheme state and
        statistics are exactly those of a ``may_overflow``-guarded
        :meth:`on_write` loop; since every advanced write is a plain
        increment, a subclass may record them as bulk counts.  Blocks
        must be in range (the engine validates addresses).
        """
        counters: list[int] = []
        for block in islice(blocks, start, None):
            if self.may_overflow(block):
                break
            counters.append(self.on_write(block).counter)
        return counters

    def replay(self, blocks: Sequence[int]) -> None:
        """Advance the counters for a whole write stream.

        Plain segments go through :meth:`on_writes`, each write that may
        overflow through :meth:`on_write`: the state and statistics of
        an :meth:`on_write` loop over ``blocks``.
        """
        if blocks and not (
            0 <= min(blocks) and max(blocks) < self.total_blocks
        ):
            raise IndexError("block index out of range")
        index = 0
        while index < len(blocks):
            index += len(self.on_writes(blocks, index))
            if index < len(blocks):
                self.on_write(blocks[index])
                index += 1

    # -- storage accounting ---------------------------------------------------

    @property
    @abc.abstractmethod
    def bits_per_group(self) -> int:
        """Raw bits of counter state per block-group."""

    @property
    def metadata_blocks(self) -> int:
        """64-byte memory blocks needed to store all counters.

        Groups are padded to block boundaries (a group's metadata must be
        fetchable in a single read, per Section 4.2 "the decryption
        pipeline will perform better if both the reference value and the
        associated deltas are stored in the same memory block").
        """
        blocks_per_group_meta = max(
            1, -(-self.bits_per_group // (8 * METADATA_BLOCK_BYTES))
        )
        return self.num_groups * blocks_per_group_meta

    @property
    def storage_overhead(self) -> float:
        """Counter storage as a fraction of protected data capacity."""
        return self.metadata_blocks / self.total_blocks

    # -- serialization --------------------------------------------------------

    @abc.abstractmethod
    def group_metadata(self, group_index: int) -> bytes:
        """Serialize one group's counter state to its metadata block(s)."""

    @abc.abstractmethod
    def decode_metadata(self, data: bytes) -> list[int]:
        """Decode serialized group metadata back to per-slot counters.

        This is the *decode unit* of Figure 7: the functional engine reads
        counters from tree-verified stored bytes (never from trusted
        in-object state), so a tampered or replayed counter block yields
        wrong counters and a failing data MAC -- exactly the hardware's
        failure semantics.
        """

    @abc.abstractmethod
    def restore_group_metadata(self, group_index: int, data: bytes) -> None:
        """Load one group's counter state back from its serialization.

        The inverse of :meth:`group_metadata`, used by crash recovery to
        rebuild the scheme from checkpointed/journaled metadata blocks.
        Must round-trip byte-identically: after restoring,
        ``group_metadata(group_index)`` returns exactly ``data`` (so the
        rebuilt Bonsai leaves hash to the recorded root).
        """


__all__ = ["CounterScheme", "BLOCK_BYTES", "METADATA_BLOCK_BYTES"]
