"""The Figure 7 hardware units, modelled explicitly.

The paper's implementation sketch (Section 4.4) introduces three pieces
of hardware around the counter storage:

* **Decode Unit** -- on a read, extract a delta from the fetched
  metadata block and add it to the reference ("a bit extraction and an
  add operation", 2 cycles at up to 4 GHz).
* **Increment and Reset Unit** -- on a write, increment the delta,
  checking for overflow first; after a successful increment, check
  whether all deltas became identical (the reset condition).
* **Re-encoding and Re-encryption Unit** -- overflowing block-groups are
  *enqueued to the overflow buffer* for background processing; the
  engine first attempts re-encoding and only then re-encrypts.

The counter schemes in :mod:`repro.core.counters` implement the same
logic in object form for simulation speed; this module is the
latency/occupancy wrapper around them: stateless units operating on
*serialized* metadata blocks, plus the overflow buffer / background
engine structure and its stall counting, so the datapath of Figure 7 can
be exercised and tested piece by piece.  The bit geometry is the schemes'
own :class:`~repro.core.counters.layout.DeltaLayout` (its single-width,
one-block form); the decode unit is literally the bit-extract-and-add the
paper synthesized, reading its offsets from that layout.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable

from repro.core.counters.delta import DeltaCounters
from repro.core.counters.layout import DeltaLayout
from repro.lint.contracts import (
    DELTA_BITS,
    GROUP_BLOCKS,
    METADATA_BLOCK_BITS,
    REFERENCE_BITS,
)

#: The Figure 2 block the units model unless given another geometry.
PAPER_LAYOUT = DeltaLayout(
    REFERENCE_BITS, DELTA_BITS, GROUP_BLOCKS, extension_bits=0
)


def _block_layout(layout: DeltaLayout | None) -> DeltaLayout:
    """The units model one single-width 64-byte metadata block."""
    layout = layout or PAPER_LAYOUT
    if layout.extension_bits:
        raise ValueError("the Figure 7 units model single-width deltas")
    if layout.bits_per_group > METADATA_BLOCK_BITS:
        raise ValueError(
            f"{layout.bits_per_group} bits exceed one 64-byte metadata block"
        )
    return layout


class DecodeUnit:
    """Figure 7's decode unit: bit-extract one delta, add the reference.

    ``latency_cycles`` is the paper's synthesis result (2 cycles); the
    unit itself is pure combinational logic over the raw block.
    """

    def __init__(self, layout: DeltaLayout | None = None,
                 latency_cycles: int = 2) -> None:
        self.layout = _block_layout(layout)
        self.latency_cycles = latency_cycles

    def decode(self, metadata_block: bytes, slot: int) -> int:
        """Counter for one slot: reference + delta[slot]."""
        layout = self.layout
        if not 0 <= slot < layout.slots:
            raise IndexError(f"slot {slot} out of range")
        word = int.from_bytes(metadata_block, "little")
        reference = word & ((1 << layout.reference_bits) - 1)
        offset = layout.deltas_shift + slot * layout.delta_bits
        delta = (word >> offset) & ((1 << layout.delta_bits) - 1)
        return reference + delta

    def decode_all(self, metadata_block: bytes) -> list[int]:
        """All counters of the block (verification/scrub path)."""
        return [
            self.decode(metadata_block, slot)
            for slot in range(self.layout.slots)
        ]


@dataclass(frozen=True)
class IncrementResult:
    """Outcome of the increment-and-reset unit."""

    metadata_block: bytes
    counter: int  # new counter of the written slot
    overflowed: bool  # delta could not be incremented in place
    reset: bool  # all deltas converged and were folded


class IncrementResetUnit:
    """Figure 7's increment/reset unit, operating on raw blocks.

    On overflow the unit does *not* modify the block -- it reports the
    condition so the controller can enqueue the group for the
    re-encoding/re-encryption engine, matching the hardware split.
    """

    def __init__(self, layout: DeltaLayout | None = None) -> None:
        self.layout = _block_layout(layout)

    def increment(self, metadata_block: bytes, slot: int) -> IncrementResult:
        """Bump one delta; detect overflow first, reset after."""
        layout = self.layout
        if not 0 <= slot < layout.slots:
            raise IndexError(f"slot {slot} out of range")
        reference, deltas, _ = layout.unpack(metadata_block)
        limit = 1 << layout.delta_bits
        if deltas[slot] + 1 >= limit:
            return IncrementResult(
                metadata_block=metadata_block,
                counter=reference + deltas[slot],
                overflowed=True,
                reset=False,
            )
        deltas[slot] += 1
        counter = reference + deltas[slot]
        reset = deltas[slot] != 0 and all(
            d == deltas[slot] for d in deltas
        )
        if reset:
            reference += deltas[slot]
            deltas = [0] * layout.slots
        return IncrementResult(
            metadata_block=layout.pack(reference, deltas),
            counter=counter,
            overflowed=False,
            reset=reset,
        )


@dataclass(frozen=True)
class OverflowRequest:
    """One entry of the overflow buffer: a group awaiting processing."""

    group_address: int
    metadata_block: bytes
    overflowing_slot: int


@dataclass(frozen=True)
class OverflowResolution:
    """What the background engine did with an overflow request."""

    group_address: int
    metadata_block: bytes
    reencoded: bool
    reencrypted: bool
    group_counter: int | None  # fresh counter when re-encrypted


class ReencryptionEngine:
    """Figure 7's re-encoding & re-encryption unit with overflow buffer.

    Requests are enqueued by the write path and drained in the
    background ("re-encryption can be performed without completely
    suspending the rest of the system", Section 5.2).  For each request
    the engine first attempts re-encoding (subtract delta_min); if
    delta_min is zero, the group is re-encrypted under its largest
    counter.
    """

    def __init__(self, layout: DeltaLayout | None = None,
                 buffer_capacity: int = 16) -> None:
        if buffer_capacity <= 0:
            raise ValueError("buffer_capacity must be positive")
        self.layout = _block_layout(layout)
        self._buffer: deque[OverflowRequest] = deque()
        self.buffer_capacity = buffer_capacity
        self.stats_reencodes = 0
        self.stats_reencryptions = 0
        self.stats_stalls = 0  # enqueue attempts that found a full buffer

    def enqueue(self, request: OverflowRequest) -> bool:
        """Add a request; returns False (a write-path stall) when full."""
        if len(self._buffer) >= self.buffer_capacity:
            self.stats_stalls += 1
            return False
        self._buffer.append(request)
        return True

    @property
    def pending(self) -> int:
        return len(self._buffer)

    def process_one(self) -> OverflowResolution | None:
        """Drain one request (one background 'turn')."""
        if not self._buffer:
            return None
        request = self._buffer.popleft()
        reference, deltas, _ = self.layout.unpack(request.metadata_block)
        delta_min = min(deltas)
        group_counter = None
        if delta_min > 0:
            # Re-encode: shift delta_min into the reference (Figure 5c).
            reference += delta_min
            deltas = [d - delta_min for d in deltas]
            self.stats_reencodes += 1
        else:
            # Re-encrypt under the largest counter (Figure 5a): the
            # overflowing slot's next value, which is reference + 2^bits.
            reference += 1 << self.layout.delta_bits
            deltas = [0] * self.layout.slots
            group_counter = reference
            self.stats_reencryptions += 1
        return OverflowResolution(
            group_address=request.group_address,
            metadata_block=self.layout.pack(reference, deltas),
            reencoded=group_counter is None,
            reencrypted=group_counter is not None,
            group_counter=group_counter,
        )

    def drain(self) -> list[OverflowResolution]:
        """Process everything pending."""
        out: list[OverflowResolution] = []
        while self._buffer:
            resolution = self.process_one()
            assert resolution is not None  # buffer was non-empty
            out.append(resolution)
        return out


def crosscheck_against_scheme(
    writes: Iterable[int], layout: DeltaLayout | None = None
) -> tuple[list[int], list[int]]:
    """Drive the three units with a write sequence and cross-check the
    final counters against :class:`DeltaCounters` (the simulation-speed
    implementation).  Returns (unit_counters, scheme_counters).

    Used by the test suite to prove the hardware-shaped datapath and the
    object model implement the same architecture.  The unit datapath
    processes overflows *synchronously* here (enqueue -> drain -> retry),
    matching the scheme's semantics; the asynchronous-buffer behaviour is
    tested separately.
    """
    layout = _block_layout(layout)
    decode = DecodeUnit(layout)
    increment = IncrementResetUnit(layout)
    engine = ReencryptionEngine(layout)
    block = layout.pack(0, [0] * layout.slots)

    scheme = DeltaCounters(
        layout.slots,
        blocks_per_group=layout.slots,
        delta_bits=layout.delta_bits,
        reference_bits=layout.reference_bits,
        enable_reset=True,
        enable_reencode=True,
    )
    for slot in writes:
        result = increment.increment(block, slot)
        if result.overflowed:
            engine.enqueue(
                OverflowRequest(
                    group_address=0,
                    metadata_block=block,
                    overflowing_slot=slot,
                )
            )
            resolution = engine.process_one()
            assert resolution is not None  # just enqueued
            block = resolution.metadata_block
            if not resolution.reencrypted:
                # Re-encode freed headroom: retry the pending increment.
                retry = increment.increment(block, slot)
                assert not retry.overflowed
                block = retry.metadata_block
            # On re-encryption the pending write is absorbed into the
            # group-wide fresh counter (every delta is 0, the written
            # block is encrypted under group_counter like its peers).
        else:
            block = result.metadata_block
        scheme.on_write(slot)

    unit_counters = decode.decode_all(block)
    scheme_counters = [scheme.counter(b) for b in range(layout.slots)]
    return unit_counters, scheme_counters


__all__ = [
    "PAPER_LAYOUT",
    "DecodeUnit",
    "IncrementResetUnit",
    "IncrementResult",
    "OverflowRequest",
    "OverflowResolution",
    "ReencryptionEngine",
    "crosscheck_against_scheme",
]
