"""Block quarantine: CE-history tracking, retirement, and spare remapping.

DRAM fails unevenly: a handful of weak cells or a failing row produce a
stream of correctable errors long before they produce an uncorrectable
one.  Production RAS stacks therefore *retire* chronically bad regions
(page offlining, PPR row repair, SecDDR-style remapping) instead of
correcting the same fault forever.  This module is that policy layer for
the secure-memory engine:

* every physical block accumulates a :class:`BlockHealth` history of
  CE/DUE events;
* a block whose CE count reaches ``ce_threshold`` (or DUE count reaches
  ``due_threshold``) is **retired**: its logical address is remapped to a
  block from a spare pool carved off the top of the protected region,
  and the physical block never serves traffic again;
* retired addresses are exported (``retired_addresses``) so the scrubber
  skips them;
* when the spare pool runs dry the map degrades gracefully: the block
  stays in service, flagged ``degraded``, still correcting on every read
  -- capacity is preserved at the price of recurring CE latency.

The map only does bookkeeping and address translation; actually moving
the data (re-encrypting it through the normal counter path) is the
runtime's job, because relocation must go through the engine's write
path to stay authenticated.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.lint.contracts import BLOCK_BYTES


class SparesExhausted(RuntimeError):
    """Retirement was requested but the spare pool is empty.

    Typed (rather than a ``None`` return) so callers cannot silently
    ignore the capacity event: the runtime catches it, bumps the
    ``resilience.spares_exhausted`` metric, and degrades gracefully; an
    uncaught escape names the logical block and pool size instead of
    failing opaquely downstream.  The logical block is marked degraded
    *before* raising, so even a careless caller leaves the map honest.
    """

    def __init__(self, logical: int, spare_blocks: int) -> None:
        super().__init__(
            f"cannot retire logical block {logical}: all "
            f"{spare_blocks} spare blocks are in use"
        )
        self.logical = logical
        self.spare_blocks = spare_blocks


@dataclass
class BlockHealth:
    """Per-physical-block error history."""

    ce_events: int = 0
    due_events: int = 0
    fault_classes: set[str] = field(default_factory=set)

    def record_ce(self, fault_class: str | None = None) -> None:
        self.ce_events += 1
        if fault_class:
            self.fault_classes.add(fault_class)

    def record_due(self, fault_class: str | None = None) -> None:
        self.due_events += 1
        if fault_class:
            self.fault_classes.add(fault_class)


class QuarantineMap:
    """Logical->physical block translation with spare-based retirement.

    Logical blocks ``0 .. capacity_blocks-1`` are the address space the
    runtime serves; physical blocks ``capacity_blocks .. total_blocks-1``
    form the spare pool.  The map starts as the identity and diverges as
    blocks are retired.
    """

    def __init__(
        self,
        total_blocks: int,
        spare_blocks: int,
        ce_threshold: int = 3,
        due_threshold: int = 1,
    ):
        if total_blocks <= 0:
            raise ValueError("total_blocks must be positive")
        if not 0 <= spare_blocks < total_blocks:
            raise ValueError("spare_blocks must be in [0, total_blocks)")
        if ce_threshold < 1 or due_threshold < 1:
            raise ValueError("thresholds must be >= 1")
        self.total_blocks = total_blocks
        self.spare_blocks = spare_blocks
        self.capacity_blocks = total_blocks - spare_blocks
        self.ce_threshold = ce_threshold
        self.due_threshold = due_threshold
        self._map: dict[int, int] = {}  # logical -> physical (non-identity)
        self._reverse: dict[int, int] = {}  # spare physical -> logical
        self._free_spares = deque(range(self.capacity_blocks, total_blocks))
        self._retired: dict[int, int] = {}  # physical -> logical it served
        self._degraded: set[int] = set()  # logical blocks we could not move
        self.health: dict[int, BlockHealth] = {}

    # -- translation --------------------------------------------------------

    def _check_logical(self, logical: int) -> None:
        if not 0 <= logical < self.capacity_blocks:
            raise IndexError(
                f"logical block {logical} outside capacity "
                f"({self.capacity_blocks} blocks)"
            )

    def physical(self, logical: int) -> int:
        """Physical block currently serving a logical block."""
        self._check_logical(logical)
        return self._map.get(logical, logical)

    def logical_of(self, physical: int) -> int | None:
        """Logical block a physical block serves (None if out of service)."""
        if physical in self._retired:
            return None
        if physical in self._reverse:
            return self._reverse[physical]
        if physical < self.capacity_blocks:
            return physical
        return None  # unused spare

    # -- health tracking ----------------------------------------------------

    def _health(self, physical: int) -> BlockHealth:
        return self.health.setdefault(physical, BlockHealth())

    def record_ce(self, physical: int, fault_class: str | None = None) -> bool:
        """Count one CE; True when the block just crossed its threshold."""
        health = self._health(physical)
        health.record_ce(fault_class)
        return (
            physical not in self._retired
            and health.ce_events >= self.ce_threshold
        )

    def record_due(self, physical: int, fault_class: str | None = None) -> bool:
        """Count one DUE; True when the block just crossed its threshold."""
        health = self._health(physical)
        health.record_due(fault_class)
        return (
            physical not in self._retired
            and health.due_events >= self.due_threshold
        )

    # -- retirement ---------------------------------------------------------

    def retire(self, logical: int) -> int:
        """Retire the block serving ``logical``; return its new physical
        block.  Raises :class:`SparesExhausted` when the pool is empty
        (the logical block is then marked degraded and keeps its current
        mapping)."""
        self._check_logical(logical)
        old_physical = self.physical(logical)
        if not self._free_spares:
            self._degraded.add(logical)
            raise SparesExhausted(logical, self.spare_blocks)
        spare = self._free_spares.popleft()
        self._retired[old_physical] = logical
        self._reverse.pop(old_physical, None)  # spare being re-retired
        self._map[logical] = spare
        self._reverse[spare] = logical
        self._degraded.discard(logical)
        return spare

    def is_retired(self, physical: int) -> bool:
        return physical in self._retired

    # -- journal replay (crash recovery) --------------------------------------

    def apply_retire(self, logical: int, old_physical: int, spare: int) -> None:
        """Idempotently replay a journaled retirement.

        Recovery replays every resilience record with ``lsn >=
        checkpoint.next_lsn`` -- but a checkpoint races the journal
        truncate, so a record the checkpoint already absorbed can be
        replayed on top of restored state.  Applying the *recorded*
        outcome (rather than calling :meth:`retire`, which would pop a
        fresh spare) makes the replay a fixed point: a double-replayed
        retire never consumes a second spare.
        """
        self._check_logical(logical)
        if (
            self._map.get(logical) == spare
            and self._retired.get(old_physical) == logical
        ):
            return  # already applied (checkpoint-absorbed or double replay)
        if spare in self._free_spares:
            self._free_spares.remove(spare)
        self._retired[old_physical] = logical
        self._reverse.pop(old_physical, None)
        self._map[logical] = spare
        self._reverse[spare] = logical
        self._degraded.discard(logical)

    def apply_degrade(self, logical: int) -> None:
        """Idempotently replay a journaled degrade (spares exhausted)."""
        self._check_logical(logical)
        self._degraded.add(logical)

    def is_degraded(self, logical: int) -> bool:
        return logical in self._degraded

    # -- exports ------------------------------------------------------------

    @property
    def retired_addresses(self) -> list[int]:
        """Byte addresses of retired physical blocks (scrubber skip list)."""
        return sorted(p * BLOCK_BYTES for p in self._retired)

    @property
    def retired_count(self) -> int:
        return len(self._retired)

    @property
    def degraded_count(self) -> int:
        return len(self._degraded)

    @property
    def spares_remaining(self) -> int:
        return len(self._free_spares)

    @property
    def remapped(self) -> dict[int, int]:
        """Current non-identity logical->physical mappings."""
        return dict(self._map)

    # -- durable state (persist checkpoints) ---------------------------------

    def state_dict(self) -> dict:
        """JSON-safe translation + health state for durable checkpoints.

        A crash must not resurrect a retired block (it would serve
        traffic from known-bad cells) nor forget a remapping (reads
        would hit the wrong physical block and fail authentication), so
        the whole map rides in every checkpoint.
        """
        return {
            "map": {str(k): v for k, v in sorted(self._map.items())},
            "free_spares": list(self._free_spares),
            "retired": {
                str(k): v for k, v in sorted(self._retired.items())
            },
            "degraded": sorted(self._degraded),
            "health": {
                str(physical): {
                    "ce": health.ce_events,
                    "due": health.due_events,
                    "classes": sorted(health.fault_classes),
                }
                for physical, health in sorted(self.health.items())
            },
        }

    def restore_state(self, state: dict) -> None:
        """Reload translation + health state (crash recovery)."""
        self._map = {int(k): v for k, v in state["map"].items()}
        self._reverse = {v: k for k, v in self._map.items()}
        self._free_spares = deque(state["free_spares"])
        self._retired = {int(k): v for k, v in state["retired"].items()}
        self._degraded = set(state["degraded"])
        self.health = {
            int(physical): BlockHealth(
                ce_events=entry["ce"],
                due_events=entry["due"],
                fault_classes=set(entry["classes"]),
            )
            for physical, entry in state["health"].items()
        }


__all__ = ["QuarantineMap", "BlockHealth", "SparesExhausted", "BLOCK_BYTES"]
