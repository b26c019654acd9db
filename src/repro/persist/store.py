"""The simulated stable-storage device, with deterministic crash points.

Everything the engine wants to survive a crash goes through this object:
a bounded append-only *journal region* and two shadow *checkpoint slots*.
Each durable mutation is one numbered **step**; a :class:`CrashPlan` can
arm any step, and the store then raises :class:`SimulatedCrash` either
*before* the mutation applies (phase ``"skip"``) or after applying only a
torn prefix of it (phase ``"torn"``, for the multi-byte writes a real
device cannot make atomic).  Because the engine above is deterministic,
re-running the same workload against a store armed at the same step
reproduces the same crash state bit-for-bit -- that is what makes the
crash matrix (and ``repro crash --point``) exhaustive rather than
probabilistic.

Atomicity model (documented in DESIGN section 9):

* journal record *payloads* and checkpoint *bodies* are multi-byte and
  can tear;
* the one-byte seal marks (journal-record seal, checkpoint seal) and the
  journal truncate are atomic, like an 8-byte aligned store with a write
  barrier in front of it;
* the two checkpoint slots alternate (shadow paging), so the previous
  epoch stays valid until the new one's seal lands.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class SimulatedCrash(Exception):
    """Raised by an armed :class:`DurableStore` at its crash point."""

    def __init__(self, step: int, phase: str, label: str) -> None:
        super().__init__(f"simulated crash at step {step} ({phase}) {label}")
        self.step = step
        self.phase = phase
        self.label = label


@dataclass(frozen=True)
class CrashPlan:
    """Arm one crash: at ``step``, crash with ``phase``.

    ``"skip"`` crashes before the step's mutation applies (power lost
    just ahead of the write); ``"torn"`` applies a partial prefix first
    (power lost mid-write).  Arming ``"torn"`` on an atomic step behaves
    like ``"skip"``.
    """

    step: int
    phase: str = "skip"

    def __post_init__(self) -> None:
        if self.step < 0:
            raise ValueError("step must be >= 0")
        if self.phase not in ("skip", "torn"):
            raise ValueError("phase must be 'skip' or 'torn'")


@dataclass
class JournalSlot:
    """One appended journal record as the device stores it."""

    payload: bytes
    sealed: bool = False
    torn: bool = False


@dataclass
class CheckpointSlot:
    """One of the two shadow checkpoint areas."""

    payload: bytes = b""
    epoch: int = -1
    sealed: bool = False
    torn: bool = False


@dataclass
class DurableStore:
    """Journal region + shadow checkpoint slots with numbered steps."""

    plan: CrashPlan | None = None
    journal: list[JournalSlot] = field(default_factory=list)
    slots: tuple[CheckpointSlot, CheckpointSlot] = field(
        default_factory=lambda: (CheckpointSlot(), CheckpointSlot())
    )
    step: int = 0

    # -- the step/crash engine ----------------------------------------------

    def _mutate(self, label, tearable, apply_full, apply_torn=None):
        step = self.step
        self.step += 1
        plan = self.plan
        if plan is not None and plan.step == step:
            if plan.phase == "torn" and tearable and apply_torn is not None:
                apply_torn()
            raise SimulatedCrash(step, plan.phase, label)
        apply_full()

    # -- journal region ------------------------------------------------------

    def journal_append(self, payload: bytes, label: str) -> int:
        """Write one record's payload (tearable); returns its slot index."""
        index = len(self.journal)

        def full() -> None:
            self.journal.append(JournalSlot(payload=payload))

        def torn() -> None:
            half = payload[: max(1, len(payload) // 2)]
            self.journal.append(JournalSlot(payload=half, torn=True))

        self._mutate(f"journal.append[{label}]", True, full, torn)
        return index

    def journal_seal(self, index: int, label: str) -> None:
        """Atomically mark one appended record valid (the commit point)."""

        def full() -> None:
            self.journal[index].sealed = True

        self._mutate(f"journal.seal[{label}]", False, full)

    def journal_truncate(self) -> None:
        """Atomically drop every journal record (post-checkpoint)."""

        def full() -> None:
            self.journal.clear()

        self._mutate("journal.truncate", False, full)

    @property
    def live_records(self) -> int:
        return len(self.journal)

    # -- checkpoint slots ----------------------------------------------------

    def inactive_slot(self) -> int:
        """The shadow slot a new checkpoint must be written to."""
        a, b = self.slots
        if not a.sealed:
            return 0
        if not b.sealed:
            return 1
        return 0 if a.epoch < b.epoch else 1

    def checkpoint_write(self, slot: int, payload: bytes, epoch: int) -> None:
        """Write a checkpoint body into a slot (tearable, unseals it)."""
        target = self.slots[slot]

        def full() -> None:
            target.payload = payload
            target.epoch = epoch
            target.sealed = False
            target.torn = False

        def torn() -> None:
            target.payload = payload[: max(1, len(payload) // 2)]
            target.epoch = epoch
            target.sealed = False
            target.torn = True

        self._mutate(f"checkpoint.write[epoch={epoch}]", True, full, torn)

    def checkpoint_seal(self, slot: int, epoch: int) -> None:
        """Atomically validate a written checkpoint slot."""
        target = self.slots[slot]

        def full() -> None:
            target.sealed = True

        self._mutate(f"checkpoint.seal[epoch={epoch}]", False, full)

    def sealed_checkpoints(self) -> list[CheckpointSlot]:
        """Sealed, untorn slots, newest epoch first."""
        valid = [s for s in self.slots if s.sealed and not s.torn]
        return sorted(valid, key=lambda s: s.epoch, reverse=True)


__all__ = [
    "CheckpointSlot",
    "CrashPlan",
    "DurableStore",
    "JournalSlot",
    "SimulatedCrash",
]
