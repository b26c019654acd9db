"""The storage-fault taxonomy and its deterministic arming plans.

Both plans are armed on a :class:`~repro.faultfs.layer.FaultFS`, the
only place disk faults are injected: every durable file operation is
one numbered **step**, and a :class:`FaultPlan` arms a specific fault
kind at a specific step, so an exhaustive matrix (``repro crash``-style)
can re-run the same deterministic workload once per (step, kind) pair
and assert recovery from each.  (:mod:`repro.persist.store`'s
``CrashPlan`` arms power loss at the in-memory store's mutation steps,
a different step space.)  For long chaos campaigns,
:class:`FaultProfile` instead derives a per-step fault decision from a
seed with SplitMix64 -- no global RNG state, so two stores driven by
identical op sequences see identical faults regardless of scheduling.

Fault taxonomy (DESIGN section 14):

``EIO``
    The device refuses the operation; nothing is applied.
``ENOSPC``
    The device runs out of space mid-write; a torn prefix lands.
``SHORT_WRITE``
    A checked short write: a longer prefix lands, the caller sees the
    shortfall and raises.  Distinct from ``ENOSPC`` only in how much
    of the payload survives -- recovery must discard both.
``LOST_BEFORE_FSYNC``
    The write *appears* to succeed but the device quietly drops it:
    even a later ``fsync`` does not persist it, and it vanishes at the
    next simulated power loss.  (The lying-firmware / lost-FLUSH case
    that makes real barriers worth testing.)
``CRASH_RENAME``
    The atomic ``os.replace`` never lands; the destination keeps its
    old content and the caller sees the failure.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass

from repro.crypto.prf import splitmix64


class FaultKind(enum.Enum):
    EIO = "eio"
    ENOSPC = "enospc"
    SHORT_WRITE = "short_write"
    LOST_BEFORE_FSYNC = "lost_before_fsync"
    CRASH_RENAME = "crash_rename"


#: every kind, in declaration order (the catalog enumerates these)
FAULT_KINDS: tuple[FaultKind, ...] = tuple(FaultKind)


class StorageFault(OSError):
    """One injected storage fault, typed by kind and step.

    Subclasses :class:`OSError` so code written for real I/O errors
    handles an injected one identically; carries the structured fields
    the service's ``storage_fault`` refusal frame surfaces.
    """

    def __init__(
        self, kind: FaultKind, step: int, path: str, label: str = ""
    ) -> None:
        super().__init__(
            f"injected {kind.value} at fs step {step} on {path}"
            + (f" ({label})" if label else "")
        )
        self.kind = kind
        self.step = step
        self.path = path
        self.label = label


@dataclass(frozen=True)
class FaultSpec:
    """Arm one fault: at file-operation ``step``, inject ``kind``."""

    step: int
    kind: FaultKind

    def __post_init__(self) -> None:
        if self.step < 0:
            raise ValueError("step must be >= 0")


@dataclass(frozen=True)
class FaultPlan:
    """A fixed set of armed (step, kind) faults for one run.

    The matrix driver enumerates a clean run's step trace, then re-runs
    the workload once per armed step -- exactly the ``CrashPlan``
    discipline, extended from crash points to disk-fault points.
    """

    faults: tuple[FaultSpec, ...] = ()

    def __post_init__(self) -> None:
        steps = [spec.step for spec in self.faults]
        if len(steps) != len(set(steps)):
            raise ValueError("at most one fault per step")

    @classmethod
    def single(cls, step: int, kind: FaultKind) -> "FaultPlan":
        return cls(faults=(FaultSpec(step, kind),))

    def at(self, step: int) -> FaultKind | None:
        for spec in self.faults:
            if spec.step == step:
                return spec.kind
        return None


def _stream_seed(seed: int, stream: str) -> int:
    """A 64-bit per-stream seed, stable across processes.

    ``hash()`` is salted per interpreter; SHA-256 is not, so two shard
    workers deriving the same (seed, stream) agree on every decision.
    """
    digest = hashlib.sha256(
        f"repro.faultfs/{seed}/{stream}".encode()
    ).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class FaultProfile:
    """Rate-based deterministic arming for long chaos campaigns.

    Each (stream, step) pair maps through SplitMix64 to one 64-bit
    word; the fault fires when the word, as a fraction, falls under
    ``rate``, and the word also picks the kind.  ``warmup_steps``
    exempts the first operations of a store's life (provisioning the
    epoch-0 checkpoint) so campaigns fault steady-state traffic, not
    tenant creation.
    """

    seed: int = 0
    rate: float = 0.0
    kinds: tuple[FaultKind, ...] = (
        FaultKind.EIO, FaultKind.ENOSPC, FaultKind.SHORT_WRITE,
    )
    warmup_steps: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("rate must be in [0, 1]")
        if not self.kinds and self.rate > 0.0:
            raise ValueError("a faulting profile needs at least one kind")
        if self.warmup_steps < 0:
            raise ValueError("warmup_steps must be >= 0")

    def fault_at(self, stream: str, step: int) -> FaultKind | None:
        """The kind armed at ``step`` of ``stream``, or None."""
        if self.rate <= 0.0 or step < self.warmup_steps:
            return None
        word = splitmix64(_stream_seed(self.seed, stream) ^ (step + 1))
        if word / 2.0**64 >= self.rate:
            return None
        return self.kinds[splitmix64(word) % len(self.kinds)]


__all__ = [
    "FAULT_KINDS",
    "FaultKind",
    "FaultPlan",
    "FaultProfile",
    "FaultSpec",
    "StorageFault",
]
