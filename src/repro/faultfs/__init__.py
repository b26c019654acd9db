"""Deterministic, seedable storage-fault injection (ISSUE 9).

Two halves:

* :mod:`repro.faultfs.plan` -- the fault taxonomy (:class:`FaultKind`),
  the step-armed :class:`FaultPlan`, the rate-based seeded
  :class:`FaultProfile`, and the :class:`StorageFault` exception every
  injected fault raises;
* :mod:`repro.faultfs.layer` -- :class:`FaultFS`, the file layer the
  service's :class:`~repro.service.storage.FileStore` routes every
  durable mutation through, and the only place either plan is armed.
  It numbers each file operation as one **step**, injects the armed
  fault at that step, tracks which writes an ``fsync`` barrier has
  made durable, and can simulate power loss (:meth:`FaultFS.crash`) by
  rolling every unsynced effect back.
"""

from repro.faultfs.layer import FaultFS, FsStep
from repro.faultfs.plan import (
    FAULT_KINDS,
    FaultKind,
    FaultPlan,
    FaultProfile,
    FaultSpec,
    StorageFault,
)

__all__ = [
    "FAULT_KINDS",
    "FaultFS",
    "FaultKind",
    "FaultPlan",
    "FaultProfile",
    "FaultSpec",
    "FsStep",
    "StorageFault",
]
