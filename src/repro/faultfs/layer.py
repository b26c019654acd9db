"""FaultFS: the fault-injecting, barrier-tracking file layer.

Every durable mutation the service performs goes through one FaultFS
instance per store.  The layer does three jobs:

* **Step numbering + injection.**  Each operation is one numbered step;
  an armed :class:`FaultPlan` or :class:`FaultProfile` decides whether
  that step faults, and the layer
  applies the kind's on-disk semantics (nothing for ``EIO``, a torn
  prefix for ``ENOSPC``/``SHORT_WRITE``, ...) before raising
  :class:`StorageFault`.
* **Barrier tracking.**  A write is *volatile* until ``fsync(path)``
  lands its content and ``fsync_dir(parent)`` lands its directory
  entry -- the same two-barrier discipline a real journal needs.  The
  ``fsync`` calls are real ``os.fsync``\\ s (the caveat PR 7 documented
  is gone), and the layer additionally remembers which effects a
  barrier has not yet covered.
* **Simulated power loss.**  :meth:`crash` rolls back every effect no
  barrier covered: unsynced content reverts to its pre-image, unsynced
  created entries vanish, unsynced unlinks and renames un-happen.  A
  ``LOST_BEFORE_FSYNC`` fault marks a write *sticky-volatile*: later
  fsyncs silently skip it, so it still vanishes at the crash -- the
  lying-firmware case.

Which kinds can fire at which operations::

    write_bytes   EIO  ENOSPC  SHORT_WRITE  LOST_BEFORE_FSYNC
    touch         EIO  ENOSPC
    replace       EIO  CRASH_RENAME
    fsync         EIO
    unlink        EIO

A kind armed at a step whose operation cannot express it (for example
``CRASH_RENAME`` on a ``write_bytes``) injects nothing.  The layer keeps
no record of its steps (a tenant's store lives as long as the service);
a fault matrix that builds plans from a prior run records that run's
steps, one :class:`FsStep` each, by overriding :meth:`FaultFS._next`.
"""

from __future__ import annotations

import os
import pathlib
from dataclasses import dataclass

from repro.faultfs.plan import (
    FaultKind,
    FaultPlan,
    FaultProfile,
    StorageFault,
)
from repro.obs.metrics import MetricRegistry

#: operation name -> kinds it can express
_APPLICABLE: dict[str, frozenset[FaultKind]] = {
    "write_bytes": frozenset({
        FaultKind.EIO, FaultKind.ENOSPC, FaultKind.SHORT_WRITE,
        FaultKind.LOST_BEFORE_FSYNC,
    }),
    "touch": frozenset({FaultKind.EIO, FaultKind.ENOSPC}),
    "replace": frozenset({FaultKind.EIO, FaultKind.CRASH_RENAME}),
    "fsync": frozenset({FaultKind.EIO}),
    "unlink": frozenset({FaultKind.EIO}),
}


@dataclass(frozen=True)
class FsStep:
    """One file operation as the fault matrix sees it."""

    step: int
    op: str
    path: str
    injected: str | None = None  # FaultKind.value when this step faulted

    def can_inject(self, kind: FaultKind) -> bool:
        return kind in _APPLICABLE.get(self.op, frozenset())


class FaultFS:
    """One store's window onto the filesystem, with faults and barriers.

    ``plan`` arms exact steps; ``profile`` arms rate-based seeded
    faults for the ``stream`` this instance serves (typically the
    tenant id).  With neither, the layer is a pure barrier tracker.
    ``armed`` gates injection entirely -- recovery runs with the layer
    disarmed so a campaign's faults never hit the repair path.
    """

    def __init__(
        self,
        plan: FaultPlan | None = None,
        profile: FaultProfile | None = None,
        stream: str = "",
        registry: MetricRegistry | None = None,
        armed: bool = True,
    ) -> None:
        self.plan = plan
        self.profile = profile
        self.stream = stream
        self.armed = armed
        self.step = 0
        #: path -> pre-image content (None = file did not exist);
        #: cleared by fsync(path) unless the path is sticky-volatile
        self._dirty_content: dict[pathlib.Path, bytes | None] = {}
        #: path -> pre-image; entry change pending fsync_dir(parent)
        self._dirty_entries: dict[pathlib.Path, bytes | None] = {}
        #: LOST_BEFORE_FSYNC victims: fsync silently skips these
        self._sticky: set[pathlib.Path] = set()
        registry = registry if registry is not None else MetricRegistry()
        self._m_steps = registry.counter("faultfs.steps")
        self._m_injected = {
            kind: registry.counter(f"faultfs.injected.{kind.value}")
            for kind in FaultKind
        }
        self._m_fsyncs = registry.counter("faultfs.fsyncs")
        self._m_dir_fsyncs = registry.counter("faultfs.dir_fsyncs")
        self._m_crashes = registry.counter("faultfs.crashes")
        self._m_rolled_back = registry.counter("faultfs.rolled_back")

    # -- the step/injection engine -------------------------------------------

    def _next(self, op: str, path: pathlib.Path) -> tuple[int, FaultKind | None]:
        step = self.step
        self.step += 1
        self._m_steps.inc()
        kind: FaultKind | None = None
        if self.armed:
            if self.plan is not None:
                kind = self.plan.at(step)
            if kind is None and self.profile is not None:
                kind = self.profile.fault_at(self.stream, step)
        if kind is not None and kind not in _APPLICABLE.get(op, frozenset()):
            kind = None
        if kind is not None:
            self._m_injected[kind].inc()
        return step, kind

    def _remember(self, path: pathlib.Path, entry: bool) -> None:
        """Record ``path``'s pre-image before its first unsynced change."""
        book = self._dirty_entries if entry else self._dirty_content
        if path not in book:
            book[path] = path.read_bytes() if path.exists() else None

    # -- mutations ------------------------------------------------------------

    def write_bytes(self, path: pathlib.Path, payload: bytes) -> None:
        step, kind = self._next("write_bytes", path)
        existed = path.exists()
        self._remember(path, entry=not existed)
        if not existed:
            self._remember(path, entry=False)
        if kind is FaultKind.EIO:
            raise StorageFault(kind, step, str(path))
        if kind in (FaultKind.ENOSPC, FaultKind.SHORT_WRITE):
            # ENOSPC tears at half; a checked short write loses only the
            # tail byte -- recovery's CRC framing must discard both.
            keep = (
                max(1, len(payload) // 2)
                if kind is FaultKind.ENOSPC
                else max(1, len(payload) - 1)
            )
            path.write_bytes(payload[:keep])
            raise StorageFault(kind, step, str(path))
        path.write_bytes(payload)
        if kind is FaultKind.LOST_BEFORE_FSYNC:
            self._sticky.add(path)

    def touch(self, path: pathlib.Path) -> None:
        step, kind = self._next("touch", path)
        self._remember(path, entry=True)
        if kind is not None:
            raise StorageFault(kind, step, str(path))
        path.touch()

    def replace(self, source: pathlib.Path, target: pathlib.Path) -> None:
        """Atomic rename; durability pends on ``fsync_dir(parent)``."""
        step, kind = self._next("replace", target)
        self._remember(target, entry=True)
        self._remember(source, entry=True)
        if kind is not None:
            raise StorageFault(kind, step, str(target))
        os.replace(source, target)
        self._dirty_content.pop(source, None)
        self._sticky.discard(source)

    def unlink(self, path: pathlib.Path) -> None:
        step, kind = self._next("unlink", path)
        self._remember(path, entry=True)
        if kind is not None:
            raise StorageFault(kind, step, str(path))
        path.unlink(missing_ok=True)
        self._dirty_content.pop(path, None)
        self._sticky.discard(path)

    # -- barriers -------------------------------------------------------------

    def fsync(self, path: pathlib.Path) -> None:
        """Persist ``path``'s content (a real ``os.fsync``)."""
        step, kind = self._next("fsync", path)
        if kind is not None:
            raise StorageFault(kind, step, str(path))
        if path.exists():
            fd = os.open(path, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
        self._m_fsyncs.inc()
        if path not in self._sticky:
            self._dirty_content.pop(path, None)

    def fsync_dir(self, directory: pathlib.Path) -> None:
        """Persist ``directory``'s entries (create/unlink/rename)."""
        fd = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
        self._m_dir_fsyncs.inc()
        for path in [
            p for p in self._dirty_entries if p.parent == directory
        ]:
            if path not in self._sticky:
                del self._dirty_entries[path]

    # -- reads (never injected; step-free) ------------------------------------

    def read_bytes(self, path: pathlib.Path) -> bytes:
        return path.read_bytes()

    def mkdir(self, path: pathlib.Path) -> None:
        path.mkdir(parents=True, exist_ok=True)

    # -- simulated power loss --------------------------------------------------

    def crash(self) -> int:
        """Roll back every effect no barrier covered; returns the count.

        After this, the directory holds exactly what a power loss at
        this instant could have preserved -- ``load_file_store`` plus
        the recovery state machine must rebuild a consistent store
        from it.
        """
        self._m_crashes.inc()
        rolled = 0
        # Entries first (creates/unlinks/renames), then content: a
        # created file with dirty content resolves to "never existed".
        for path, pre in self._dirty_entries.items():
            rolled += 1
            if pre is None:
                path.unlink(missing_ok=True)
            else:
                path.write_bytes(pre)
        for path, pre in self._dirty_content.items():
            if path in self._dirty_entries:
                continue
            rolled += 1
            if pre is None:
                path.unlink(missing_ok=True)
            else:
                path.write_bytes(pre)
        self._dirty_entries.clear()
        self._dirty_content.clear()
        self._sticky.clear()
        self._m_rolled_back.inc(rolled)
        return rolled


__all__ = ["FaultFS", "FsStep"]
