"""FileStore: a :class:`DurableStore` mirrored onto a real directory.

The persist subsystem models stable storage in memory so the crash
matrix can tear writes deterministically.  A *service* worker can be
``SIGKILL``\\ ed for real, so its durable state must live on disk: this
subclass mirrors every mutation into the tenant's persist directory
through a :class:`~repro.faultfs.layer.FaultFS` layer, then applies it
to the in-memory model (keeping every invariant the recovery machine
relies on).  Disk first: if the device refuses the mutation with a
:class:`~repro.faultfs.plan.StorageFault`, the in-memory model stays
untouched and the store remains usable for the retry.

Layout under ``root``::

    journal/00000000.rec        appended record payload
    journal/00000000.sealed     empty marker: the atomic commit mark
    ckpt0.bin / ckpt1.bin       shadow checkpoint slot bodies
    ckpt0.meta / ckpt1.meta     slot epoch (JSON)
    ckpt0.sealed / ckpt1.sealed empty marker: the slot's seal

Durability barriers (ISSUE 9; the "no fsync" caveat is gone):

* ``journal_seal`` fsyncs the record payload, creates the seal marker,
  and fsyncs the journal directory -- only then is the write
  acknowledgeable, so power loss at any earlier point leaves at worst
  an unsealed (or torn) record that
  :func:`repro.persist.journal.scan_journal` already discards.
* ``checkpoint_write`` stages the slot body in a temp file and lands it
  with an atomic ``os.replace`` after an fsync, so a crash mid-rewrite
  never shows a half-new body under an old seal; ``checkpoint_seal``
  fsyncs the marker's directory entry.

The CRC framing inside each record payload catches a partially flushed
``.rec`` file the same way it catches a simulated torn write, so
:func:`load_file_store` never needs to distinguish the two.
"""

from __future__ import annotations

import json
import pathlib

from repro.faultfs.layer import FaultFS
from repro.persist.store import CheckpointSlot, DurableStore, JournalSlot

_SLOT_COUNT = 2


class FileStore(DurableStore):
    """Durable store whose journal and checkpoint slots live on disk.

    Disk crashes and faults are armed only on its :class:`FaultFS`
    layer (``fs``).
    """

    def __init__(
        self, root: str | pathlib.Path, fs: FaultFS | None = None
    ) -> None:
        super().__init__()
        self.root = pathlib.Path(root)
        self.fs = fs if fs is not None else FaultFS()
        self.journal_dir = self.root / "journal"
        self.fs.mkdir(self.journal_dir)

    # -- path helpers -------------------------------------------------------

    def _record_path(self, index: int) -> pathlib.Path:
        return self.journal_dir / f"{index:08d}.rec"

    def _seal_path(self, index: int) -> pathlib.Path:
        return self.journal_dir / f"{index:08d}.sealed"

    def _slot_paths(
        self, slot: int
    ) -> tuple[pathlib.Path, pathlib.Path, pathlib.Path]:
        base = self.root / f"ckpt{slot}"
        return (
            base.with_suffix(".bin"),
            base.with_suffix(".meta"),
            base.with_suffix(".sealed"),
        )

    # -- mirrored mutations -------------------------------------------------

    def journal_append(self, payload: bytes, label: str) -> int:
        self.fs.write_bytes(self._record_path(len(self.journal)), payload)
        return super().journal_append(payload, label)

    def journal_seal(self, index: int, label: str) -> None:
        # Barrier order: payload durable, then the marker, then the
        # marker's directory entry -- the ack point.
        self.fs.fsync(self._record_path(index))
        self.fs.touch(self._seal_path(index))
        self.fs.fsync_dir(self.journal_dir)
        super().journal_seal(index, label)

    def journal_truncate(self) -> None:
        for path in sorted(self.journal_dir.iterdir()):
            self.fs.unlink(path)
        self.fs.fsync_dir(self.journal_dir)
        super().journal_truncate()

    def checkpoint_write(self, slot: int, payload: bytes, epoch: int) -> None:
        body, meta, seal = self._slot_paths(slot)
        # Unseal first: a kill between the marker removal and the body
        # landing must leave the slot invalid, never half-new-half-sealed.
        self.fs.unlink(seal)
        self.fs.fsync_dir(self.root)
        staging = body.with_suffix(".tmp")
        self.fs.write_bytes(staging, payload)
        self.fs.fsync(staging)
        self.fs.replace(staging, body)
        self.fs.write_bytes(meta, json.dumps({"epoch": epoch}).encode())
        self.fs.fsync(meta)
        super().checkpoint_write(slot, payload, epoch)

    def checkpoint_seal(self, slot: int, epoch: int) -> None:
        _, _, seal = self._slot_paths(slot)
        self.fs.touch(seal)
        self.fs.fsync_dir(self.root)
        super().checkpoint_seal(slot, epoch)


def load_file_store(
    root: str | pathlib.Path, fs: FaultFS | None = None
) -> FileStore:
    """Rebuild a :class:`FileStore` from a (possibly killed) directory.

    A payload file without its seal marker loads as an unsealed slot;
    recovery's scan discards it, the same as a crash between append and
    seal in the in-memory model.  Checkpoint slots load the same way.
    ``fs`` becomes the rebuilt store's fault layer for *future*
    mutations; loading itself only reads.
    """
    store = FileStore(root, fs=fs)
    for rec_path in sorted(store.journal_dir.glob("*.rec")):
        index = int(rec_path.stem)
        # Indexes are dense by construction (appends mirror a list);
        # re-append in sorted order reproduces the list positions.
        while len(store.journal) < index:
            # A vanished payload with later survivors cannot happen
            # without external tampering; represent it as an unsealed
            # hole so the scan's tail discipline still applies.
            store.journal.append(JournalSlot(payload=b"", sealed=False))
        store.journal.append(JournalSlot(payload=b"", sealed=False))
        store.journal[index].payload = rec_path.read_bytes()
        store.journal[index].sealed = store._seal_path(index).exists()
    for slot in range(_SLOT_COUNT):
        body, meta, seal = store._slot_paths(slot)
        if not body.exists() or not meta.exists():
            continue
        target: CheckpointSlot = store.slots[slot]
        target.payload = body.read_bytes()
        target.epoch = int(json.loads(meta.read_text())["epoch"])
        target.sealed = seal.exists()
    return store


__all__ = ["FileStore", "load_file_store"]
