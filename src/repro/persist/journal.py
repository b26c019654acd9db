"""CRC-framed write-ahead records: the journal's on-device format.

One committed engine write = one :class:`TxnRecord`, a *physical redo*
record carrying everything the transaction made durable: the ciphertext
and lane word of every block the write stored, the new
serialized counter metadata of every group it touched, the resulting
Bonsai root digest, and the scheme epoch.  Replaying the sealed records
in LSN order on top of the last checkpoint therefore reconstructs the
exact durable state -- no undo pass is needed, because an unsealed or
torn record is simply discarded (the transaction never acknowledged).

:class:`ResilienceRecord` rides the same journal for the resilience
plane: quarantine retirements and error-log appends, so a crash cannot
resurrect a retired block or lose the CE history that retired it.

Framing: each record serializes to canonical JSON (sorted keys, bytes as
hex) followed by a little-endian CRC32 of the payload.  A torn append
fails the CRC and is indistinguishable from a record that never landed
-- which is precisely the semantics a redo journal needs.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field
from typing import Any

from repro.persist.store import DurableStore

_CRC_BYTES = 4


class RecordCorrupt(ValueError):
    """A journal payload failed its CRC or schema check."""


@dataclass(frozen=True)
class DataImage:
    """Durable image of one data block: ciphertext plus its lane word
    (the Figure 2 ECC word with MAC-in-ECC, the bare MAC otherwise)."""

    ciphertext: bytes
    lane: int | None = None

    def to_json(self) -> dict[str, Any]:
        return {"ct": self.ciphertext.hex(), "lane": self.lane}

    @classmethod
    def from_json(cls, obj: dict[str, Any]) -> DataImage:
        ciphertext = bytes.fromhex(obj["ct"])
        if "lane" in obj:
            return cls(ciphertext, obj["lane"])
        # Images written before the lane word kept the ECC word as 8
        # little-endian bytes (MAC-in-ECC) or the bare MAC as an int.
        ecc = obj["ecc"]
        if ecc is not None:
            return cls(ciphertext, int.from_bytes(bytes.fromhex(ecc), "little"))
        return cls(ciphertext, obj["mac"])


@dataclass(frozen=True)
class TxnRecord:
    """One committed write transaction (physical redo).

    ``writes`` counts the engine-level writes the record covers: 1 for a
    scalar ``engine.write``, N for a group-commit record sealing a whole
    batched flush.  Redo does not care (a record replays atomically
    either way); the field exists so recovery tooling and the crash
    matrix can tell group-commit frames apart, and so a torn frame is
    known to take its whole batch with it.
    """

    lsn: int
    data: dict[int, DataImage]  # block index -> stored image
    meta: dict[int, bytes]  # group index -> serialized counter metadata
    root: int  # Bonsai root digest after the transaction
    scheme_epoch: int = 0
    writes: int = 1

    kind = "txn"

    def to_json(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "lsn": self.lsn,
            "data": {str(b): img.to_json() for b, img in self.data.items()},
            "meta": {str(g): m.hex() for g, m in self.meta.items()},
            "root": self.root,
            "scheme_epoch": self.scheme_epoch,
            "writes": self.writes,
        }

    @classmethod
    def from_json(cls, obj: dict[str, Any]) -> TxnRecord:
        return cls(
            lsn=obj["lsn"],
            data={
                int(b): DataImage.from_json(img)
                for b, img in obj["data"].items()
            },
            meta={int(g): bytes.fromhex(m) for g, m in obj["meta"].items()},
            root=obj["root"],
            scheme_epoch=obj.get("scheme_epoch", 0),
            writes=obj.get("writes", 1),
        )


@dataclass(frozen=True)
class ResilienceRecord:
    """One resilience-plane event (quarantine action or errlog append)."""

    lsn: int
    event: str  # "retire" | "degrade" | "errlog"
    payload: dict[str, Any] = field(default_factory=dict)

    kind = "resilience"

    def to_json(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "lsn": self.lsn,
            "event": self.event,
            "payload": self.payload,
        }

    @classmethod
    def from_json(cls, obj: dict[str, Any]) -> ResilienceRecord:
        return cls(
            lsn=obj["lsn"], event=obj["event"], payload=obj["payload"]
        )


JournalRecord = TxnRecord | ResilienceRecord

_KINDS: dict[str, Any] = {
    TxnRecord.kind: TxnRecord,
    ResilienceRecord.kind: ResilienceRecord,
}


def encode_record(record: JournalRecord) -> bytes:
    """Serialize one record to its CRC-framed byte payload."""
    body = json.dumps(
        record.to_json(), sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    return body + zlib.crc32(body).to_bytes(_CRC_BYTES, "little")


def decode_record(payload: bytes) -> JournalRecord:
    """Parse one framed payload; raises :class:`RecordCorrupt` on a torn
    or otherwise invalid record."""
    if len(payload) <= _CRC_BYTES:
        raise RecordCorrupt("payload shorter than its CRC frame")
    body, crc = payload[:-_CRC_BYTES], payload[-_CRC_BYTES:]
    if zlib.crc32(body) != int.from_bytes(crc, "little"):
        raise RecordCorrupt("CRC mismatch (torn write)")
    try:
        obj = json.loads(body.decode("utf-8"))
        return _KINDS[obj["kind"]].from_json(obj)
    except (KeyError, ValueError, TypeError) as err:
        raise RecordCorrupt(f"malformed record: {err}") from err


@dataclass
class JournalScan:
    """Outcome of scanning the journal region after a (possible) crash."""

    records: list[JournalRecord] = field(default_factory=list)
    discarded_torn: int = 0  # failed CRC / flagged torn
    discarded_unsealed: int = 0  # payload intact but commit mark missing

    @property
    def last_lsn(self) -> int:
        return self.records[-1].lsn if self.records else -1


def scan_journal(store: DurableStore) -> JournalScan:
    """Read back every *committed* record, in append order.

    The scan stops at the first unsealed or corrupt slot and discards it
    together with anything after it: appends are strictly sequential and
    each record is sealed before the next append, so a bad slot can only
    be the in-flight tail of the crashed transaction.
    """
    scan = JournalScan()
    for slot in store.journal:
        if slot.torn:
            scan.discarded_torn += 1
            break
        if not slot.sealed:
            scan.discarded_unsealed += 1
            break
        try:
            scan.records.append(decode_record(slot.payload))
        except RecordCorrupt:
            scan.discarded_torn += 1
            break
    return scan


__all__ = [
    "DataImage",
    "JournalRecord",
    "JournalScan",
    "RecordCorrupt",
    "ResilienceRecord",
    "TxnRecord",
    "decode_record",
    "encode_record",
    "scan_journal",
]
