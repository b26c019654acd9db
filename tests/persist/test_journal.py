"""Journal records, CRC framing, the durable store's crash engine."""

import pytest

from repro.persist.journal import (
    DataImage,
    RecordCorrupt,
    ResilienceRecord,
    TxnRecord,
    decode_record,
    encode_record,
    scan_journal,
)
from repro.persist.crashsim import RecordingStore
from repro.persist.store import CrashPlan, DurableStore, SimulatedCrash


def make_txn(lsn=0, root=0xDEAD):
    return TxnRecord(
        lsn=lsn,
        data={
            3: DataImage(ciphertext=b"\xaa" * 64, ecc=b"\x01" * 8),
            7: DataImage(ciphertext=b"\xbb" * 64, mac=0x1234),
        },
        meta={0: b"\x10\x20\x30"},
        root=root,
        scheme_epoch=2,
    )


class TestRecordFraming:
    def test_txn_round_trip(self):
        record = make_txn()
        back = decode_record(encode_record(record))
        assert isinstance(back, TxnRecord)
        assert back == record

    def test_resilience_round_trip(self):
        record = ResilienceRecord(
            lsn=9, event="retire", payload={"logical": 4, "spare": 30}
        )
        assert decode_record(encode_record(record)) == record

    def test_data_image_lanes_survive(self):
        """Both MAC lanes (packed ECC field vs separate tag) must carry
        through the hex JSON framing."""
        back = decode_record(encode_record(make_txn()))
        assert back.data[3].ecc == b"\x01" * 8 and back.data[3].mac is None
        assert back.data[7].mac == 0x1234 and back.data[7].ecc is None

    @pytest.mark.parametrize("cut", [1, 4, 20])
    def test_truncated_payload_fails_crc(self, cut):
        payload = encode_record(make_txn())
        with pytest.raises(RecordCorrupt):
            decode_record(payload[:-cut])

    def test_flipped_bit_fails_crc(self):
        payload = bytearray(encode_record(make_txn()))
        payload[10] ^= 0x40
        with pytest.raises(RecordCorrupt):
            decode_record(bytes(payload))

    def test_empty_payload_rejected(self):
        with pytest.raises(RecordCorrupt):
            decode_record(b"")


class TestDurableStoreSteps:
    def test_steps_number_sequentially_and_trace(self):
        store = RecordingStore()
        store.journal_append(b"abcd", "r0")
        store.journal_seal(0, "r0")
        store.journal_truncate()
        assert [r.step for r in store.trace] == [0, 1, 2]
        assert store.trace[0].tearable  # payload write
        assert not store.trace[1].tearable  # seal is atomic
        assert not store.trace[2].tearable  # truncate is atomic

    def test_skip_crash_leaves_no_trace_of_the_write(self):
        store = DurableStore(plan=CrashPlan(0, "skip"))
        with pytest.raises(SimulatedCrash) as excinfo:
            store.journal_append(b"abcd", "r0")
        assert excinfo.value.step == 0
        assert store.journal == []

    def test_torn_crash_leaves_a_flagged_prefix(self):
        store = DurableStore(plan=CrashPlan(0, "torn"))
        with pytest.raises(SimulatedCrash):
            store.journal_append(b"abcdefgh", "r0")
        assert len(store.journal) == 1
        slot = store.journal[0]
        assert slot.torn and not slot.sealed
        assert slot.payload == b"abcd"

    def test_torn_on_atomic_step_degrades_to_skip(self):
        store = DurableStore()
        store.journal_append(b"abcd", "r0")
        store.plan = CrashPlan(1, "torn")
        with pytest.raises(SimulatedCrash):
            store.journal_seal(0, "r0")
        assert not store.journal[0].sealed

    def test_crash_point_is_deterministic(self):
        """The same arming against the same call sequence crashes at the
        same step with the same label -- the matrix's whole premise."""
        outcomes = []
        for _ in range(2):
            store = DurableStore(plan=CrashPlan(2, "skip"))
            store.journal_append(b"a", "r0")
            store.journal_seal(0, "r0")
            with pytest.raises(SimulatedCrash) as excinfo:
                store.journal_append(b"b", "r1")
            outcomes.append((excinfo.value.step, excinfo.value.label))
        assert outcomes[0] == outcomes[1] == (2, "journal.append[r1]")


class TestShadowSlots:
    def test_slots_alternate(self):
        store = DurableStore()
        assert store.inactive_slot() == 0
        store.checkpoint_write(0, b"cp0", 0)
        store.checkpoint_seal(0, 0)
        assert store.inactive_slot() == 1
        store.checkpoint_write(1, b"cp1", 1)
        store.checkpoint_seal(1, 1)
        # Both sealed: the older epoch is the one to overwrite.
        assert store.inactive_slot() == 0

    def test_previous_epoch_survives_a_torn_overwrite(self):
        store = DurableStore()
        store.checkpoint_write(0, b"cp0", 0)
        store.checkpoint_seal(0, 0)
        store.plan = CrashPlan(2, "torn")
        with pytest.raises(SimulatedCrash):
            store.checkpoint_write(1, b"cp1-longer", 1)
        sealed = store.sealed_checkpoints()
        assert [s.epoch for s in sealed] == [0]
        assert sealed[0].payload == b"cp0"

    def test_sealed_checkpoints_newest_first(self):
        store = DurableStore()
        for epoch in (0, 1):
            slot = store.inactive_slot()
            store.checkpoint_write(slot, b"x", epoch)
            store.checkpoint_seal(slot, epoch)
        assert [s.epoch for s in store.sealed_checkpoints()] == [1, 0]


class TestJournalScan:
    def seal_record(self, store, record):
        index = store.journal_append(encode_record(record), "r")
        store.journal_seal(index, "r")

    def test_scan_reads_committed_records_in_order(self):
        store = DurableStore()
        for lsn in range(3):
            self.seal_record(store, make_txn(lsn=lsn))
        scan = scan_journal(store)
        assert [r.lsn for r in scan.records] == [0, 1, 2]
        assert scan.discarded_torn == scan.discarded_unsealed == 0

    def test_scan_discards_unsealed_tail(self):
        store = DurableStore()
        self.seal_record(store, make_txn(lsn=0))
        store.journal_append(encode_record(make_txn(lsn=1)), "r1")  # no seal
        scan = scan_journal(store)
        assert [r.lsn for r in scan.records] == [0]
        assert scan.discarded_unsealed == 1

    def test_scan_discards_torn_tail(self):
        store = DurableStore()
        self.seal_record(store, make_txn(lsn=0))
        store.plan = CrashPlan(store.step, "torn")
        with pytest.raises(SimulatedCrash):
            store.journal_append(encode_record(make_txn(lsn=1)), "r1")
        scan = scan_journal(store)
        assert [r.lsn for r in scan.records] == [0]
        assert scan.discarded_torn == 1

    def test_last_lsn_on_empty_journal(self):
        assert scan_journal(DurableStore()).last_lsn == -1


class TestCrashPlanValidation:
    def test_negative_step_rejected(self):
        with pytest.raises(ValueError):
            CrashPlan(-1)

    def test_unknown_phase_rejected(self):
        with pytest.raises(ValueError):
            CrashPlan(0, "melt")
