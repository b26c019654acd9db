"""Shadow-paged epoch checkpoints and the manager's write-ahead cadence."""

import pytest

from repro.obs.metrics import MetricRegistry
from repro.persist.checkpoint import (
    Checkpoint,
    decode_checkpoint,
    encode_checkpoint,
    load_latest_checkpoint,
    write_checkpoint,
)
from repro.persist.config import DurabilityConfig
from repro.persist.journal import DataImage, RecordCorrupt
from repro.persist.manager import PersistenceManager
from repro.persist.store import CrashPlan, DurableStore, SimulatedCrash


def make_checkpoint(epoch=0, next_lsn=5):
    return Checkpoint(
        epoch=epoch,
        next_lsn=next_lsn,
        data={2: DataImage(ciphertext=b"\xcc" * 64, lane=77)},
        meta={0: b"\x01\x02"},
        root=0xBEEF,
        scheme_epoch=1,
        resilience={"quarantine": {"retired": 3}},
    )


class TestCheckpointCodec:
    def test_round_trip(self):
        checkpoint = make_checkpoint()
        assert decode_checkpoint(encode_checkpoint(checkpoint)) == checkpoint

    def test_torn_body_fails_crc(self):
        payload = encode_checkpoint(make_checkpoint())
        with pytest.raises(RecordCorrupt):
            decode_checkpoint(payload[: len(payload) // 2])


class TestShadowWriteProtocol:
    def test_write_seals_and_truncates(self):
        store = DurableStore()
        store.journal_append(b"stale", "r0")
        store.journal_seal(0, "r0")
        write_checkpoint(store, make_checkpoint(epoch=0))
        assert store.live_records == 0
        loaded = load_latest_checkpoint(store)
        assert loaded is not None and loaded.epoch == 0

    def test_newest_valid_epoch_wins(self):
        store = DurableStore()
        write_checkpoint(store, make_checkpoint(epoch=0, next_lsn=3))
        write_checkpoint(store, make_checkpoint(epoch=1, next_lsn=9))
        loaded = load_latest_checkpoint(store)
        assert loaded.epoch == 1 and loaded.next_lsn == 9

    def test_torn_new_epoch_falls_back_to_previous(self):
        store = DurableStore()
        write_checkpoint(store, make_checkpoint(epoch=0))
        store.plan = CrashPlan(store.step, "torn")
        with pytest.raises(SimulatedCrash):
            write_checkpoint(store, make_checkpoint(epoch=1))
        loaded = load_latest_checkpoint(store)
        assert loaded is not None and loaded.epoch == 0

    def test_empty_store_has_no_checkpoint(self):
        assert load_latest_checkpoint(DurableStore()) is None


class TestPersistenceManager:
    def make_manager(self, **config):
        registry = MetricRegistry()
        manager = PersistenceManager(
            DurabilityConfig(**config), registry=registry
        )
        manager.bind(lambda: {"root": 0xF00D})
        return manager, registry

    def commit_one(self, manager, lsn_block=1):
        manager.begin_txn()
        manager.record_data(
            lsn_block, DataImage(ciphertext=b"\x11" * 64, lane=5)
        )
        manager.record_meta(0, b"\x07")
        return manager.commit_txn(root=0xF00D)

    def test_bootstrap_seals_epoch_zero_once(self):
        manager, _ = self.make_manager()
        manager.bootstrap()
        assert manager.epoch == 1  # epoch 0 sealed, counter advanced
        sealed = manager.store.sealed_checkpoints()
        assert [s.epoch for s in sealed] == [0]
        manager.bootstrap()  # idempotent on a provisioned store
        assert [s.epoch for s in manager.store.sealed_checkpoints()] == [0]

    def test_commit_is_append_plus_seal(self):
        manager, registry = self.make_manager(checkpoint_interval=0)
        manager.bootstrap()
        assert self.commit_one(manager) == 0
        assert self.commit_one(manager) == 1
        assert registry.counter("persist.txn.commit").value == 2
        assert registry.counter("persist.journal.seal").value == 2
        assert registry.gauge("persist.journal.live_records").value == 2

    def test_txn_protocol_enforced(self):
        manager, _ = self.make_manager()
        with pytest.raises(RuntimeError):
            manager.record_data(0, DataImage(ciphertext=b"\x00" * 64))
        with pytest.raises(RuntimeError):
            manager.commit_txn(root=0)
        manager.begin_txn()
        with pytest.raises(RuntimeError):
            manager.begin_txn()

    def test_abort_drops_the_open_txn_without_journaling(self):
        manager, registry = self.make_manager(checkpoint_interval=0)
        manager.bootstrap()
        manager.begin_txn()
        manager.record_data(0, DataImage(ciphertext=b"\x22" * 64, lane=1))
        manager.abort_txn()
        assert not manager.in_txn
        assert registry.counter("persist.journal.append").value == 0
        # A fresh txn opens cleanly afterwards.
        assert self.commit_one(manager) == 0

    def test_checkpoint_interval_folds_the_journal(self):
        manager, registry = self.make_manager(checkpoint_interval=3)
        manager.bootstrap()
        for _ in range(3):
            self.commit_one(manager)
        assert manager.store.live_records == 0
        assert manager.epoch == 2  # bootstrap + cadence checkpoint
        assert registry.counter("persist.checkpoint.write").value == 2

    def test_journal_capacity_forces_a_checkpoint(self):
        manager, _ = self.make_manager(
            checkpoint_interval=0, journal_capacity_records=2
        )
        manager.bootstrap()
        self.commit_one(manager)
        assert manager.store.live_records == 1
        self.commit_one(manager)
        assert manager.store.live_records == 0  # capacity hit, folded

    def test_force_checkpoint_on_commit(self):
        manager, _ = self.make_manager(checkpoint_interval=0)
        manager.bootstrap()
        manager.begin_txn()
        manager.record_meta(0, b"\x07")
        manager.commit_txn(root=1, force_checkpoint=True)
        assert manager.store.live_records == 0

    def test_resilience_records_share_the_lsn_sequence(self):
        manager, _ = self.make_manager(checkpoint_interval=0)
        manager.bootstrap()
        assert self.commit_one(manager) == 0
        assert manager.append_resilience("retire", {"logical": 9}) == 1
        assert self.commit_one(manager) == 2

    def test_resume_continues_lsn_and_epoch(self):
        manager, _ = self.make_manager(checkpoint_interval=0)
        manager.resume(next_lsn=17, epoch=4)
        assert manager.next_lsn == 17 and manager.epoch == 4
        assert self.commit_one(manager) == 17
