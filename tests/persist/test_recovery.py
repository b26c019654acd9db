"""The recovery state machine, end-to-end against a real engine."""

import pytest

from repro.core.engine.config import preset
from repro.core.engine.secure_memory import SecureMemory
from repro.obs.metrics import MetricRegistry
from repro.persist.config import DurabilityConfig
from repro.persist.crashsim import RecordingStore
from repro.persist.journal import TxnRecord, encode_record
from repro.persist.manager import PersistenceManager
from repro.persist.recovery import RecoveryError, RecoveryPhase, recover
from repro.persist.store import CrashPlan, DurableStore, SimulatedCrash

REGION = 2 * 64 * 64  # 2 groups of 64 blocks


def engine_config(name="combined", **scheme_kwargs):
    scheme_kwargs = scheme_kwargs or {"delta_bits": 2}
    return preset(
        name,
        protected_bytes=REGION,
        scheme_kwargs=scheme_kwargs,
        keystream_mode="splitmix",
    )


def durable_engine(key48, store=None, interval=4):
    registry = MetricRegistry()
    engine = SecureMemory(engine_config(), key48, registry=registry)
    manager = PersistenceManager(
        DurabilityConfig(checkpoint_interval=interval),
        store=store,
        registry=registry,
    )
    engine.attach_persistence(manager)
    return engine, manager


def writes(n, stride=1):
    return [(i * stride % (REGION // 64) * 64, bytes([i % 256]) * 64)
            for i in range(n)]


class TestCleanRecovery:
    def test_recovery_reproduces_every_acked_write(self, key48):
        engine, manager = durable_engine(key48)
        state = {}
        for address, data in writes(11, stride=7):
            engine.write(address, data)
            state[address] = data
        recovered, report = recover(
            manager.store, engine_config(), key48,
            registry=MetricRegistry(),
        )
        for address, data in state.items():
            assert recovered.read(address).data == data
        assert report.root_verified
        assert report.root_rebuilt == engine.tree.root_digest()

    def test_report_phases_cover_the_machine(self, key48):
        engine, manager = durable_engine(key48)
        engine.write(0, b"\x42" * 64)
        _, report = recover(
            manager.store, engine_config(), key48,
            registry=MetricRegistry(),
        )
        assert report.phases == [p.value for p in RecoveryPhase]

    def test_recovered_engine_resumes_lsn_and_epoch(self, key48):
        engine, manager = durable_engine(key48, interval=0)
        for address, data in writes(5):
            engine.write(address, data)
        recovered, report = recover(
            manager.store, engine_config(), key48,
            registry=MetricRegistry(),
        )
        assert report.resume_next_lsn == manager.next_lsn
        assert report.resume_epoch > manager.epoch
        # New writes journal under fresh LSNs and authenticate.
        recovered.write(64, b"\x99" * 64)
        assert recovered.read(64).data == b"\x99" * 64

    def test_recovery_replays_only_post_checkpoint_records(self, key48):
        engine, manager = durable_engine(key48, interval=4)
        for address, data in writes(6):
            engine.write(address, data)  # checkpoint after write 4
        _, report = recover(
            manager.store, engine_config(), key48,
            registry=MetricRegistry(),
        )
        assert report.redo_records == 2
        assert report.checkpoint_next_lsn == 4


class TestCrashedRecovery:
    def crashed_store(self, key48, plan, n_writes=6):
        store = DurableStore()
        engine, _ = durable_engine(key48, store=store, interval=4)
        store.plan = plan
        acked = {}
        for address, data in writes(n_writes):
            try:
                engine.write(address, data)
            except SimulatedCrash:
                break
            acked[address] = data
        store.plan = None
        return store, acked

    def find_step(self, key48, label_prefix, occurrence=0):
        """Nth store step whose label starts with ``label_prefix`` in an
        uncrashed run of the same write sequence."""
        store = RecordingStore()
        engine, _ = durable_engine(key48, store=store, interval=4)
        for address, data in writes(6):
            engine.write(address, data)
        matches = [
            r.step for r in store.trace if r.label.startswith(label_prefix)
        ]
        assert len(matches) > occurrence, f"no step labelled {label_prefix}*"
        return matches[occurrence]

    def test_torn_append_discards_only_the_unacked_tail(self, key48):
        step = self.find_step(key48, "journal.append[lsn=2]")
        store, acked = self.crashed_store(key48, CrashPlan(step, "torn"))
        recovered, report = recover(
            store, engine_config(), key48, registry=MetricRegistry(),
        )
        assert report.discarded_torn == 1
        assert report.root_verified
        for address, data in acked.items():
            assert recovered.read(address).data == data

    def test_crash_between_seal_and_truncate_skips_absorbed(self, key48):
        # Occurrence 0 is the bootstrap checkpoint's truncate (journal
        # still empty); occurrence 1 is the cadence checkpoint's, which
        # has four absorbed commits sitting in the journal.
        step = self.find_step(key48, "journal.truncate", occurrence=1)
        store, _ = self.crashed_store(key48, CrashPlan(step, "skip"))
        _, report = recover(
            store, engine_config(), key48, registry=MetricRegistry(),
        )
        # The checkpoint sealed but the journal kept its absorbed prefix.
        assert report.skipped_absorbed > 0
        assert report.root_verified


class TestRecoveryRefusals:
    def test_records_without_checkpoint_is_corruption(self, key48):
        store = DurableStore()
        payload = encode_record(TxnRecord(lsn=0, data={}, meta={}, root=0))
        store.journal_append(payload, "r0")
        store.journal_seal(0, "r0")
        with pytest.raises(RecoveryError) as excinfo:
            recover(store, engine_config(), key48, registry=MetricRegistry())
        assert excinfo.value.phase is RecoveryPhase.LOAD_CHECKPOINT

    def test_lsn_gap_is_refused(self, key48):
        engine, manager = durable_engine(key48, interval=0)
        for address, data in writes(4):
            engine.write(address, data)
        del manager.store.journal[1]  # silently lose lsn=1
        with pytest.raises(RecoveryError) as excinfo:
            recover(
                manager.store, engine_config(), key48,
                registry=MetricRegistry(),
            )
        assert excinfo.value.phase is RecoveryPhase.REDO

    def test_root_mismatch_is_refused(self, key48):
        engine, manager = durable_engine(key48, interval=0)
        for address, data in writes(3):
            engine.write(address, data)
        # Forge the last record's root: redo rebuilds honestly, so the
        # verify phase must catch the disagreement.
        slot = manager.store.journal[-1]
        from repro.persist.journal import decode_record
        record = decode_record(slot.payload)
        forged = TxnRecord(
            lsn=record.lsn, data=record.data, meta=record.meta,
            root=record.root ^ 1, scheme_epoch=record.scheme_epoch,
        )
        slot.payload = encode_record(forged)
        with pytest.raises(RecoveryError) as excinfo:
            recover(
                manager.store, engine_config(), key48,
                registry=MetricRegistry(),
            )
        assert excinfo.value.phase is RecoveryPhase.VERIFY


class TestPreBootstrapCrash:
    def test_empty_store_rebootstraps(self, key48):
        """A crash before the epoch-0 checkpoint sealed acknowledged
        nothing; the empty state is the consistent state."""
        store = DurableStore(plan=CrashPlan(0, "skip"))
        registry = MetricRegistry()
        engine = SecureMemory(engine_config(), key48, registry=registry)
        manager = PersistenceManager(
            DurabilityConfig(), store=store, registry=registry
        )
        with pytest.raises(SimulatedCrash):
            engine.attach_persistence(manager)
        store.plan = None
        recovered, report = recover(
            store, engine_config(), key48, registry=MetricRegistry(),
        )
        assert report.root_verified
        assert report.redo_records == 0
        recovered.write(0, b"\x17" * 64)
        assert recovered.read(0).data == b"\x17" * 64


class TestRecoveryMetrics:
    def test_counters_reflect_the_run(self, key48):
        engine, manager = durable_engine(key48, interval=0)
        for address, data in writes(5):
            engine.write(address, data)
        registry = MetricRegistry()
        recover(manager.store, engine_config(), key48, registry=registry)
        assert registry.counter("recovery.run").value == 1
        assert registry.counter("recovery.redo.records").value == 5
        assert registry.counter("recovery.verify.root_ok").value == 1
        assert registry.counter("recovery.verify.fail").value == 0
