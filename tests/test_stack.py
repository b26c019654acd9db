"""EngineStack: the blessed fast × durable × resilient composition.

The layer-interaction tests live in the subsystem suites (batch vs
scalar equivalence, crash matrices, the torture campaign); this file
pins the *composition contract*: construction rules, group-commit
acknowledgement, and full-stack crash recovery -- including the
regression where quarantine state had to survive two back-to-back
crashes with no intervening full-stack checkpoint.
"""

from __future__ import annotations

import pytest

from repro.core.engine.config import preset
from repro.core.engine.secure_memory import ReadResult
from repro.obs.metrics import MetricRegistry
from repro.persist.config import DurabilityConfig
from repro.persist.store import DurableStore
from repro.resilience.recovery import RecoveredRead
from repro.stack import EngineStack
from tests.fast.conftest import engine_state

KEY = bytes(range(48))
REGION = 8 * 1024  # 128 blocks


def _config():
    return preset(
        "combined",
        protected_bytes=REGION,
        keystream_mode="splitmix",
        scheme_kwargs={"delta_bits": 3},
    )


#: explicit checkpoints only -- the journal carries everything between
#: crashes, which is exactly what the two-crash regression needs
MANUAL = DurabilityConfig(
    checkpoint_interval=0,
    journal_capacity_records=0,
    checkpoint_on_global_reencrypt=False,
)


def _payload(block, salt=0):
    return bytes((block * 37 + salt + i) & 0xFF for i in range(64))


def _full_stack(store=None):
    return EngineStack(
        _config(),
        KEY,
        fast=True,
        durability=MANUAL,
        store=store if store is not None else DurableStore(),
        resilience={"spare_blocks": 2, "ce_threshold": 1},
        registry=MetricRegistry(),
    )


class TestComposition:
    def test_full_stack_round_trip(self):
        stack = _full_stack()
        # Logical capacity shrinks by the spare pool.
        assert stack.capacity_blocks == 128 - 2
        writes = [(block * 64, _payload(block)) for block in range(6)]
        stack.write_many(writes)
        for block in range(6):
            result = stack.read(block * 64)
            assert isinstance(result, RecoveredRead)
            assert result.ok and result.data == _payload(block)

    def test_plain_stack_returns_engine_reads(self):
        stack = EngineStack(_config(), KEY, registry=MetricRegistry())
        stack.write_many([(0, _payload(0))])
        assert isinstance(stack.read(0), ReadResult)

    def test_write_many_seals_one_group_commit(self):
        stack = _full_stack()
        stack.write_many([(block * 64, _payload(block)) for block in range(5)])
        totals = stack.registry.snapshot().totals()
        assert totals.get("persist.group_commit.txns") == 1
        assert totals.get("persist.group_commit.writes") == 5
        assert totals.get("stack.writes") == 5
        assert totals.get("stack.flushes") == 1

    def test_bad_logical_address_fails_the_run_before_any_store(self):
        """Every logical address translates before the batch runs: one
        out of range fails the whole run with nothing stored, journaled
        or counted."""
        store = DurableStore()
        stack = _full_stack(store)
        stack.write_many([(0, _payload(0))])
        state = engine_state(stack.engine)
        journal = [(slot.payload, slot.sealed) for slot in store.journal]
        writes = stack.registry.snapshot().totals().get("stack.writes")
        bad = stack.capacity_blocks * 64
        with pytest.raises(ValueError):
            stack.write_many([(64, _payload(1)), (bad, _payload(2))])
        assert engine_state(stack.engine) == state
        assert [(slot.payload, slot.sealed) for slot in store.journal] == (
            journal
        )
        assert stack.registry.snapshot().totals().get("stack.writes") == (
            writes
        )

    def test_checkpoint_requires_persistence(self):
        stack = EngineStack(_config(), KEY, registry=MetricRegistry())
        with pytest.raises(ValueError):
            stack.checkpoint()

    def test_constructor_requires_config_and_key(self):
        with pytest.raises(ValueError):
            EngineStack(registry=MetricRegistry())


class TestRecovery:
    def test_recover_restores_acknowledged_writes(self):
        store = DurableStore()
        stack = _full_stack(store)
        stack.write_many(
            [(block * 64, _payload(block, salt=9)) for block in range(8)]
        )
        del stack  # crash: the volatile stack is gone, the store survives
        recovered, report = EngineStack.recover(
            store,
            _config(),
            KEY,
            durability=MANUAL,
            resilience={"spare_blocks": 2, "ce_threshold": 1},
            registry=MetricRegistry(),
        )
        assert report.root_verified
        for block in range(8):
            result = recovered.read(block * 64)
            assert result.ok and result.data == _payload(block, salt=9)
        totals = recovered.registry.snapshot().totals()
        assert totals.get("stack.recoveries") == 1

    def test_retirement_survives_two_crashes_without_checkpoint(self):
        """Regression: the resume checkpoint snapshots a bare engine, so
        recovery must re-journal the recovered resilience fold -- else
        the *second* crash recovers a map with the retired block back in
        service (serving traffic from known-bad cells)."""
        store = DurableStore()
        stack = _full_stack(store)
        stack.write_many(
            [(block * 64, _payload(block)) for block in range(4)]
        )
        # A stuck fault on block 3: the first read takes a CE through
        # flip-and-check, crosses ce_threshold=1, and retires the block
        # (journaled immediately, no checkpoint follows).
        stack.resilient.inject_fault(
            3 * 64, data_bits=[17], persistence="stuck",
            fault_class="stuck_at",
        )
        result = stack.read(3 * 64)
        assert result.ok and result.data == _payload(3)
        assert stack.resilient.quarantine.retired_count == 1
        spare_physical = stack.resilient.quarantine.physical(3)
        assert spare_physical != 3

        # crash #1 -> recover -> crash #2 immediately (no checkpoint)
        surviving = None
        for crash in range(2):
            del stack
            stack, report = EngineStack.recover(
                store,
                _config(),
                KEY,
                durability=MANUAL,
                resilience={"spare_blocks": 2, "ce_threshold": 1},
                registry=MetricRegistry(),
            )
            assert report.root_verified
            quarantine = stack.resilient.quarantine
            assert quarantine.is_retired(3), (
                f"retired block resurrected after crash #{crash + 1}"
            )
            assert quarantine.physical(3) == spare_physical
            assert quarantine.spares_remaining == 1  # no double consume
            surviving = stack.read(3 * 64)
            assert surviving.ok and surviving.data == _payload(3)
