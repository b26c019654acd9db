"""EngineStack: fast × durable × resilient × observed, composed.

The subsystems each wrap one
:class:`~repro.core.engine.secure_memory.SecureMemory`, and until this
module they were mutually exclusive in practice.  ``EngineStack`` builds
the one blessed composition over a *single* engine:

1. **observed** -- one :class:`~repro.obs.metrics.MetricRegistry`
   underneath everything, so every layer's metrics land in one plane;
2. **core + durable** -- the ``SecureMemory`` data path, with an
   optional :class:`~repro.persist.manager.PersistenceManager` attached
   (write-ahead journal + epoch checkpoints over a
   :class:`~repro.persist.store.DurableStore`);
3. **fast** -- a :class:`~repro.fast.batch_memory.BatchSecureMemory`
   facade over the *same* engine; with durability attached each flushed
   write run seals as one group-commit journal transaction;
4. **resilient** -- a :class:`~repro.resilience.runtime.ResilientMemory`
   on top: logical->physical translation through the quarantine map,
   staged recovery reads, CE/DUE retirement, error logging.

Layer-ordering rules the constructor enforces by construction:

* durability attaches to the core engine, *below* batching -- the batch
  facade mirrors into the engine's open transaction, never the reverse;
* address indirection sits *above* batching: the stack translates
  logical addresses at queue time, so the batch queue and the journal
  only ever see physical addresses (what recovery replays);
* reads drain the batch queue first (writes acknowledge before any
  read observes them) and then go through the resilient read path when
  present -- recovery-policy reads are inherently scalar, and the batch
  read path defers to scalar fallbacks whenever a perturb hook is
  installed, so nothing is lost by routing around it.

Crash recovery composes the same way: :meth:`EngineStack.recover`
rebuilds the engine from the store via the persist state machine, then
re-wraps it and replays the recovered resilience events idempotently.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.core.engine.config import EngineConfig
from repro.core.engine.secure_memory import ReadResult, SecureMemory
from repro.fast.batch_memory import BatchSecureMemory
from repro.obs.metrics import MetricRegistry, get_registry
from repro.persist.config import DurabilityConfig
from repro.persist.manager import PersistenceManager
from repro.persist.recovery import RecoveryReport
from repro.persist.recovery import recover as _recover_engine
from repro.persist.store import DurableStore
from repro.resilience.recovery import RecoveredRead
from repro.resilience.runtime import ResilientMemory


class EngineStack:
    """One secure memory that is fast, durable, and fault-tolerant.

    ``resilience`` is ``None`` (layer off) or a dict of
    :class:`ResilientMemory` keyword options (``spare_blocks``,
    ``ce_threshold``, ``due_threshold``, ``retry_policy``,
    ``errlog_capacity``); an empty dict enables the layer with defaults.

    Addresses are *logical* when the resilient layer is on (capacity
    shrinks by the spare pool), physical otherwise.  ``read`` returns a
    :class:`RecoveredRead` when resilient, else a :class:`ReadResult`.
    """

    def __init__(
        self,
        config: EngineConfig | None = None,
        key: bytes | None = None,
        *,
        fast: bool = True,
        kernel_mode: str = "fast",
        durability: DurabilityConfig | None = None,
        store: DurableStore | None = None,
        resilience: dict[str, Any] | None = None,
        registry: MetricRegistry | None = None,
        _engine: SecureMemory | None = None,
    ) -> None:
        if _engine is not None:
            registry = registry if registry is not None else _engine.registry
            engine = _engine
        else:
            if config is None or key is None:
                raise ValueError("config and key are required")
            registry = registry if registry is not None else get_registry()
            engine = SecureMemory(config, key, registry=registry)
            if durability is not None:
                engine.attach_persistence(
                    PersistenceManager(
                        durability, store=store, registry=registry
                    )
                )
        self.registry = registry
        self.engine = engine
        self.batch: BatchSecureMemory | None = (
            BatchSecureMemory(engine, mode=kernel_mode)
            if fast
            else None
        )
        self.resilient: ResilientMemory | None = (
            ResilientMemory(memory=engine, registry=registry, **resilience)
            if resilience is not None
            else None
        )
        self._m_writes = registry.counter("stack.writes")
        self._m_reads = registry.counter("stack.reads")
        self._m_flushes = registry.counter("stack.flushes")
        self._m_recoveries = registry.counter("stack.recoveries")

    # -- geometry -----------------------------------------------------------

    @property
    def persist(self) -> PersistenceManager | None:
        return self.engine.persist

    @property
    def capacity_blocks(self) -> int:
        """Blocks the stack serves (logical when resilient)."""
        if self.resilient is not None:
            return self.resilient.capacity_blocks
        return self.engine.scheme.total_blocks

    def _physical(self, address: int) -> int:
        if self.resilient is not None:
            return self.resilient.physical_address(address)
        return address

    # -- data path ----------------------------------------------------------

    def write(self, address: int, data: bytes) -> None:
        """Write one block: queued (fast) until :meth:`flush` seals it.

        Without the fast layer the write goes straight through (and,
        with durability, seals its own scalar transaction).
        """
        self._m_writes.inc()
        if self.batch is not None:
            self.batch.queue_write(self._physical(address), data)
        elif self.resilient is not None:
            self.resilient.write(address, data)
        else:
            self.engine.write(address, data)

    def write_many(self, writes: Iterable[tuple[int, bytes]]) -> None:
        """Queue a write run and flush it -- one group-commit txn."""
        for address, data in writes:
            self.write(address, data)
        self.flush()

    def flush(self) -> None:
        """Drain the batch queue; the acknowledgement point for writes."""
        if self.batch is not None:
            self._m_flushes.inc()
            self.batch.flush()

    def read(self, address: int) -> RecoveredRead | ReadResult:
        """Read one block through the top of the stack.

        Pending writes flush first: a read observes every write queued
        before it, and (with durability) only acknowledged state.
        """
        self._m_reads.inc()
        self.flush()
        if self.resilient is not None:
            return self.resilient.read(address)
        if self.batch is not None:
            return self.batch.read_many([address])[0]
        return self.engine.read(address)

    # -- durability ---------------------------------------------------------

    def checkpoint(self) -> None:
        """Force an epoch checkpoint (flushing pending writes first)."""
        if self.engine.persist is None:
            raise ValueError("no persistence attached to this stack")
        self.flush()
        self.engine.persist.checkpoint()

    @classmethod
    def recover(
        cls,
        store: DurableStore,
        config: EngineConfig,
        key: bytes,
        *,
        fast: bool = True,
        kernel_mode: str = "fast",
        durability: DurabilityConfig | None = None,
        resilience: dict[str, Any] | None = None,
        registry: MetricRegistry | None = None,
    ) -> tuple["EngineStack", RecoveryReport]:
        """Rebuild a full stack from a (possibly crashed) durable store.

        Runs the persist recovery state machine to restore the engine,
        re-wraps it in the same layer order, and replays the recovered
        resilience events (checkpoint snapshot, then journaled
        retire/degrade records) through the idempotent ``apply_*``
        path.  Returns ``(stack, report)``.
        """
        registry = registry if registry is not None else get_registry()
        engine, report = _recover_engine(
            store, config, key, durability=durability, registry=registry
        )
        stack = cls(
            fast=fast,
            kernel_mode=kernel_mode,
            resilience=resilience,
            registry=registry,
            _engine=engine,
        )
        if stack.resilient is not None:
            stack.resilient.restore_resilience(report.resilience_events)
        stack._m_recoveries.inc()
        return stack, report


__all__ = ["EngineStack"]
