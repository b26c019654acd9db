"""The central metric catalog: every dotted metric name, declared once.

Rationale (ISSUE 3 / RL003): a typo'd metric name does not crash -- it
silently creates a *parallel* metric that no report, no dashboard and no
exhibit ever reads.  This module enumerates every metric the stack may
register, with its kind and the traffic class it contributes to, and is
consumed from three directions:

* :mod:`repro.obs.report` derives its traffic-breakdown classes from the
  ``traffic_class`` column instead of a private table;
* the ``RL003`` checker in :mod:`repro.lint.checkers.rl003_metrics`
  resolves every literal metric name in the source tree against it, so
  a typo is a lint error instead of a silently-empty dashboard;
* DESIGN.md section 7's metric -> exhibit map documents the same names.

Dynamically named families (one metric per probe site, per counter
scheme, per error outcome) are covered either by enumerating the closed
set of instances (counter schemes, error outcomes) or, for genuinely
open sets, by a prefix entry (``probe.*``).

This module must not import anything above the metrics plane: checkers
and reports both pull it in.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class MetricSpec:
    """One declared metric name (or ``prefix.*`` family)."""

    name: str
    kind: str  # "counter" | "gauge" | "histogram"
    description: str
    traffic_class: str | None = None  # report section, if a DRAM class

    @property
    def is_family(self) -> bool:
        return self.name.endswith(".*")

    @property
    def prefix(self) -> str:
        """The dotted prefix of a family entry (with trailing dot)."""
        return self.name[:-1]  # "probe.*" -> "probe."


def _engine_specs() -> list[MetricSpec]:
    return [
        MetricSpec("engine.read.total", "counter", "authenticated reads"),
        MetricSpec("engine.read.mac_check", "counter", "MAC verifications"),
        MetricSpec("engine.read.mac_fail", "counter",
                   "MAC mismatches (integrity faults)"),
        MetricSpec("engine.read.tree_fail", "counter",
                   "Bonsai-tree verification failures"),
        MetricSpec("engine.read.correction", "counter",
                   "data blocks healed by flip-and-check"),
        MetricSpec("engine.read.mac_self_correction", "counter",
                   "stored MACs healed by their Hamming bits"),
        MetricSpec("engine.write.total", "counter", "authenticated writes"),
        MetricSpec("engine.write.group_reencrypt", "counter",
                   "whole-group re-encryptions on counter overflow"),
        MetricSpec("engine.traffic.demand_read", "counter",
                   "demand data reads", traffic_class="data"),
        MetricSpec("engine.traffic.demand_write", "counter",
                   "demand data writes", traffic_class="data"),
        MetricSpec("engine.traffic.counter_fetch", "counter",
                   "counter-block DRAM reads", traffic_class="counter"),
        MetricSpec("engine.traffic.tree_fetch", "counter",
                   "interior-node DRAM reads", traffic_class="tree"),
        MetricSpec("engine.traffic.mac_fetch", "counter",
                   "separate-MAC DRAM reads", traffic_class="mac"),
        MetricSpec("engine.traffic.metadata_writeback", "counter",
                   "metadata write-backs",
                   traffic_class="metadata writeback"),
        MetricSpec("engine.traffic.reencrypt_block", "counter",
                   "blocks rewritten by re-encryption",
                   traffic_class="re-encryption"),
    ]


#: Per-scheme counter events; one full set per counter representation.
COUNTER_SCHEMES = ("monolithic", "split", "delta", "dual_length")
_COUNTER_EVENTS = {
    "write": "counter-bump requests",
    "increment": "plain increments",
    "reset": "converged-delta resets (Figure 5b)",
    "reencode": "delta re-encodes (Figure 5c)",
    "widen": "dual-length widenings (Figure 6)",
    "reencrypt": "group re-encryptions (Figure 5a)",
    "global_reencrypt": "whole-memory re-encryptions",
}


def _counter_specs() -> list[MetricSpec]:
    out = []
    for scheme in COUNTER_SCHEMES + ("",):  # "" = bare CounterStats views
        prefix = f"counters.{scheme}" if scheme else "counters"
        for event, description in _COUNTER_EVENTS.items():
            out.append(
                MetricSpec(
                    f"{prefix}.{event}", "counter",
                    f"{scheme or 'scheme'}: {description}",
                )
            )
    return out


def _memsim_specs() -> list[MetricSpec]:
    cache = [
        MetricSpec(f"cache.{n}", "counter", d)
        for n, d in [
            ("read_hit", "cache read hits"),
            ("read_miss", "cache read misses"),
            ("write_hit", "cache write hits"),
            ("write_miss", "cache write misses"),
            ("writeback", "dirty evictions written back"),
        ]
    ]
    dram = [
        MetricSpec(f"dram.{n}", "counter", d)
        for n, d in [
            ("read", "DRAM read transactions"),
            ("write", "DRAM write transactions"),
            ("row_hit", "row-buffer hits"),
            ("row_closed", "accesses to a closed row"),
            ("row_conflict", "row-buffer conflicts"),
            ("latency_total", "summed access latency (cycles)"),
            ("busy_cycles", "bank-busy cycles"),
            ("refresh_stall", "accesses delayed by refresh"),
        ]
    ]
    ctrl = [
        MetricSpec(f"dram.ctrl.{n}", "counter", d)
        for n, d in [
            ("serviced", "requests scheduled by FR-FCFS"),
            ("row_hit", "scheduled as row hits"),
            ("row_closed", "scheduled against a closed row"),
            ("row_conflict", "scheduled as row conflicts"),
            ("latency_total", "summed queue+service latency"),
            ("reordered", "serviced before an older request"),
        ]
    ]
    return cache + dram + ctrl


def _resilience_specs() -> list[MetricSpec]:
    outcomes = [
        "ce_retry", "ce_mac_repair", "ce_flip_and_check",
        "due", "sdc", "retired", "degraded",
    ]
    out = [
        MetricSpec(f"resilience.outcome.{o}", "counter",
                   f"error events resolved as {o}")
        for o in outcomes
    ]
    out += [
        MetricSpec("resilience.cycles_spent", "counter",
                   "recovery cycles charged"),
        MetricSpec("resilience.spares_remaining", "gauge",
                   "spare blocks left in the quarantine pool"),
        MetricSpec("scrub.blocks_scanned", "counter",
                   "blocks swept by the parity scrubber"),
        MetricSpec("scrub.blocks_skipped", "counter",
                   "quarantined blocks skipped by the scrubber"),
        MetricSpec("scrub.data_parity_fail", "counter",
                   "scrub-detected data parity failures"),
        MetricSpec("scrub.mac_parity_fail", "counter",
                   "scrub-detected MAC parity failures"),
        MetricSpec("scrub.repair_read", "counter",
                   "full authenticated re-reads issued by scrub"),
        MetricSpec("resilience.errlog.evicted", "counter",
                   "error-log records rotated out of the bounded window"),
        MetricSpec("resilience.spares_exhausted", "counter",
                   "retirements refused because the spare pool was empty"),
    ]
    return out


def _fast_specs() -> list[MetricSpec]:
    """The batched-kernel plane: kernel table and batch facade."""
    return [
        MetricSpec("fast.kernel.calls", "counter",
                   "batched kernel invocations"),
        MetricSpec("fast.kernel.blocks", "counter",
                   "blocks processed by batched kernels"),
        MetricSpec("fast.paranoid.checks", "counter",
                   "fast/reference kernel cross-checks"),
        MetricSpec("fast.paranoid.divergence", "counter",
                   "kernel cross-check divergences (must stay zero)"),
        MetricSpec("fast.paranoid.sampled", "counter",
                   "kernel calls selected by the cross-check schedule "
                   "(every call when paranoid, 1-in-N when sampled:N)"),
        MetricSpec("fast.paranoid.skipped", "counter",
                   "kernel calls the sampled:N schedule let through "
                   "unchecked"),
        MetricSpec("fast.batch.reads", "counter",
                   "reads queued through the batch facade"),
        MetricSpec("fast.batch.writes", "counter",
                   "writes queued through the batch facade"),
        MetricSpec("fast.batch.flushes", "counter",
                   "batch queue flushes"),
        MetricSpec("fast.batch.groups", "counter",
                   "block-group commits performed by batch flushes"),
        MetricSpec("fast.fallback.scalar", "counter",
                   "reads and re-encryptions of non-clean blocks handed "
                   "back to the scalar engine"),
    ]


def _persist_specs() -> list[MetricSpec]:
    """The durability plane: write-ahead journal, checkpoints, recovery."""
    return [
        MetricSpec("persist.txn.commit", "counter",
                   "journaled write transactions sealed (the ack point)"),
        MetricSpec("persist.txn.abort", "counter",
                   "open transactions dropped before sealing"),
        MetricSpec("persist.group_commit.txns", "counter",
                   "group-commit transactions sealed (one per batch "
                   "flush covering >1 write)"),
        MetricSpec("persist.group_commit.writes", "counter",
                   "engine-level writes amortized into group commits"),
        MetricSpec("persist.txn.data_blocks", "counter",
                   "data-block images carried by committed records"),
        MetricSpec("persist.txn.meta_groups", "counter",
                   "counter-metadata blocks carried by committed records"),
        MetricSpec("persist.journal.append", "counter",
                   "journal record payload writes"),
        MetricSpec("persist.journal.seal", "counter",
                   "journal record seals (atomic commit marks)"),
        MetricSpec("persist.journal.bytes", "counter",
                   "journal payload bytes appended"),
        MetricSpec("persist.journal.truncate", "counter",
                   "journal truncations (post-checkpoint)"),
        MetricSpec("persist.journal.live_records", "gauge",
                   "records currently in the journal region"),
        MetricSpec("persist.checkpoint.write", "counter",
                   "epoch checkpoints written and sealed"),
        MetricSpec("persist.checkpoint.bytes", "counter",
                   "ciphertext bytes captured by checkpoints"),
        MetricSpec("persist.checkpoint.deferred", "counter",
                   "due checkpoints deferred by a storage fault "
                   "(the piggybacked write's ack stands)"),
        MetricSpec("persist.resilience.append", "counter",
                   "resilience-plane events journaled"),
        MetricSpec("recovery.run", "counter",
                   "recovery state-machine invocations"),
        MetricSpec("recovery.redo.records", "counter",
                   "journal records replayed by redo"),
        MetricSpec("recovery.discarded.torn", "counter",
                   "torn journal tails discarded by the scan"),
        MetricSpec("recovery.discarded.unsealed", "counter",
                   "unsealed journal tails discarded by the scan"),
        MetricSpec("recovery.verify.root_ok", "counter",
                   "recoveries whose rebuilt root matched"),
        MetricSpec("recovery.verify.fail", "counter",
                   "recoveries refused by the verify phase"),
        MetricSpec("recovery.resilience.replayed", "counter",
                   "resilience events surfaced during recovery"),
    ]


def _stack_specs() -> list[MetricSpec]:
    """The composed-stack facade (:class:`repro.stack.EngineStack`)."""
    return [
        MetricSpec("stack.writes", "counter",
                   "writes in the composed stack's completed write runs"),
        MetricSpec("stack.reads", "counter",
                   "reads entering the composed stack"),
        MetricSpec("stack.flushes", "counter",
                   "write runs acknowledged through the batch layer"),
        MetricSpec("stack.recoveries", "counter",
                   "full-stack crash recoveries performed"),
    ]


#: Service request operations (one counter + one latency histogram each).
SERVICE_OPS = (
    "provision", "write", "batch", "read", "stat",
    "drain", "retire", "drain_shard", "ping",
)

#: Typed rejection codes the shard meters (plus the internal bucket).
SERVICE_REJECTIONS = (
    "tenant_not_found", "quota_exceeded", "drain_in_progress",
    "shard_unavailable", "deadline_exceeded", "overloaded",
    "degraded", "storage_fault", "internal",
)

#: The storage-fault taxonomy (closed set, mirrors faultfs.FaultKind).
FAULTFS_KINDS = (
    "eio", "enospc", "short_write", "lost_before_fsync", "crash_rename",
)


def _service_specs() -> list[MetricSpec]:
    """The multi-tenant serving layer (:mod:`repro.service`)."""
    out = [
        MetricSpec(f"service.request.{op}", "counter",
                   f"'{op}' requests dispatched")
        for op in SERVICE_OPS
    ]
    out += [
        MetricSpec(f"service.latency.{op}", "histogram",
                   f"'{op}' request latency (ms, includes engine work)")
        for op in SERVICE_OPS
    ]
    out += [
        MetricSpec(f"service.rejected.{code}", "counter",
                   f"requests refused with the '{code}' error code")
        for code in SERVICE_REJECTIONS
    ]
    out += [
        MetricSpec("service.bytes.written", "counter",
                   "payload bytes acknowledged by write/batch ops"),
        MetricSpec("service.bytes.read", "counter",
                   "payload bytes returned by read ops"),
        MetricSpec("service.conn.accepted", "counter",
                   "protocol connections accepted"),
        MetricSpec("service.conn.closed", "counter",
                   "protocol connections closed"),
        MetricSpec("service.recovery.tenants", "counter",
                   "tenants recovered on worker (re)start"),
        MetricSpec("service.drain.tenants", "counter",
                   "tenants drained (flush + checkpoint)"),
        MetricSpec("service.shard.restarts", "counter",
                   "shard workers restarted by the supervisor"),
        MetricSpec("service.tenants.active", "gauge",
                   "tenants currently serving reads and writes"),
        MetricSpec("service.tenants.draining", "gauge",
                   "tenants refusing writes while draining"),
        MetricSpec("service.tenants.retired", "gauge",
                   "tenants durably retired on this shard"),
        # -- ISSUE 9: deadlines, overload shedding, idempotent replay --
        MetricSpec("service.deadline.expired", "counter",
                   "requests refused because their deadline_ms expired "
                   "in the dispatch queue"),
        MetricSpec("service.deadline.wait_ms", "histogram",
                   "dispatch-queue wait per executed request (ms)"),
        MetricSpec("service.overload.shed", "counter",
                   "requests shed at the queue-depth bound (charged "
                   "nothing against quotas)"),
        MetricSpec("service.queue.depth", "gauge",
                   "shard dispatch-queue depth"),
        MetricSpec("service.idem.hits", "counter",
                   "requests answered from the idempotency-key cache"),
        MetricSpec("service.idem.stored", "counter",
                   "ok responses stored under an idempotency key"),
        MetricSpec("service.degraded.entered", "counter",
                   "tenants entering degraded read-only mode"),
        MetricSpec("service.degraded.active", "gauge",
                   "tenants currently in degraded read-only mode"),
        # -- ISSUE 9: client-side circuit breaker + retry accounting --
        MetricSpec("service.breaker.opened", "counter",
                   "circuit-breaker closed->open transitions"),
        MetricSpec("service.breaker.half_open", "counter",
                   "circuit-breaker open->half-open probe admissions"),
        MetricSpec("service.breaker.closed", "counter",
                   "circuit-breaker half-open->closed recoveries"),
        MetricSpec("service.breaker.fast_fail", "counter",
                   "requests refused locally while a breaker was open"),
        MetricSpec("service.client.sends", "counter",
                   "request frames actually written to a shard socket"),
        MetricSpec("service.client.retries", "counter",
                   "client retries after a retryable refusal"),
    ]
    return out


def _faultfs_specs() -> list[MetricSpec]:
    """The fault-injecting file layer (:mod:`repro.faultfs`)."""
    out = [
        MetricSpec("faultfs.steps", "counter",
                   "file operations numbered by the fault layer"),
        MetricSpec("faultfs.fsyncs", "counter",
                   "file-content fsync barriers executed"),
        MetricSpec("faultfs.dir_fsyncs", "counter",
                   "directory-entry fsync barriers executed"),
        MetricSpec("faultfs.crashes", "counter",
                   "simulated power losses (crash() calls)"),
        MetricSpec("faultfs.rolled_back", "counter",
                   "unsynced effects rolled back by simulated power loss"),
    ]
    out += [
        MetricSpec(f"faultfs.injected.{kind}", "counter",
                   f"injected '{kind}' storage faults")
        for kind in FAULTFS_KINDS
    ]
    return out


_SPECS: list[MetricSpec] = (
    _engine_specs()
    + _counter_specs()
    + _memsim_specs()
    + _resilience_specs()
    + _fast_specs()
    + _persist_specs()
    + _stack_specs()
    + _service_specs()
    + _faultfs_specs()
    + [
        MetricSpec("probe.*", "histogram",
                   "wallclock span per probe point (one per site)"),
    ]
)

CATALOG: dict[str, MetricSpec] = {spec.name: spec for spec in _SPECS}
FAMILIES: tuple[MetricSpec, ...] = tuple(
    spec for spec in _SPECS if spec.is_family
)


def resolve(name: str) -> MetricSpec | None:
    """The spec a concrete metric name falls under, or None."""
    spec = CATALOG.get(name)
    if spec is not None:
        return spec
    for family in FAMILIES:
        if name.startswith(family.prefix):
            return family
    return None


def resolve_prefix(prefix: str) -> bool:
    """Whether any cataloged name could start with ``prefix``.

    Used for f-string metric names, where only the literal head is
    statically known (``f"resilience.outcome.{outcome.value}"``).
    """
    for name in CATALOG:
        if name.startswith(prefix):
            return True
    return any(
        family.prefix.startswith(prefix) or prefix.startswith(family.prefix)
        for family in FAMILIES
    )


def metric_names() -> list[str]:
    """All concrete cataloged names, sorted (families excluded)."""
    return sorted(name for name in CATALOG if not name.endswith(".*"))


def traffic_classes() -> dict[str, tuple[str, ...]]:
    """Traffic class -> contributing metric names, in catalog order."""
    out: dict[str, list[str]] = {}
    for spec in _SPECS:
        if spec.traffic_class is not None:
            out.setdefault(spec.traffic_class, []).append(spec.name)
    return {cls: tuple(names) for cls, names in out.items()}


__all__ = [
    "CATALOG",
    "COUNTER_SCHEMES",
    "FAMILIES",
    "FAULTFS_KINDS",
    "SERVICE_OPS",
    "SERVICE_REJECTIONS",
    "MetricSpec",
    "metric_names",
    "resolve",
    "resolve_prefix",
    "traffic_classes",
]
