"""``repro loadgen``: the service benchmark, a chaos campaign with faults off.

:class:`LoadgenSpec` is a :class:`~repro.service.chaos.ChaosSpec` whose
defaults switch the fault surface off: no disk faults (so no victim
tenant, no resilience plane, the default client breaker, ``quota`` on
every tenant), no overload or deadline probes, and no shard kill unless
``kill_shard`` asks for one.  The traffic, the shadow oracle and the
final verify sweep are the chaos campaign's own
(:func:`repro.service.chaos.run_campaign`).

With ``kill_shard`` set, one worker is SIGKILLed mid-run and restarted;
in-flight requests retry idempotently until the restarted worker has
replayed its journals.

The ``BENCH_service.json`` payload carries the chaos campaign's
results, except that it counts *block* operations: a batch of four
writes is four acknowledged ops, and ``throughput_ops_s`` is block ops
per second of campaign wallclock.  ``tenants`` breaks them down per
tenant.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, field
from typing import ClassVar

from repro.service.chaos import (
    BENCH_SCHEMA,
    ChaosSpec,
    ServiceReport,
    all_verified,
    percentile,
    run_campaign,
)
from repro.service.quota import QuotaConfig
from repro.service.router import shard_of


@dataclass(frozen=True)
class LoadgenSpec(ChaosSpec):
    """One load-generation campaign: a chaos campaign with faults off."""

    namespace: ClassVar[str] = "repro.loadgen"

    ops_per_tenant: int = 200
    fault_rate: float = 0.0
    boost_rate: float = 0.0
    degraded_after: int = 3
    max_queue_depth: int = 64
    kill_shard: int | None = None
    kill_after_fraction: float = 0.5
    overload_probes: int = 0
    deadline_probes: int = 0
    quota: QuotaConfig = field(default_factory=QuotaConfig)

    config_fields: ClassVar[tuple[str, ...]] = (
        "tenants", "shards", "ops_per_tenant", "batch_every", "batch_size",
        "read_every", "region_kb", "preset", "keystream", "seed",
        "kill_shard", "kill_after_fraction",
    )


def run_loadgen(
    spec: LoadgenSpec, root: str | pathlib.Path | None = None
) -> ServiceReport:
    """Run one campaign end to end (in a temporary service root unless
    ``root`` is given)."""
    results, traffic, health = run_campaign(spec, root)
    elapsed = results["elapsed_s"]
    acked_ops = sum(tenant.acked_blocks for tenant in traffic)
    results.update(
        acked_ops=acked_ops,
        throughput_ops_s=round(acked_ops / elapsed, 1) if elapsed else 0.0,
        tenants={
            tenant.tenant_id: {
                "shard": shard_of(tenant.tenant_id, spec.shards),
                "acked_ops": tenant.acked_blocks,
                "quota_rejections": tenant.refusals["quota_exceeded"],
                "shadow_blocks": len(tenant.shadow.acked),
                "inline_mismatches": tenant.inline_mismatches,
                "p50_ms": round(percentile(tenant.latencies_ms, 50), 3),
                "p99_ms": round(percentile(tenant.latencies_ms, 99), 3),
            }
            for tenant in traffic
        },
    )
    return ServiceReport(spec, {
        "schema": BENCH_SCHEMA,
        "bench": "service",
        "config": spec.config_dict(),
        "results": results,
        "health": {
            name: entry.get("status") for name, entry in sorted(health.items())
        },
        "all_verified": all_verified(results),
    })


__all__ = [
    "BENCH_SCHEMA",
    "LoadgenSpec",
    "percentile",
    "run_loadgen",
]
