"""Service lifecycle: graceful drain and crash-recovery-on-restart.

Two symmetric halves:

* :func:`drain_tenants` is the *planned* exit: every write was already
  journal-sealed when it returned, so each tenant seals a fresh
  checkpoint, the next start finds an empty journal and recovery is a
  checkpoint load;
* :func:`recover_tenants` is the *unplanned* exit made safe: a worker
  scans its tenant directories, reloads each
  :class:`~repro.service.storage.FileStore` and runs the full persist
  recovery state machine (:func:`repro.persist.recovery.recover` via
  :meth:`repro.stack.EngineStack.recover`) -- torn tails discarded,
  root verified, anti-replay checked -- before serving a single
  request.

Both return structured reports; the supervisor and the ``service-smoke``
CI job surface them as artifacts.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from repro.faultfs import FaultProfile, StorageFault
from repro.service.router import shard_of
from repro.service.tenant import (
    MANIFEST_NAME,
    Tenant,
    TenantState,
    read_manifest,
    read_state,
)


@dataclass
class DrainReport:
    """What one graceful drain sealed."""

    tenants: list[dict[str, Any]] = field(default_factory=list)

    @property
    def count(self) -> int:
        return len(self.tenants)

    def to_json(self) -> dict[str, Any]:
        return {"drained": self.count, "tenants": list(self.tenants)}


@dataclass
class RecoverySummary:
    """Per-tenant recovery outcomes for one worker restart."""

    tenants: dict[str, dict[str, Any]] = field(default_factory=dict)

    @property
    def count(self) -> int:
        return len(self.tenants)

    @property
    def all_verified(self) -> bool:
        return all(
            entry.get("root_verified", False)
            for entry in self.tenants.values()
        )

    def to_json(self) -> dict[str, Any]:
        return {
            "recovered": self.count,
            "all_verified": self.all_verified,
            "tenants": {k: dict(v) for k, v in sorted(self.tenants.items())},
        }


def tenant_directories(
    root: str | pathlib.Path,
) -> list[pathlib.Path]:
    """Every provisioned tenant directory under ``root``, sorted.

    A directory without a manifest is a provision that died before its
    epoch-0 state was acknowledged -- skipped, exactly like a journal
    record that never sealed.
    """
    tenants = pathlib.Path(root) / "tenants"
    if not tenants.is_dir():
        return []
    return sorted(
        child
        for child in tenants.iterdir()
        if (child / MANIFEST_NAME).exists()
    )


def shard_tenant_directories(
    root: str | pathlib.Path, shard: int, num_shards: int
) -> list[pathlib.Path]:
    """The subset of tenant directories this shard owns."""
    return [
        directory
        for directory in tenant_directories(root)
        if shard_of(read_manifest(directory).tenant_id, num_shards) == shard
    ]


def recover_tenants(
    root: str | pathlib.Path,
    secret_seed: int,
    *,
    shard: int = 0,
    num_shards: int = 1,
    fault_profiles: Callable[[str], FaultProfile | None] | None = None,
    degraded_after: int = 3,
) -> tuple[dict[str, Tenant], RecoverySummary]:
    """Recover every tenant a (re)starting shard worker owns.

    ``fault_profiles`` maps a tenant id to the :class:`FaultProfile` its
    rebuilt fault layer should run under (chaos campaigns arm the same
    profile across restarts so injection pressure survives a kill);
    recovery itself always runs with the layer disarmed.
    """
    tenants: dict[str, Tenant] = {}
    summary = RecoverySummary()
    for directory in shard_tenant_directories(root, shard, num_shards):
        if read_state(directory) is TenantState.RETIRED:
            # Retirement is durable; the namespace stays gone.
            summary.tenants[directory.name] = {
                "state": TenantState.RETIRED.value,
                "skipped": True,
                "root_verified": True,
            }
            continue
        profile = (
            fault_profiles(directory.name)
            if fault_profiles is not None
            else None
        )
        tenant = Tenant.open(
            directory,
            secret_seed,
            fault_profile=profile,
            degraded_after=degraded_after,
        )
        tenants[tenant.tenant_id] = tenant
        report = tenant.recovery
        summary.tenants[tenant.tenant_id] = (
            report.to_json() if report is not None else {}
        )
    return tenants, summary


def drain_tenants(tenants: Iterable[Tenant]) -> DrainReport:
    """Gracefully drain a set of tenants (checkpoint each).

    A tenant whose backing store faults mid-drain is *recorded*, not
    raised: its journal simply stays live and the next start recovers
    it exactly as after a crash.  Teardown must not die on the fault
    path it exists to mitigate -- and one faulting tenant must not
    block its neighbours' checkpoints.
    """
    report = DrainReport()
    for tenant in tenants:
        try:
            report.tenants.append(tenant.drain())
        except StorageFault as fault:
            report.tenants.append({
                "tenant": tenant.tenant_id,
                "state": tenant.state.value,
                "drain_fault": str(fault),
            })
    return report


__all__ = [
    "DrainReport",
    "RecoverySummary",
    "drain_tenants",
    "recover_tenants",
    "shard_tenant_directories",
    "tenant_directories",
]
