"""Tenant lifecycle: provision -> active -> draining -> retired.

A tenant is one isolated secure-memory namespace: its own 48-byte key
(derived, never stored), its own counter namespace and protected
region, its own :class:`~repro.stack.EngineStack` journaling into its
own :class:`~repro.service.storage.FileStore` directory, and its own
:class:`~repro.obs.metrics.MetricRegistry` so per-tenant accounting
never mixes with a neighbour's.

Key derivation: ``SHA-384(repro.service.key/<secret_seed>/<tenant_id>)``
-- the service stores only the seed (its master secret); per-tenant
keys are re-derived on every worker start, so the persist directory
never contains key material.

Lifecycle states:

``ACTIVE``
    Reads and writes served.
``DRAINING``
    Writes refused with :class:`DrainInProgress`; reads still served.
    Entered by ``drain()``, which seals a fresh checkpoint -- every
    write was journal-sealed when it returned, so a kill loses nothing.
``RETIRED``
    All traffic refused with :class:`TenantNotFound` (the namespace is
    gone as far as callers are concerned); the directory remains for
    audit until deleted out-of-band.

Orthogonal to the lifecycle enum, a tenant can enter **degraded
read-only mode** (:attr:`Tenant.degraded_reason`): after
``degraded_after`` storage faults, or when the resilience plane's spare
pool is exhausted with degraded blocks outstanding, writes are refused
with :class:`TenantDegraded` while reads keep serving.  Degradation is
deliberately *not* a new lifecycle state -- drain/retire machinery works
on a degraded tenant unchanged (an operator's way out is exactly drain,
inspect, re-provision).
"""

from __future__ import annotations

import enum
import hashlib
import json
import pathlib
import re
from dataclasses import MISSING, dataclass, field, fields
from typing import Any

from repro.core.engine.config import preset
from repro.faultfs import FaultFS, FaultProfile, StorageFault
from repro.lint.contracts import BLOCK_BYTES
from repro.obs.metrics import MetricRegistry
from repro.persist.config import DurabilityConfig
from repro.persist.recovery import RecoveryReport
from repro.service.errors import (
    DrainInProgress,
    TenantDegraded,
    TenantNotFound,
)
from repro.service.quota import QuotaConfig
from repro.service.storage import FileStore, load_file_store
from repro.stack import EngineStack

MANIFEST_SCHEMA = "repro.service.tenant/1"
MANIFEST_NAME = "tenant.json"
STATE_NAME = "state.json"

_TENANT_ID = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")


class TenantState(enum.Enum):
    ACTIVE = "active"
    DRAINING = "draining"
    RETIRED = "retired"


def derive_key(secret_seed: int, tenant_id: str) -> bytes:
    """The tenant's 48-byte engine key (16 AES + 24 MAC + 8 tree)."""
    return hashlib.sha384(
        f"repro.service.key/{secret_seed}/{tenant_id}".encode()
    ).digest()


@dataclass(frozen=True)
class TenantSpec:
    """Everything a worker needs to (re)build one tenant's stack."""

    tenant_id: str
    preset: str = "combined"
    region_kb: int = 64
    keystream: str = "splitmix"
    resilience: bool = False
    spare_blocks: int = 4
    ce_threshold: int = 2
    checkpoint_interval: int = 32
    quota: QuotaConfig = field(default_factory=QuotaConfig)

    def __post_init__(self) -> None:
        if not _TENANT_ID.match(self.tenant_id):
            raise ValueError(
                f"tenant id {self.tenant_id!r} must match "
                f"{_TENANT_ID.pattern} (it names a directory)"
            )
        if self.region_kb < 4:
            raise ValueError("region_kb must be >= 4 (one 64-block group)")
        if self.spare_blocks < 1 or self.ce_threshold < 1:
            raise ValueError("spare_blocks and ce_threshold must be >= 1")
        if self.checkpoint_interval < 1:
            raise ValueError("checkpoint_interval must be >= 1")
        # Validate + normalize the backend name at spec construction so
        # a bad manifest fails at provision time, not on worker start,
        # and legacy aliases never land in tenant.json.
        from repro.fast.backends import resolve_backend

        object.__setattr__(
            self, "keystream", resolve_backend(self.keystream).name
        )

    def engine_config(self):
        return preset(
            self.preset,
            protected_bytes=self.region_kb * 1024,
            keystream_mode=self.keystream,
        )

    def durability_config(self) -> DurabilityConfig:
        return DurabilityConfig(
            checkpoint_interval=self.checkpoint_interval
        )

    def resilience_kwargs(self) -> dict[str, Any] | None:
        if not self.resilience:
            return None
        return {
            "spare_blocks": self.spare_blocks,
            "ce_threshold": self.ce_threshold,
        }

    def to_json(self) -> dict[str, Any]:
        return {
            "schema": MANIFEST_SCHEMA,
            "tenant_id": self.tenant_id,
            "preset": self.preset,
            "region_kb": self.region_kb,
            "keystream": self.keystream,
            "resilience": self.resilience,
            "spare_blocks": self.spare_blocks,
            "ce_threshold": self.ce_threshold,
            "checkpoint_interval": self.checkpoint_interval,
            "quota": self.quota.to_json(),
        }

    @classmethod
    def from_json(cls, payload: dict[str, Any]) -> "TenantSpec":
        if payload.get("schema") != MANIFEST_SCHEMA:
            raise ValueError(
                f"unsupported tenant manifest schema "
                f"{payload.get('schema')!r} (expected {MANIFEST_SCHEMA!r})"
            )
        return cls.read(payload["tenant_id"], payload)

    @classmethod
    def read(cls, tenant_id: Any, payload: dict[str, Any]) -> "TenantSpec":
        """Build a spec from an external mapping (a manifest or a
        provision request).  Each field given is coerced to its default's
        type (``int``/``bool``/``str``), so a malformed value raises
        ``ValueError``/``TypeError``; each field left out keeps the
        dataclass default."""
        return cls(
            tenant_id=str(tenant_id),
            quota=QuotaConfig.from_json(payload.get("quota", {})),
            **{
                f.name: type(f.default)(payload[f.name])
                for f in fields(cls)
                if f.default is not MISSING and f.name in payload
            },
        )


class Tenant:
    """One provisioned tenant: spec + directory + live engine stack."""

    def __init__(
        self,
        spec: TenantSpec,
        directory: pathlib.Path,
        stack: EngineStack,
        registry: MetricRegistry,
        recovery: RecoveryReport | None = None,
        fs: FaultFS | None = None,
        degraded_after: int = 3,
    ) -> None:
        self.spec = spec
        self.directory = directory
        self.stack = stack
        self.registry = registry
        self.recovery = recovery
        self.state = TenantState.ACTIVE
        self.fs = fs
        self.degraded_after = max(1, degraded_after)
        self.storage_faults = 0
        self.degraded_reason: str | None = None
        self._m_degraded = registry.counter("service.degraded.entered")

    # -- construction --------------------------------------------------------

    @classmethod
    def provision(
        cls,
        root: str | pathlib.Path,
        spec: TenantSpec,
        secret_seed: int,
        fault_profile: FaultProfile | None = None,
        degraded_after: int = 3,
    ) -> "Tenant":
        """Create a brand-new tenant under ``root/tenants/<id>``."""
        directory = tenant_dir(root, spec.tenant_id)
        manifest = directory / MANIFEST_NAME
        if manifest.exists():
            raise ValueError(
                f"tenant {spec.tenant_id!r} is already provisioned "
                f"at {directory}"
            )
        directory.mkdir(parents=True, exist_ok=True)
        registry = MetricRegistry()
        fs = FaultFS(
            profile=fault_profile,
            stream=spec.tenant_id,
            registry=registry,
        )
        store = FileStore(directory / "store", fs=fs)
        stack = EngineStack(
            spec.engine_config(),
            derive_key(secret_seed, spec.tenant_id),
            durability=spec.durability_config(),
            store=store,
            resilience=spec.resilience_kwargs(),
            registry=registry,
        )
        # Manifest lands only after the stack (and its epoch-0
        # checkpoint) exists: a kill mid-provision leaves no manifest,
        # and restart recovery skips the directory entirely.
        manifest.write_text(
            json.dumps(spec.to_json(), indent=2, sort_keys=True) + "\n"
        )
        return cls(
            spec, directory, stack, registry,
            fs=fs, degraded_after=degraded_after,
        )

    @classmethod
    def open(
        cls,
        directory: str | pathlib.Path,
        secret_seed: int,
        fault_profile: FaultProfile | None = None,
        degraded_after: int = 3,
    ) -> "Tenant":
        """Recover a tenant from its directory (the restart path).

        Runs the full persist recovery state machine over the reloaded
        :class:`FileStore` -- torn tails discarded, checkpoint loaded,
        journal redone, root and anti-replay verified -- then re-wraps
        the engine in the tenant's configured stack.  The fault layer
        starts *disarmed* and only arms once recovery has finished: a
        chaos campaign's injected faults must never hit the repair path
        (a real recovery reads back what the disk durably holds).
        """
        directory = pathlib.Path(directory)
        spec = read_manifest(directory)
        registry = MetricRegistry()
        fs = FaultFS(
            profile=fault_profile,
            stream=spec.tenant_id,
            registry=registry,
            armed=False,
        )
        store = load_file_store(directory / "store", fs=fs)
        stack, report = EngineStack.recover(
            store,
            spec.engine_config(),
            derive_key(secret_seed, spec.tenant_id),
            durability=spec.durability_config(),
            resilience=spec.resilience_kwargs(),
            registry=registry,
        )
        fs.armed = True
        return cls(
            spec, directory, stack, registry, recovery=report,
            fs=fs, degraded_after=degraded_after,
        )

    # -- data path ------------------------------------------------------------

    @property
    def tenant_id(self) -> str:
        return self.spec.tenant_id

    @property
    def capacity_bytes(self) -> int:
        return self.stack.capacity_blocks * BLOCK_BYTES

    def _check_readable(self) -> None:
        if self.state is TenantState.RETIRED:
            raise TenantNotFound(
                f"tenant {self.tenant_id!r} is retired",
                tenant=self.tenant_id,
            )

    def _check_writable(self) -> None:
        self._check_readable()
        if self.state is TenantState.DRAINING:
            raise DrainInProgress(
                f"tenant {self.tenant_id!r} is draining; writes refused",
                tenant=self.tenant_id,
            )
        if self.degraded_reason is not None:
            raise TenantDegraded(
                f"tenant {self.tenant_id!r} is degraded "
                f"({self.degraded_reason}); writes refused, reads serve",
                tenant=self.tenant_id,
                reason=self.degraded_reason,
            )

    def _check_address(self, address: int) -> None:
        if address % BLOCK_BYTES:
            raise ValueError("addresses must be 64-byte aligned")
        if not 0 <= address < self.capacity_bytes:
            raise ValueError(
                f"address {address:#x} outside tenant region "
                f"({self.capacity_bytes:#x} bytes)"
            )

    def write(self, address: int, data: bytes) -> None:
        """One acknowledged write: journal-sealed when it returns."""
        self._check_writable()
        self._check_address(address)
        self.stack.write_many([(address, data)])
        self._maybe_degrade()

    def write_batch(self, writes: list[tuple[int, bytes]]) -> None:
        """One group-commit: every write sealed under a single txn."""
        self._check_writable()
        for address, _ in writes:
            self._check_address(address)
        self.stack.write_many(writes)
        self._maybe_degrade()

    def read(self, address: int):
        self._check_readable()
        self._check_address(address)
        return self.stack.read(address)

    # -- degraded read-only mode ----------------------------------------------

    def enter_degraded(self, reason: str) -> bool:
        """Enter degraded read-only mode; True when newly entered."""
        if self.degraded_reason is not None:
            return False
        self.degraded_reason = reason
        self._m_degraded.inc()
        return True

    def record_storage_fault(self, fault: StorageFault) -> bool:
        """Account one storage fault; True when it tipped the tenant
        into degraded mode (``degraded_after`` consecutive-run budget).
        """
        self.storage_faults += 1
        if self.storage_faults >= self.degraded_after:
            return self.enter_degraded(
                f"storage_faults={self.storage_faults} "
                f"(last: {fault.kind.value} at fs step {fault.step})"
            )
        return False

    def _maybe_degrade(self) -> bool:
        """Degrade when the spare pool is gone but damage remains.

        ``SparesExhausted`` never escapes the resilience plane (the
        block stays mapped, merely unprotected), so the service polls
        the quarantine after each write instead of catching anything.
        """
        resilient = self.stack.resilient
        if resilient is None:
            return False
        quarantine = resilient.quarantine
        if (
            quarantine.spares_remaining == 0
            and quarantine.degraded_count > 0
        ):
            return self.enter_degraded("spares_exhausted")
        return False

    # -- lifecycle ------------------------------------------------------------

    def drain(self) -> dict[str, Any]:
        """Checkpoint; then refuse writes.

        Idempotent: draining a draining tenant just re-checkpoints.
        """
        self._check_readable()
        self.state = TenantState.DRAINING
        if self.stack.persist is not None:
            self.stack.checkpoint()
        return {
            "tenant": self.tenant_id,
            "state": self.state.value,
            "epoch": (
                self.stack.persist.epoch
                if self.stack.persist is not None
                else None
            ),
        }

    def retire(self) -> dict[str, Any]:
        """Drain (if still needed) and take the namespace away.

        Retirement is durable: a ``state.json`` marker keeps the tenant
        retired across worker restarts (recovery skips the directory).
        """
        if self.state is not TenantState.RETIRED:
            if self.state is TenantState.ACTIVE:
                self.drain()
            self.state = TenantState.RETIRED
            write_state(self.directory, self.state)
        return {"tenant": self.tenant_id, "state": self.state.value}

    # -- introspection ---------------------------------------------------------

    def stat(self) -> dict[str, Any]:
        """Structured per-tenant status for the ``stat`` op."""
        persist = self.stack.persist
        resilient = self.stack.resilient
        out: dict[str, Any] = {
            "tenant": self.tenant_id,
            "state": self.state.value,
            "preset": self.spec.preset,
            "capacity_bytes": self.capacity_bytes,
            "metrics": self.registry.snapshot().totals(),
        }
        if persist is not None:
            out["epoch"] = persist.epoch
            out["next_lsn"] = persist.next_lsn
            out["journal_live_records"] = persist.store.live_records
        if resilient is not None:
            out["spares_remaining"] = resilient.quarantine.spares_remaining
            out["retired_blocks"] = len(resilient.quarantine.retired_addresses)
        out["storage_faults"] = self.storage_faults
        out["degraded_reason"] = self.degraded_reason
        if self.recovery is not None:
            out["recovered"] = self.recovery.to_json()
        return out

    def health(self) -> dict[str, Any]:
        """The tenant's contribution to the shard /health payload."""
        status = "ok"
        detail: dict[str, Any] = {"state": self.state.value}
        resilient = self.stack.resilient
        if resilient is not None:
            spares = resilient.quarantine.spares_remaining
            detail["spares_remaining"] = spares
            detail["degraded_blocks"] = resilient.quarantine.degraded_count
            if detail["degraded_blocks"]:
                status = "degraded"
            elif spares == 0:
                status = "at_risk"
        if self.state is not TenantState.ACTIVE:
            status = self.state.value
        if (
            self.degraded_reason is not None
            and self.state is not TenantState.RETIRED
        ):
            # Degraded read-only mode outranks everything but retired:
            # an operator must see *why* writes are bouncing.
            status = "degraded"
            detail["degraded_reason"] = self.degraded_reason
            detail["storage_faults"] = self.storage_faults
        detail["status"] = status
        return detail


def tenant_dir(root: str | pathlib.Path, tenant_id: str) -> pathlib.Path:
    return pathlib.Path(root) / "tenants" / tenant_id


def read_manifest(directory: str | pathlib.Path) -> TenantSpec:
    manifest = pathlib.Path(directory) / MANIFEST_NAME
    return TenantSpec.from_json(json.loads(manifest.read_text()))


def write_state(directory: str | pathlib.Path, state: TenantState) -> None:
    (pathlib.Path(directory) / STATE_NAME).write_text(
        json.dumps({"state": state.value}) + "\n"
    )


def read_state(directory: str | pathlib.Path) -> TenantState:
    """The persisted lifecycle state (ACTIVE when no marker exists)."""
    path = pathlib.Path(directory) / STATE_NAME
    if not path.exists():
        return TenantState.ACTIVE
    return TenantState(json.loads(path.read_text())["state"])


__all__ = [
    "BLOCK_BYTES",
    "MANIFEST_NAME",
    "MANIFEST_SCHEMA",
    "STATE_NAME",
    "Tenant",
    "TenantSpec",
    "TenantState",
    "derive_key",
    "read_manifest",
    "read_state",
    "tenant_dir",
    "write_state",
]
