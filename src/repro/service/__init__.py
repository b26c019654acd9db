"""repro.service: the multi-tenant secure-memory serving layer.

Everything below this package is a library one caller drives
synchronously; this package is the long-running front-end the ROADMAP's
"millions of users" north star asks for.  Each *tenant* owns its own
key, counter namespace and protected region -- a full
:class:`~repro.stack.EngineStack` (fast x durable x resilient x
observed) persisted under its own directory -- and tenants are sharded
deterministically across worker processes.

Module map:

* :mod:`repro.service.errors`     -- typed ``ServiceError`` hierarchy
  mapped to structured wire responses;
* :mod:`repro.service.storage`    -- ``FileStore``, the disk-mirrored
  :class:`~repro.persist.store.DurableStore` that makes a process kill
  recoverable;
* :mod:`repro.service.tenant`     -- tenant lifecycle (provision ->
  active -> draining -> retired), per-tenant key derivation and
  persist directory;
* :mod:`repro.service.router`     -- deterministic tenant -> shard
  routing;
* :mod:`repro.service.quota`      -- per-tenant byte/op quotas and
  token-bucket admission control;
* :mod:`repro.service.server`     -- the asyncio request loop
  (length-prefixed protocol), shard worker processes, supervisor and
  client;
* :mod:`repro.service.endpoints`  -- ``/metrics`` + ``/health`` HTTP
  endpoints fed by the obs registry and resilience health state;
* :mod:`repro.service.lifecycle`  -- graceful drain and
  crash-recovery-on-restart via :mod:`repro.persist.recovery`;
* :mod:`repro.service.chaos`      -- the shadow-verified campaign
  behind ``repro chaos`` and ``BENCH_chaos.json``;
* :mod:`repro.service.loadgen`    -- the same campaign with faults off,
  behind ``repro loadgen`` and ``BENCH_service.json``.
"""

from repro.service.errors import (
    DrainInProgress,
    QuotaExceeded,
    ServiceError,
    ShardUnavailable,
    TenantNotFound,
)
from repro.service.quota import QuotaConfig, TenantQuota
from repro.service.router import ShardRouter, shard_of
from repro.service.storage import FileStore
from repro.service.tenant import Tenant, TenantSpec, TenantState

__all__ = [
    "DrainInProgress",
    "FileStore",
    "QuotaConfig",
    "QuotaExceeded",
    "ServiceError",
    "ShardRouter",
    "ShardUnavailable",
    "Tenant",
    "TenantNotFound",
    "TenantQuota",
    "TenantSpec",
    "TenantState",
    "shard_of",
]
