"""The asyncio serving layer: shards, worker processes, supervisor, client.

Wire protocol (one unix socket per shard): length-prefixed JSON --
4-byte big-endian frame length, then a UTF-8 JSON object.  Block
payloads travel hex-encoded.  Requests carry ``op`` plus op-specific
fields; responses are ``{"ok": true, ...}`` or the structured error
frame :func:`repro.service.errors.to_response` produces.

Operations::

    provision {tenant, preset?, region_kb?, keystream?, resilience?,
               quota?...}
    write     {tenant, address, data}       one acknowledged write
    batch     {tenant, writes: [[addr, data], ...]}  one group-commit
    read      {tenant, address}
    stat      {tenant}
    drain     {tenant} | retire {tenant} | drain_shard {} | ping {}

Concurrency model: one asyncio event loop per shard worker serializes
engine access (the engines are plain mutable python objects); many
connections interleave at frame granularity.  Scaling comes from
*sharding* -- tenants are partitioned across worker processes by
:func:`repro.service.router.shard_of`, and the client routes each
request itself, so shards share nothing but the filesystem root.

Overload and deadline discipline: every connection enqueues requests
onto one bounded dispatch queue per shard; a single dispatcher task
drains it.  A request arriving at a full queue is *shed* with a typed
:class:`Overloaded` refusal before any work (and before any quota
charge); a request whose ``deadline_ms`` elapsed while it queued is
refused with :class:`DeadlineExceeded` -- also strictly before
dispatch, so a deadline refusal never half-applies anything.  Mutating
requests may carry an ``idem`` key; the shard caches the success
response so a client retry after an ambiguous failure cannot double
apply (re-applying the same (address, data) write is already
convergent -- the cache makes the *response* exactly-once too).

The supervisor owns the worker processes: it can kill one (``SIGKILL``,
the crash the durability plane exists for) and restart it; the restarted
worker replays its tenants' journals via the persist recovery state
machine before accepting its first request.  The client wraps each
shard connection in a circuit breaker: consecutive transport failures
trip it open and calls fail fast until a half-open probe finds the
replacement worker answering.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import multiprocessing
import os
import pathlib
import random
import signal
import struct
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable

from repro.faultfs import FaultProfile, StorageFault
from repro.obs.catalog import SERVICE_OPS, SERVICE_REJECTIONS
from repro.obs.metrics import MetricRegistry
from repro.service.backoff import BackoffPolicy
from repro.service.breaker import BreakerConfig, CircuitBreaker
from repro.service.endpoints import health_payload, metrics_payload, serve_http
from repro.service.errors import (
    DeadlineExceeded,
    DrainInProgress,
    Overloaded,
    ServiceError,
    ShardUnavailable,
    StorageFaulted,
    TenantNotFound,
    from_response,
    to_response,
)
from repro.service.lifecycle import drain_tenants, recover_tenants
from repro.service.quota import TenantQuota
from repro.service.router import ShardRouter
from repro.service.tenant import (
    BLOCK_BYTES,
    Tenant,
    TenantSpec,
    TenantState,
)

PROTOCOL_SCHEMA = "repro.service.proto/1"
_LEN = struct.Struct(">I")
MAX_FRAME_BYTES = 8 * 1024 * 1024

#: closed sets shared with the metric catalog -- the request ops and
#: rejection codes below are the single source of truth for both the
#: dispatch table and the ``service.*`` metric names.
OPS = SERVICE_OPS
REJECTION_CODES = SERVICE_REJECTIONS


def encode_frame(payload: dict[str, Any]) -> bytes:
    body = json.dumps(payload, sort_keys=True).encode()
    if len(body) > MAX_FRAME_BYTES:
        raise ValueError(f"frame of {len(body)} bytes exceeds the cap")
    return _LEN.pack(len(body)) + body


async def read_frame(reader: asyncio.StreamReader) -> dict[str, Any]:
    header = await reader.readexactly(_LEN.size)
    (length,) = _LEN.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ValueError(f"frame of {length} bytes exceeds the cap")
    body = await reader.readexactly(length)
    payload = json.loads(body.decode())
    if not isinstance(payload, dict):
        raise ValueError("frames must carry a JSON object")
    return payload


async def write_frame(
    writer: asyncio.StreamWriter, payload: dict[str, Any]
) -> None:
    writer.write(encode_frame(payload))
    await writer.drain()


@dataclass(frozen=True)
class ShardOptions:
    """Resilience knobs one shard worker runs under.

    Plain picklable data: the supervisor ships it to spawned workers.
    ``fault_profile`` arms every tenant's :class:`FaultFS` with
    rate-based storage faults; ``fault_boost_tenant`` (if set) gets
    ``fault_boost_profile`` instead, so a chaos campaign can hammer one
    victim while the rest see background rates.
    """

    max_queue_depth: int = 64
    degraded_after: int = 3
    idem_capacity: int = 256
    fault_profile: FaultProfile | None = None
    fault_boost_tenant: str = ""
    fault_boost_profile: FaultProfile | None = None

    def __post_init__(self) -> None:
        if self.max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")
        if self.degraded_after < 1:
            raise ValueError("degraded_after must be >= 1")
        if self.idem_capacity < 1:
            raise ValueError("idem_capacity must be >= 1")

    def profile_for(self, tenant_id: str) -> FaultProfile | None:
        if tenant_id == self.fault_boost_tenant:
            return self.fault_boost_profile
        return self.fault_profile


class Shard:
    """One worker's state: its tenants, quotas, and request handlers."""

    def __init__(
        self,
        root: str | pathlib.Path,
        shard_index: int,
        num_shards: int,
        secret_seed: int,
        registry: MetricRegistry | None = None,
        clock: Callable[[], float] = time.monotonic,
        options: ShardOptions | None = None,
    ) -> None:
        self.router = ShardRouter(root, num_shards)
        self.root = pathlib.Path(root)
        self.shard_index = shard_index
        self.secret_seed = secret_seed
        self.registry = registry if registry is not None else MetricRegistry()
        self.clock = clock
        self.options = options if options is not None else ShardOptions()
        self.tenants: dict[str, Tenant] = {}
        self.quotas: dict[str, TenantQuota] = {}
        self.retired: set[str] = set()
        self.draining = False
        self.recovery_summary: dict[str, Any] = {}
        reg = self.registry
        self._m_requests = {
            op: reg.counter(f"service.request.{op}") for op in OPS
        }
        self._h_latency = {
            op: reg.histogram(f"service.latency.{op}") for op in OPS
        }
        self._m_rejected = {
            code: reg.counter(f"service.rejected.{code}")
            for code in REJECTION_CODES
        }
        self._m_bytes_written = reg.counter("service.bytes.written")
        self._m_bytes_read = reg.counter("service.bytes.read")
        self._m_conn_accepted = reg.counter("service.conn.accepted")
        self._m_conn_closed = reg.counter("service.conn.closed")
        self._m_recovered = reg.counter("service.recovery.tenants")
        self._m_drained = reg.counter("service.drain.tenants")
        self._g_active = reg.gauge("service.tenants.active")
        self._g_draining = reg.gauge("service.tenants.draining")
        self._g_retired = reg.gauge("service.tenants.retired")
        self._m_deadline_expired = reg.counter("service.deadline.expired")
        self._h_deadline_wait = reg.histogram("service.deadline.wait_ms")
        self._m_shed = reg.counter("service.overload.shed")
        self._g_queue = reg.gauge("service.queue.depth")
        self._m_idem_hits = reg.counter("service.idem.hits")
        self._m_idem_stored = reg.counter("service.idem.stored")
        self._m_degraded_entered = reg.counter("service.degraded.entered")
        self._g_degraded = reg.gauge("service.degraded.active")
        #: bounded idempotency cache: key -> the success response
        self._idem: OrderedDict[str, dict[str, Any]] = OrderedDict()
        #: bounded dispatch queue; exists only while serve() runs (the
        #: in-process test path calls submit() without a queue and gets
        #: direct dispatch)
        self._queue: asyncio.Queue[
            tuple[dict[str, Any], asyncio.Future, float]
        ] | None = None
        self._handlers: dict[str, Callable[[dict[str, Any]], dict[str, Any]]] = {
            "provision": self._op_provision,
            "write": self._op_write,
            "batch": self._op_batch,
            "read": self._op_read,
            "stat": self._op_stat,
            "drain": self._op_drain,
            "retire": self._op_retire,
            "drain_shard": self._op_drain_shard,
            "ping": self._op_ping,
        }

    # -- lifecycle ----------------------------------------------------------

    def recover(self) -> dict[str, Any]:
        """Recover every owned tenant from disk before serving."""
        tenants, summary = recover_tenants(
            self.root,
            self.secret_seed,
            shard=self.shard_index,
            num_shards=self.router.num_shards,
            fault_profiles=self.options.profile_for,
            degraded_after=self.options.degraded_after,
        )
        self.tenants = tenants
        self.retired = {
            tenant_id
            for tenant_id, entry in summary.tenants.items()
            if entry.get("skipped")
        }
        for tenant in tenants.values():
            self.quotas[tenant.tenant_id] = TenantQuota(
                tenant.tenant_id, tenant.spec.quota, self.clock
            )
        self._m_recovered.inc(len(tenants))
        self.recovery_summary = summary.to_json()
        self._refresh_gauges()
        return self.recovery_summary

    def drain_all(self) -> dict[str, Any]:
        """Graceful shard drain: every tenant checkpointed."""
        self.draining = True
        live = [
            tenant
            for tenant in self.tenants.values()
            if tenant.state is not TenantState.RETIRED
        ]
        report = drain_tenants(live)
        self._m_drained.inc(report.count)
        self._refresh_gauges()
        return report.to_json()

    def _refresh_gauges(self) -> None:
        states = [tenant.state for tenant in self.tenants.values()]
        self._g_active.set(states.count(TenantState.ACTIVE))
        self._g_draining.set(states.count(TenantState.DRAINING))
        self._g_retired.set(
            states.count(TenantState.RETIRED) + len(self.retired)
        )
        self._g_degraded.set(
            sum(
                1
                for tenant in self.tenants.values()
                if tenant.degraded_reason is not None
            )
        )

    # -- request dispatch ---------------------------------------------------

    def handle_request(self, request: dict[str, Any]) -> dict[str, Any]:
        op = str(request.get("op", ""))
        handler = self._handlers.get(op)
        if handler is None:
            self._m_rejected["internal"].inc()
            return to_response(
                ServiceError(f"unknown op {op!r}", known_ops=list(OPS))
            )
        self._m_requests[op].inc()
        start = self.clock()
        try:
            response = handler(request)
            response.setdefault("ok", True)
            return response
        except ServiceError as error:
            self._m_rejected.get(
                error.code, self._m_rejected["internal"]
            ).inc()
            return to_response(error)
        except StorageFault as fault:
            # The tenant's backing store refused a durable mutation.
            # Not acknowledged, typed, and accounted against the
            # tenant's degraded-mode budget -- never a shard crash.
            tenant = self.tenants.get(str(request.get("tenant", "")))
            if tenant is not None and tenant.record_storage_fault(fault):
                self._m_degraded_entered.inc()
                self._refresh_gauges()
            self._m_rejected["storage_fault"].inc()
            return to_response(
                StorageFaulted(
                    f"storage fault during {op!r}: {fault}",
                    op=op,
                    kind=fault.kind.value,
                    fs_step=fault.step,
                )
            )
        except (KeyError, TypeError, ValueError) as error:
            # Malformed requests (missing fields, bad hex, unaligned
            # addresses) are client errors, reported structurally --
            # they must never tear down the shard.
            self._m_rejected["internal"].inc()
            return to_response(
                ServiceError(f"bad request for op {op!r}: {error}", op=op)
            )
        finally:
            self._h_latency[op].observe((self.clock() - start) * 1000.0)

    # -- the dispatch queue: shedding, deadlines, idempotency -----------------

    async def submit(self, request: dict[str, Any]) -> dict[str, Any]:
        """Admit one request: shed, enqueue, and await its response.

        Shedding happens *here*, at admission: a full queue refuses
        with :class:`Overloaded` before the request costs anything
        (no quota charge, no engine work).  A deadline already expired
        on arrival (``deadline_ms <= 0``) is refused as
        :class:`DeadlineExceeded` before the shed check, so its refusal
        does not depend on how full the queue is.  Without a running
        queue (in-process tests, no serve() loop) dispatch is direct.
        """
        queue = self._queue
        if queue is None:
            return self._served(request)
        expired = self._expired(request, 0.0)
        if expired is not None:
            return expired
        if queue.qsize() >= self.options.max_queue_depth:
            self._m_shed.inc()
            self._m_rejected["overloaded"].inc()
            return to_response(
                Overloaded(
                    f"shard {self.shard_index} dispatch queue is full "
                    f"({self.options.max_queue_depth} deep); shed",
                    shard=self.shard_index,
                    queue_depth=queue.qsize(),
                )
            )
        future: asyncio.Future = (
            asyncio.get_running_loop().create_future()
        )
        queue.put_nowait((request, future, self.clock()))
        self._g_queue.set(queue.qsize())
        return await future

    async def _dispatch_loop(self) -> None:
        """The single dispatcher: drains the queue in arrival order."""
        queue = self._queue
        assert queue is not None
        while True:
            request, future, enqueued_at = await queue.get()
            self._g_queue.set(queue.qsize())
            waited_ms = (self.clock() - enqueued_at) * 1000.0
            self._h_deadline_wait.observe(waited_ms)
            response = self._expired(request, waited_ms)
            if response is None:
                response = self._served(request)
            if not future.done():
                future.set_result(response)

    def _expired(
        self, request: dict[str, Any], waited_ms: float
    ) -> dict[str, Any] | None:
        """The deadline check, strictly before dispatch.

        ``deadline_ms`` bounds *queue wait*: a request that waited
        longer than the caller gave it is refused without touching the
        engine, so a deadline refusal never half-applies.  A deadline
        of <= 0 is "expired on arrival" -- deterministic by
        construction, which is what probes and tests want.
        """
        raw = request.get("deadline_ms")
        if raw is None:
            return None
        deadline_ms = float(raw)
        if deadline_ms > 0.0 and waited_ms <= deadline_ms:
            return None
        self._m_deadline_expired.inc()
        self._m_rejected["deadline_exceeded"].inc()
        return to_response(
            DeadlineExceeded(
                f"deadline of {deadline_ms:g}ms expired after "
                f"{waited_ms:.3f}ms queued on shard {self.shard_index}",
                shard=self.shard_index,
                deadline_ms=deadline_ms,
                waited_ms=round(waited_ms, 3),
            )
        )

    def _served(self, request: dict[str, Any]) -> dict[str, Any]:
        """Idempotency-cache wrapper around :meth:`handle_request`.

        Only *success* responses are cached: a refusal must re-run so
        a retry can succeed once the refusing condition clears.
        """
        key = request.get("idem")
        if key is not None:
            cached = self._idem.get(str(key))
            if cached is not None:
                self._m_idem_hits.inc()
                return dict(cached)
        response = self.handle_request(request)
        if key is not None and response.get("ok", False):
            self._idem[str(key)] = dict(response)
            self._m_idem_stored.inc()
            while len(self._idem) > self.options.idem_capacity:
                self._idem.popitem(last=False)
        return response

    def _resolve(self, request: dict[str, Any]) -> Tenant:
        tenant_id = str(request["tenant"])
        owner = self.router.shard_of(tenant_id)
        if owner != self.shard_index:
            raise ShardUnavailable(
                f"tenant {tenant_id!r} is owned by shard {owner}, "
                f"not shard {self.shard_index}",
                tenant=tenant_id,
                owner_shard=owner,
                this_shard=self.shard_index,
            )
        tenant = self.tenants.get(tenant_id)
        if tenant is None or tenant.state is TenantState.RETIRED:
            raise TenantNotFound(
                f"no active tenant {tenant_id!r} on shard "
                f"{self.shard_index}",
                tenant=tenant_id,
                shard=self.shard_index,
            )
        return tenant

    def _quota(self, tenant: Tenant) -> TenantQuota:
        return self.quotas[tenant.tenant_id]

    # -- operations ---------------------------------------------------------

    def _op_provision(self, request: dict[str, Any]) -> dict[str, Any]:
        if self.draining:
            raise DrainInProgress(
                f"shard {self.shard_index} is draining; "
                "no new tenants accepted",
                shard=self.shard_index,
            )
        spec = TenantSpec.read(request["tenant"], request)
        owner = self.router.shard_of(spec.tenant_id)
        if owner != self.shard_index:
            raise ShardUnavailable(
                f"tenant {spec.tenant_id!r} routes to shard {owner}",
                tenant=spec.tenant_id,
                owner_shard=owner,
            )
        if spec.tenant_id in self.tenants or spec.tenant_id in self.retired:
            raise ServiceError(
                f"tenant {spec.tenant_id!r} already exists",
                tenant=spec.tenant_id,
            )
        tenant = Tenant.provision(
            self.root,
            spec,
            self.secret_seed,
            fault_profile=self.options.profile_for(spec.tenant_id),
            degraded_after=self.options.degraded_after,
        )
        self.tenants[spec.tenant_id] = tenant
        self.quotas[spec.tenant_id] = TenantQuota(
            spec.tenant_id, spec.quota, self.clock
        )
        self._refresh_gauges()
        return {
            "tenant": spec.tenant_id,
            "shard": self.shard_index,
            "capacity_bytes": tenant.capacity_bytes,
        }

    def _decode_block(self, text: str) -> bytes:
        data = bytes.fromhex(text)
        if len(data) != BLOCK_BYTES:
            raise ValueError(
                f"block payloads are {BLOCK_BYTES} bytes, got {len(data)}"
            )
        return data

    def _op_write(self, request: dict[str, Any]) -> dict[str, Any]:
        tenant = self._resolve(request)
        quota = self._quota(tenant)
        data = self._decode_block(str(request["data"]))
        quota.admit_ops(1)
        quota.admit_write_bytes(len(data))
        tenant.write(int(request["address"]), data)
        self._m_bytes_written.inc(len(data))
        return {"tenant": tenant.tenant_id, "address": int(request["address"])}

    def _op_batch(self, request: dict[str, Any]) -> dict[str, Any]:
        tenant = self._resolve(request)
        quota = self._quota(tenant)
        writes = [
            (int(address), self._decode_block(str(text)))
            for address, text in request["writes"]
        ]
        if not writes:
            raise ValueError("batch needs at least one write")
        total = sum(len(data) for _, data in writes)
        quota.admit_ops(len(writes))
        quota.admit_write_bytes(total)
        tenant.write_batch(writes)
        self._m_bytes_written.inc(total)
        return {"tenant": tenant.tenant_id, "writes": len(writes)}

    def _op_read(self, request: dict[str, Any]) -> dict[str, Any]:
        tenant = self._resolve(request)
        self._quota(tenant).admit_ops(1)
        result = tenant.read(int(request["address"]))
        data = result.data
        clean = bool(getattr(result, "ok", True)) and data is not None
        self._m_bytes_read.inc(len(data) if data is not None else 0)
        return {
            "tenant": tenant.tenant_id,
            "address": int(request["address"]),
            "data": data.hex() if data is not None else None,
            "clean": clean,
        }

    def _op_stat(self, request: dict[str, Any]) -> dict[str, Any]:
        tenant = self._resolve(request)
        payload = tenant.stat()
        payload["quota"] = self._quota(tenant).state()
        payload["shard"] = self.shard_index
        return payload

    def _op_drain(self, request: dict[str, Any]) -> dict[str, Any]:
        tenant = self._resolve(request)
        outcome = tenant.drain()
        self._m_drained.inc()
        self._refresh_gauges()
        return outcome

    def _op_retire(self, request: dict[str, Any]) -> dict[str, Any]:
        tenant = self._resolve(request)
        outcome = tenant.retire()
        self._refresh_gauges()
        return outcome

    def _op_drain_shard(self, request: dict[str, Any]) -> dict[str, Any]:
        return self.drain_all()

    def _op_ping(self, request: dict[str, Any]) -> dict[str, Any]:
        return {
            "shard": self.shard_index,
            "schema": PROTOCOL_SCHEMA,
            "draining": self.draining,
            "tenants": sorted(self.tenants),
        }

    # -- observability payloads (shared with the HTTP endpoints) -------------

    def metrics(self) -> dict[str, Any]:
        return metrics_payload(self)

    def health(self) -> dict[str, Any]:
        return health_payload(self)

    # -- the serving loop ---------------------------------------------------

    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._m_conn_accepted.inc()
        try:
            while True:
                try:
                    request = await read_frame(reader)
                # repro-lint: disable=RL007
                except (
                    asyncio.CancelledError,
                    asyncio.IncompleteReadError,
                    ConnectionResetError,
                    json.JSONDecodeError,
                    ValueError,
                ):
                    # CancelledError lands here only at loop teardown
                    # (stop already set); treat it as a hangup.
                    break
                await write_frame(writer, await self.submit(request))
        finally:
            self._m_conn_closed.inc()
            writer.close()
            # CancelledError included: loop teardown must not surface a
            # "exception never retrieved" from a half-closed transport.
            # repro-lint: disable=RL007
            with contextlib.suppress(Exception, asyncio.CancelledError):
                await writer.wait_closed()

    async def serve(self, stop: asyncio.Event) -> None:
        """Serve the protocol + HTTP sockets until ``stop`` is set."""
        proto_path = self.router.socket_path(self.shard_index)
        http_path = self.router.http_socket_path(self.shard_index)
        for path in (proto_path, http_path):
            # Startup, before any client can connect: unlinking a stale
            # socket path is sub-millisecond and nothing else runs yet.
            # repro-lint: disable=RL007
            path.unlink(missing_ok=True)
        self._queue = asyncio.Queue()
        dispatcher = asyncio.create_task(self._dispatch_loop())
        server = await asyncio.start_unix_server(
            self._handle_conn, path=str(proto_path)
        )
        http_server = await serve_http(self, str(http_path))
        try:
            await stop.wait()
        finally:
            server.close()
            http_server.close()
            dispatcher.cancel()
            # Reaping our own just-cancelled dispatcher: the
            # CancelledError *is* the expected completion here, and the
            # enclosing coroutine still propagates its own cancellation.
            # repro-lint: disable=RL007
            with contextlib.suppress(asyncio.CancelledError):
                await dispatcher
            self._queue = None
            await server.wait_closed()
            await http_server.wait_closed()
            for path in (proto_path, http_path):
                # Teardown mirror of the startup unlink above.
                # repro-lint: disable=RL007
                path.unlink(missing_ok=True)


def shard_main(
    root: str,
    shard_index: int,
    num_shards: int,
    secret_seed: int,
    options: ShardOptions | None = None,
) -> None:
    """Worker-process entry: recover, serve, drain on SIGTERM."""
    shard = Shard(
        root, shard_index, num_shards, secret_seed, options=options
    )
    shard.recover()

    async def _run() -> None:
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()

        def _graceful() -> None:
            # Drain first (checkpoint every tenant), then stop:
            # after this, restart recovery is a checkpoint load.
            shard.drain_all()
            stop.set()

        loop.add_signal_handler(signal.SIGTERM, _graceful)
        loop.add_signal_handler(signal.SIGINT, _graceful)
        await shard.serve(stop)

    asyncio.run(_run())


class ServiceSupervisor:
    """Owns the shard worker processes; can kill and restart them."""

    def __init__(
        self,
        root: str | pathlib.Path,
        num_shards: int = 2,
        secret_seed: int = 0xDAC2018,
        registry: MetricRegistry | None = None,
        options: ShardOptions | None = None,
    ) -> None:
        self.router = ShardRouter(root, num_shards)
        self.root = pathlib.Path(root)
        self.num_shards = num_shards
        self.secret_seed = secret_seed
        self.options = options
        self.registry = registry if registry is not None else MetricRegistry()
        self._m_restarts = self.registry.counter("service.shard.restarts")
        methods = multiprocessing.get_all_start_methods()
        self._context = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )
        self._workers: dict[int, Any] = {}

    def _spawn(self, shard: int) -> None:
        process = self._context.Process(
            target=shard_main,
            args=(
                str(self.root),
                shard,
                self.num_shards,
                self.secret_seed,
                self.options,
            ),
            daemon=True,
        )
        process.start()
        self._workers[shard] = process

    def start(self) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        for shard in self.router.shards():
            self._spawn(shard)

    def alive(self, shard: int) -> bool:
        process = self._workers.get(shard)
        return bool(process is not None and process.is_alive())

    def wait_ready(self, timeout: float = 10.0) -> None:
        """Block until every live shard accepts protocol connections."""
        # Supervisor readiness deadline: host process, real time.
        # repro-lint: disable=RL002
        deadline = time.monotonic() + timeout
        for shard in self.router.shards():
            self._poll_ready(
                shard, deadline, f"shard {shard} not ready within {timeout}s"
            )

    def _poll_ready(
        self, shard: int, deadline: float, late: str, *, watch: bool = True
    ) -> None:
        """Poll ``shard``'s socket until it accepts; refuse with ``late``
        once the deadline passes, or (with ``watch``) once the worker
        has died."""
        path = self.router.socket_path(shard)
        while not _socket_accepts(path):
            if watch and not self.alive(shard):
                raise ShardUnavailable(
                    f"shard {shard} died before becoming ready",
                    shard=shard,
                )
            # repro-lint: disable=RL002
            if time.monotonic() > deadline:
                raise ShardUnavailable(late, shard=shard)
            time.sleep(0.02)

    def kill_shard(self, shard: int) -> None:
        """SIGKILL a worker: the crash the durability plane exists for."""
        process = self._workers[shard]
        if process.is_alive():
            os.kill(process.pid, signal.SIGKILL)
        process.join(timeout=5.0)

    def restart_shard(self, shard: int, timeout: float = 10.0) -> None:
        """Start a replacement worker and wait for it to recover."""
        process = self._workers.get(shard)
        if process is not None and process.is_alive():
            raise ValueError(f"shard {shard} is still running")
        self._m_restarts.inc()
        self._spawn(shard)
        # Restart deadline: host process, real time.
        # repro-lint: disable=RL002
        deadline = time.monotonic() + timeout
        self._poll_ready(
            shard,
            deadline,
            f"restarted shard {shard} not ready within {timeout}s",
            watch=False,
        )

    def stop(self, timeout: float = 10.0) -> None:
        """Graceful shutdown: SIGTERM (drain) every worker, then join."""
        for process in self._workers.values():
            if process.is_alive():
                process.terminate()
        for process in self._workers.values():
            process.join(timeout=timeout)
            if process.is_alive():
                process.kill()
                process.join(timeout=timeout)
        self._workers.clear()


def _socket_accepts(path: pathlib.Path) -> bool:
    import socket

    if not path.exists():
        return False
    probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    try:
        probe.settimeout(0.2)
        probe.connect(str(path))
        return True
    except OSError:
        return False
    finally:
        probe.close()


#: refusals worth a client-side retry: the shard either never saw the
#: request (transport failure, breaker open) or refused it strictly
#: before dispatch (shed, deadline) -- re-sending cannot double-apply.
RETRYABLE_ERRORS = (ShardUnavailable, Overloaded, DeadlineExceeded)

#: ops whose requests get an auto-attached idempotency key
_MUTATING_OPS = frozenset({"provision", "write", "batch"})


class ServiceClient:
    """Async client: routes each request to the owning shard itself.

    Resilience plumbing, per shard: a :class:`CircuitBreaker` trips
    open after consecutive transport failures so retries fail fast
    instead of piling onto a dead socket, and :meth:`request_retry`
    sleeps exponential-backoff-with-full-jitter between attempts
    (seeded ``random.Random``: schedules are reproducible per client,
    decorrelated across clients).  Mutating requests sent through
    :meth:`request_retry` carry an auto-attached idempotency key, so a
    retry that lands after an ambiguous failure returns the cached
    success instead of double-applying.
    """

    def __init__(
        self,
        root: str | pathlib.Path,
        num_shards: int,
        *,
        registry: MetricRegistry | None = None,
        backoff: BackoffPolicy | None = None,
        breaker: BreakerConfig | None = None,
        rng_seed: int = 0,
    ) -> None:
        self.router = ShardRouter(root, num_shards)
        self.registry = registry if registry is not None else MetricRegistry()
        self.backoff = backoff if backoff is not None else BackoffPolicy()
        self.breaker_config = (
            breaker if breaker is not None else BreakerConfig()
        )
        self._rng = random.Random(rng_seed)
        self._conns: dict[
            int, tuple[asyncio.StreamReader, asyncio.StreamWriter]
        ] = {}
        self._breakers: dict[int, CircuitBreaker] = {}
        self._idem_prefix = f"{os.getpid():x}.{id(self):x}"
        self._idem_next = 0
        reg = self.registry
        self._m_sends = reg.counter("service.client.sends")
        self._m_retries = reg.counter("service.client.retries")
        self._m_fast_fail = reg.counter("service.breaker.fast_fail")
        self._m_transitions = {
            "open": reg.counter("service.breaker.opened"),
            "half_open": reg.counter("service.breaker.half_open"),
            "closed": reg.counter("service.breaker.closed"),
        }

    def _breaker(self, shard: int) -> CircuitBreaker:
        breaker = self._breakers.get(shard)
        if breaker is None:
            breaker = CircuitBreaker(
                self.breaker_config,
                on_transition=lambda _old, new: (
                    self._m_transitions[new].inc()
                ),
            )
            self._breakers[shard] = breaker
        return breaker

    def breaker_states(self) -> dict[int, str]:
        """Current circuit state per shard (for reports and tests)."""
        return {
            shard: breaker.state
            for shard, breaker in sorted(self._breakers.items())
        }

    async def _conn(
        self, shard: int
    ) -> tuple[asyncio.StreamReader, asyncio.StreamWriter]:
        cached = self._conns.get(shard)
        if cached is not None:
            return cached
        path = self.router.socket_path(shard)
        try:
            reader, writer = await asyncio.open_unix_connection(str(path))
        except (ConnectionError, FileNotFoundError, OSError) as error:
            raise ShardUnavailable(
                f"shard {shard} is not answering {path}: {error}",
                shard=shard,
            ) from error
        self._conns[shard] = (reader, writer)
        return reader, writer

    def _drop(self, shard: int) -> None:
        cached = self._conns.pop(shard, None)
        if cached is not None:
            cached[1].close()

    async def request(
        self, payload: dict[str, Any], shard: int | None = None
    ) -> dict[str, Any]:
        """Send one request; raises the typed error on a refusal.

        The shard's circuit breaker gates the send: while open, the
        call fails fast with :class:`ShardUnavailable` without touching
        the socket.  A *typed* refusal counts as breaker success (the
        shard answered; the circuit is healthy) -- only transport
        failures trip it.
        """
        if shard is None:
            shard = self.router.shard_of(str(payload["tenant"]))
        breaker = self._breaker(shard)
        if not breaker.allow():
            self._m_fast_fail.inc()
            raise ShardUnavailable(
                f"shard {shard} circuit is {breaker.state}; failing fast",
                shard=shard,
                breaker=breaker.state,
            )
        try:
            reader, writer = await self._conn(shard)
            self._m_sends.inc()
            await write_frame(writer, payload)
            response = await read_frame(reader)
        except ShardUnavailable:
            breaker.record_failure()
            raise
        except (
            ConnectionError,
            asyncio.IncompleteReadError,
            OSError,
        ) as error:
            self._drop(shard)
            breaker.record_failure()
            raise ShardUnavailable(
                f"shard {shard} connection failed mid-request: {error}",
                shard=shard,
            ) from error
        breaker.record_success()
        if not response.get("ok", False):
            raise from_response(response)
        return response

    def _attach_idem(self, payload: dict[str, Any]) -> dict[str, Any]:
        """A copy of ``payload`` with an idempotency key on mutators."""
        if payload.get("op") not in _MUTATING_OPS or "idem" in payload:
            return payload
        self._idem_next += 1
        return {
            **payload,
            "idem": f"{self._idem_prefix}.{self._idem_next}",
        }

    async def request_retry(
        self,
        payload: dict[str, Any],
        shard: int | None = None,
        deadline: float = 10.0,
    ) -> dict[str, Any]:
        """Retry retryable refusals until ``deadline`` seconds.

        Retries :data:`RETRYABLE_ERRORS` only -- refusals the shard
        issued strictly before dispatch, or transport failures.  The
        ambiguous-transport case is additionally covered twice over:
        writes re-apply the same (address, data) pair (convergent), and
        the auto-attached idempotency key makes the response itself
        exactly-once.  Sleeps use full-jitter exponential backoff, so
        concurrent clients hammering a restarting shard decorrelate
        instead of retrying in lockstep.
        """
        payload = self._attach_idem(payload)
        # Retry deadline against a real restarting process.
        # repro-lint: disable=RL002
        stop_at = time.monotonic() + deadline
        attempt = 0
        while True:
            try:
                return await self.request(payload, shard=shard)
            except RETRYABLE_ERRORS:
                # repro-lint: disable=RL002
                if time.monotonic() > stop_at:
                    raise
                self._m_retries.inc()
                await asyncio.sleep(self.backoff.delay(attempt, self._rng))
                attempt += 1

    # -- convenience ops ---------------------------------------------------

    async def provision(self, tenant: str, **fields: Any) -> dict[str, Any]:
        return await self.request(
            {"op": "provision", "tenant": tenant, **fields}
        )

    async def write(
        self, tenant: str, address: int, data: bytes
    ) -> dict[str, Any]:
        return await self.request(
            {
                "op": "write",
                "tenant": tenant,
                "address": address,
                "data": data.hex(),
            }
        )

    async def batch(
        self, tenant: str, writes: list[tuple[int, bytes]]
    ) -> dict[str, Any]:
        return await self.request(
            {
                "op": "batch",
                "tenant": tenant,
                "writes": [[address, data.hex()] for address, data in writes],
            }
        )

    async def read(self, tenant: str, address: int) -> bytes | None:
        response = await self.request(
            {"op": "read", "tenant": tenant, "address": address}
        )
        data = response.get("data")
        return bytes.fromhex(data) if data is not None else None

    async def stat(self, tenant: str) -> dict[str, Any]:
        return await self.request({"op": "stat", "tenant": tenant})

    async def drain(self, tenant: str) -> dict[str, Any]:
        return await self.request({"op": "drain", "tenant": tenant})

    async def retire(self, tenant: str) -> dict[str, Any]:
        return await self.request({"op": "retire", "tenant": tenant})

    async def ping(self, shard: int) -> dict[str, Any]:
        return await self.request({"op": "ping", "tenant": ""}, shard=shard)

    async def drain_shard(self, shard: int) -> dict[str, Any]:
        return await self.request(
            {"op": "drain_shard", "tenant": ""}, shard=shard
        )

    async def close(self) -> None:
        for shard in list(self._conns):
            self._drop(shard)


__all__ = [
    "MAX_FRAME_BYTES",
    "OPS",
    "PROTOCOL_SCHEMA",
    "REJECTION_CODES",
    "RETRYABLE_ERRORS",
    "ServiceClient",
    "ServiceSupervisor",
    "Shard",
    "ShardOptions",
    "encode_frame",
    "read_frame",
    "shard_main",
    "write_frame",
]
