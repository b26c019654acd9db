"""``repro chaos`` and ``repro loadgen``: one service campaign harness.

A campaign self-hosts a :class:`ServiceSupervisor`, provisions N tenants
across the shards, and drives concurrent per-tenant traffic (single
writes, group-commit batches, and verifying reads).  Each tenant checks
what it reads against a :class:`~repro.harness.oracle.ShadowOracle`;
at the end every tracked block is read back through the service and
checked once more.

``repro loadgen`` (:mod:`repro.service.loadgen`) is this campaign with
faults off.  ``repro chaos`` adds the full fault surface this service
claims to survive:

* **disk faults** -- every tenant's :class:`~repro.faultfs.FaultFS`
  runs a seeded background :class:`~repro.faultfs.FaultProfile`, and
  one *victim* tenant (routed to a never-killed shard, so its
  in-memory degraded state survives the campaign) gets a boosted rate
  that drives it into degraded read-only mode;
* **shard kills** -- one worker is SIGKILLed mid-run and restarted,
  exercising the client circuit breaker (open -> fast-fail ->
  half-open probe -> closed) and journal replay;
* **induced overload** -- a burst of raw concurrent connections
  overflows the bounded dispatch queue, proving requests shed with a
  typed ``Overloaded`` refusal instead of queuing without bound;
* **deadline probes** -- requests carrying ``deadline_ms = 0`` must
  come back ``DeadlineExceeded``, deterministically, without touching
  any engine.

Correctness contract: **zero silent data corruption, bounded
staleness**.  Every *acknowledged* write must read back exactly.  A
*refused* mutation is allowed to leave the address at either the last
acknowledged value or the attempted one -- a storage fault between the
in-memory apply and the journal seal is genuinely ambiguous one level
up -- so the oracle tracks a candidate *set* for such addresses and
verification accepts either member, never a third value.  Every
refusal must be typed: an ``internal`` error code anywhere fails the
campaign.

An op's latency includes any retry stall (a killed shard answers again
only after the restarted worker replayed its journals), so the reported
p99 is the *user-visible* tail, not a fair-weather number.  Latency and
throughput are wall-clock and therefore machine-dependent; the
correctness fields are not.

The payload also carries a *retry-amplification* measurement (total
client frame sends over logical operations).  :func:`claim_failures`
judges a payload against every claim above that its own ``config``
switches on, amplification <= 3x included, and a campaign passes only
when it finds none.
"""

from __future__ import annotations

import asyncio
import collections
import hashlib
import pathlib
import random
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, ClassVar, Sequence

from repro.faultfs import FaultProfile
from repro.harness.oracle import AMBIGUOUS_OK, OK, SDC, SKIPPED, ShadowOracle
from repro.harness.reporting import format_series, format_table
from repro.obs.metrics import MetricRegistry
from repro.service.breaker import BreakerConfig
from repro.service.endpoints import scrape
from repro.service.errors import (
    QuotaExceeded,
    ServiceError,
    StorageFaulted,
    TenantDegraded,
)
from repro.service.quota import QuotaConfig
from repro.service.router import ShardRouter, shard_of
from repro.service.server import (
    RETRYABLE_ERRORS,
    ServiceClient,
    ServiceSupervisor,
    ShardOptions,
    encode_frame,
    read_frame,
)
from repro.service.tenant import BLOCK_BYTES

CHAOS_SCHEMA = "repro.service.chaos/1"
BENCH_SCHEMA = "repro.service.bench/1"
#: ceiling on client frame sends per logical operation
MAX_AMPLIFICATION = 3.0


@dataclass(frozen=True)
class ChaosSpec:
    """One service campaign, fully determined by its fields.

    What sets a chaos campaign apart from plain load derives from the
    fields, not from a mode switch: a nonzero fault rate provisions the
    tenants with the resilience plane and gives their clients a
    fast-tripping breaker (so a shard kill shows it cycle); a nonzero
    ``boost_rate`` picks a victim tenant, and then ``quota`` rate-limits
    one *other* tenant, so the two refusal kinds stay apart -- without a
    victim every tenant runs under ``quota``.
    """

    #: prefix of the per-tenant traffic and client RNG streams
    namespace: ClassVar[str] = "repro.chaos"

    tenants: int = 4
    shards: int = 2
    ops_per_tenant: int = 120
    batch_every: int = 8
    batch_size: int = 4
    read_every: int = 5
    region_kb: int = 16
    preset: str = "combined"
    keystream: str = "splitmix"
    seed: int = 1
    secret_seed: int = 0xDAC2018
    #: background disk-fault rate every tenant runs under
    fault_rate: float = 0.002
    #: boosted rate for the degraded-mode victim tenant
    boost_rate: float = 0.35
    #: fs steps exempt from injection (covers provisioning + recovery
    #: warm-up after a restart)
    warmup_steps: int = 24
    degraded_after: int = 4
    max_queue_depth: int = 8
    #: SIGKILL this shard once mid-run, then restart it
    kill_shard: int | None = 1
    kill_after_fraction: float = 0.4
    #: concurrent raw connections fired at one shard to overflow the
    #: dispatch queue
    overload_probes: int = 32
    #: requests sent with ``deadline_ms = 0`` (expired on arrival)
    deadline_probes: int = 8
    #: op quota: tight, for one tenant, so QuotaExceeded shows up typed
    quota: QuotaConfig = field(
        default_factory=lambda: QuotaConfig(rate_ops=400.0, burst_ops=24)
    )

    def __post_init__(self) -> None:
        if self.tenants < 1 or self.shards < 1:
            raise ValueError("tenants and shards must be >= 1")
        if self.ops_per_tenant < 1:
            raise ValueError("ops_per_tenant must be >= 1")
        if self.kill_shard is not None and not (
            0 <= self.kill_shard < self.shards
        ):
            raise ValueError("kill_shard out of range")
        if not 0.0 <= self.fault_rate < 1.0 or not 0.0 <= self.boost_rate < 1.0:
            raise ValueError("fault rates must be in [0, 1)")
        # The victim and the probes need a shard that is never killed.
        spare_shard = (
            self.boost_rate or self.overload_probes or self.deadline_probes
        )
        if (self.boost_rate and self.tenants < 2) or (
            spare_shard and self.kill_shard is not None and self.shards < 2
        ):
            raise ValueError(
                "chaos needs >= 2 tenants and >= 2 shards (one shard "
                "is killed; the victim tenant must live elsewhere)"
            )

    def tenant_ids(self) -> list[str]:
        return [f"tenant-{index:02d}" for index in range(self.tenants)]

    def injects_faults(self) -> bool:
        return self.fault_rate > 0 or self.boost_rate > 0

    def victim_tenant(self) -> str | None:
        """The boosted tenant: first one routed off the killed shard."""
        if not self.boost_rate:
            return None
        for tenant_id in self.tenant_ids():
            if shard_of(tenant_id, self.shards) != self.kill_shard:
                return tenant_id
        raise ValueError("no tenant routes off the killed shard")

    def quota_tenant(self) -> str | None:
        """The rate-limited tenant (distinct from the victim; None when
        there is no victim and every tenant runs under ``quota``)."""
        victim = self.victim_tenant()
        if victim is None:
            return None
        return next(t for t in reversed(self.tenant_ids()) if t != victim)

    def quota_for(self, tenant_id: str) -> QuotaConfig:
        if self.quota_tenant() in (None, tenant_id):
            return self.quota
        return QuotaConfig()

    def breaker(self) -> BreakerConfig | None:
        if self.injects_faults():
            return BreakerConfig(failure_threshold=3, cooldown=0.1)
        return None

    def safe_shard(self) -> int:
        """A shard that is never killed (overload/deadline target)."""
        return 0 if self.kill_shard != 0 else 1

    def _profile(self, rate: float) -> FaultProfile | None:
        if not rate:
            return None
        return FaultProfile(
            seed=self.seed, rate=rate, warmup_steps=self.warmup_steps
        )

    def shard_options(self) -> ShardOptions:
        return ShardOptions(
            max_queue_depth=self.max_queue_depth,
            degraded_after=self.degraded_after,
            fault_profile=self._profile(self.fault_rate),
            fault_boost_tenant=self.victim_tenant() or "",
            fault_boost_profile=self._profile(self.boost_rate),
        )

    #: what the bench payload's ``config`` records (methods by value)
    config_fields: ClassVar[tuple[str, ...]] = (
        "tenants", "shards", "ops_per_tenant", "seed", "fault_rate",
        "boost_rate", "warmup_steps", "degraded_after", "max_queue_depth",
        "kill_shard", "kill_after_fraction", "overload_probes",
        "deadline_probes", "victim_tenant", "quota_tenant",
    )

    def config_dict(self) -> dict[str, Any]:
        config = {}
        for name in self.config_fields:
            value = getattr(self, name)
            config[name] = value() if callable(value) else value
        return config


def _block_payload(tenant_id: str, seed: int, address: int,
                   sequence: int) -> bytes:
    return hashlib.sha512(
        f"repro.loadgen/{tenant_id}/{seed}/{address}/{sequence}".encode()
    ).digest()[:BLOCK_BYTES]


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]) of ``samples``, in ms."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1,
                      round(q / 100.0 * (len(ordered) - 1))))
    return ordered[rank]


class _Traffic:
    """One tenant's traffic loop, checked against its shadow oracle.

    Through the service a never-acknowledged block has no ground truth
    (it legally reads as whatever the engine initialises it to), so the
    oracle skips it instead of expecting zeros.
    """

    def __init__(
        self,
        tenant_id: str,
        spec: ChaosSpec,
        root: pathlib.Path,
        client_registry: MetricRegistry,
    ) -> None:
        self.tenant_id = tenant_id
        self.spec = spec
        self.client = ServiceClient(
            root,
            spec.shards,
            registry=client_registry,
            breaker=spec.breaker(),
            rng_seed=int.from_bytes(
                hashlib.sha256(
                    f"{spec.namespace}.client/{spec.seed}/{tenant_id}".encode()
                ).digest()[:8],
                "big",
            ),
        )
        self.rng = random.Random(f"{spec.namespace}/{spec.seed}/{tenant_id}")
        self.shadow = ShadowOracle()
        self.refusals: collections.Counter[str] = collections.Counter()
        self.logical_ops = 0
        #: acknowledged requests, and the block reads/writes they carried
        self.acked_ops = 0
        self.acked_blocks = 0
        self.inline_mismatches = 0
        self.inline_ambiguous = 0
        self.latencies_ms: list[float] = []
        self.capacity_bytes = 0

    async def provision(self) -> None:
        self.logical_ops += 1
        response = await self.client.request_retry({
            "op": "provision",
            "tenant": self.tenant_id,
            "preset": self.spec.preset,
            "region_kb": self.spec.region_kb,
            "keystream": self.spec.keystream,
            "resilience": self.spec.injects_faults(),
            "quota": self.spec.quota_for(self.tenant_id).to_json(),
        })
        self.capacity_bytes = int(response["capacity_bytes"])

    def _pick_address(self) -> int:
        blocks = self.capacity_bytes // BLOCK_BYTES
        return self.rng.randrange(blocks) * BLOCK_BYTES

    async def _request(
        self, payload: dict[str, Any], writes: Sequence[tuple[int, bytes]] = ()
    ) -> dict[str, Any] | None:
        """One request; returns None on a refusal, classified by type."""
        # Per-op latency includes retry stalls: the user-visible tail.
        # repro-lint: disable=RL002
        start = time.monotonic()
        try:
            return await self.client.request_retry(payload, deadline=30.0)
        except (QuotaExceeded, TenantDegraded) as error:
            # Refused strictly before dispatch: nothing reached the
            # engine, the last acked value still stands.
            self.refusals[error.code] += 1
        except StorageFaulted as error:
            # The backing store refused mid-mutation: not acked, but
            # possibly applied in engine memory.  Two-valued from here
            # until a later ack pins it.
            self.refusals[error.code] += 1
            self.shadow.refuse_ambiguous(writes)
        except RETRYABLE_ERRORS as error:
            # Retry budget exhausted: the last attempt is ambiguous.
            self.refusals[error.code] += 1
            self.shadow.refuse_ambiguous(writes)
        except ServiceError as error:
            self.refusals[error.code] += 1
        finally:
            # repro-lint: disable=RL002
            self.latencies_ms.append((time.monotonic() - start) * 1000.0)
        return None

    async def _one_op(self, sequence: int) -> None:
        spec = self.spec
        self.logical_ops += 1
        if (
            spec.read_every
            and sequence % spec.read_every == 2
            and self.shadow.acked
        ):
            address = self.rng.choice(sorted(self.shadow.acked))
            response = await self._request({
                "op": "read",
                "tenant": self.tenant_id,
                "address": address,
            })
            if response is None:
                return
            data = response.get("data")
            verdict = self.shadow.check(
                address, bytes.fromhex(data) if data else None
            )
            if verdict == SDC:
                self.inline_mismatches += 1
                return
            if verdict == AMBIGUOUS_OK:
                self.inline_ambiguous += 1
            self.acked_ops += 1
            self.acked_blocks += 1
            return
        if spec.batch_every and sequence % spec.batch_every == 1:
            writes = []
            for offset in range(spec.batch_size):
                address = self._pick_address()
                writes.append((address, _block_payload(
                    self.tenant_id, spec.seed, address,
                    sequence * 1000 + offset,
                )))
            payload = {
                "op": "batch",
                "tenant": self.tenant_id,
                "writes": [[a, d.hex()] for a, d in writes],
            }
        else:
            address = self._pick_address()
            data = _block_payload(self.tenant_id, spec.seed, address, sequence)
            writes = [(address, data)]
            payload = {
                "op": "write",
                "tenant": self.tenant_id,
                "address": address,
                "data": data.hex(),
            }
        if await self._request(payload, writes) is not None:
            self.shadow.ack(writes)
            self.acked_ops += 1
            self.acked_blocks += len(writes)

    async def run(self) -> None:
        for sequence in range(self.spec.ops_per_tenant):
            await self._one_op(sequence)

    async def verify(self) -> collections.Counter[str]:
        """Read back every tracked address: one oracle verdict each.

        Reads retry transport failures (a shard killed after this
        tenant's traffic ended leaves a dead cached connection) and pay
        the same op quota as traffic, so a rate-limited tenant's sweep
        politely waits for bucket refills.
        """
        observed = {}
        for address in self.shadow.sweep():
            while True:
                try:
                    response = await self.client.request_retry(
                        {
                            "op": "read",
                            "tenant": self.tenant_id,
                            "address": address,
                        },
                        deadline=30.0,
                    )
                    break
                except QuotaExceeded:
                    await asyncio.sleep(0.05)
            data = response.get("data")
            observed[address] = (
                bytes.fromhex(data) if data is not None else None
            )
        return self.shadow.verify(observed)

    async def close(self) -> None:
        await self.client.close()


async def _deadline_probes(
    spec: ChaosSpec, root: pathlib.Path, registry: MetricRegistry
) -> dict[str, int]:
    """Fire ``deadline_ms = 0`` pings; every one must come back typed."""
    client = ServiceClient(
        root, spec.shards, registry=registry, rng_seed=spec.seed
    )
    refused = other = 0
    try:
        for index in range(spec.deadline_probes):
            shard = index % spec.shards
            if shard == spec.kill_shard:
                shard = spec.safe_shard()
            try:
                await client.request(
                    {"op": "ping", "tenant": "", "deadline_ms": 0},
                    shard=shard,
                )
                other += 1
            except ServiceError as error:
                if error.code == "deadline_exceeded":
                    refused += 1
                else:
                    other += 1
    finally:
        await client.close()
    return {
        "sent": spec.deadline_probes,
        "refused": refused,
        "other": other,
    }


async def _overload_burst(
    spec: ChaosSpec, root: pathlib.Path
) -> dict[str, int]:
    """Overflow one shard's dispatch queue with raw concurrent frames.

    Raw connections (not :class:`ServiceClient`) because one client
    serializes request/response per shard; shedding needs genuinely
    concurrent arrivals.  These sends are deliberately outside the
    retry-amplification accounting -- they exist to be refused.
    """
    shard = spec.safe_shard()
    path = str(ShardRouter(root, spec.shards).socket_path(shard))
    frame = encode_frame({"op": "ping", "tenant": ""})

    async def _probe() -> str:
        try:
            reader, writer = await asyncio.open_unix_connection(path)
        except OSError:
            return "connect_failed"
        try:
            writer.write(frame)
            await writer.drain()
            response = await read_frame(reader)
        except (OSError, asyncio.IncompleteReadError, ValueError):
            return "io_failed"
        finally:
            writer.close()
        if response.get("ok", False):
            return "ok"
        return str(response.get("error", {}).get("code", "internal"))

    outcomes = await asyncio.gather(
        *(_probe() for _ in range(spec.overload_probes))
    )
    counts = collections.Counter(outcomes)
    return {
        "probes": spec.overload_probes,
        "ok": counts.get("ok", 0),
        "shed": counts.get("overloaded", 0),
        "errors": spec.overload_probes
        - counts.get("ok", 0)
        - counts.get("overloaded", 0),
    }


async def _degraded_probe(victim: _Traffic) -> dict[str, Any]:
    """The victim must end the campaign degraded: one more write has to
    bounce with the typed refusal while a read still serves."""
    tenant = victim.tenant_id
    write_refused = read_ok = False
    try:
        await victim.client.write(
            tenant, 0, _block_payload(tenant, victim.spec.seed, 0, 999_999)
        )
    except ServiceError as error:
        write_refused = isinstance(error, TenantDegraded)
    try:
        await victim.client.read(tenant, 0)
        read_ok = True
    except ServiceError:
        pass
    return {
        "tenant": tenant,
        "write_refused": write_refused,
        "read_ok": read_ok,
    }


async def _drive(
    spec: ChaosSpec,
    root: pathlib.Path,
    supervisor: ServiceSupervisor,
) -> tuple[dict[str, Any], list[_Traffic]]:
    client_registry = MetricRegistry()
    traffic = [
        _Traffic(tenant_id, spec, root, client_registry)
        for tenant_id in spec.tenant_ids()
    ]
    for tenant in traffic:
        await tenant.provision()

    kill_events: list[dict[str, Any]] = []

    async def _chaos_kill() -> None:
        if spec.kill_shard is None:
            return
        total = spec.ops_per_tenant * spec.tenants
        target = int(total * spec.kill_after_fraction)
        while (
            sum(t.acked_ops + sum(t.refusals.values()) for t in traffic)
            < target
        ):
            await asyncio.sleep(0.01)
        await asyncio.to_thread(supervisor.kill_shard, spec.kill_shard)
        kill_events.append({"shard": spec.kill_shard, "action": "kill"})
        if spec.injects_faults():
            # Hold the shard down until a client breaker trips (at most
            # ~5 s): a worker that restarts faster than three failed
            # retries would otherwise never show the breaker cycle.
            opened = client_registry.counter("service.breaker.opened")
            for _ in range(500):
                if opened.value:
                    break
                await asyncio.sleep(0.01)
        await asyncio.to_thread(supervisor.restart_shard, spec.kill_shard)
        kill_events.append({"shard": spec.kill_shard, "action": "restart"})

    # Campaign wallclock (throughput denominator), not simulated time.
    # repro-lint: disable=RL002
    start = time.monotonic()
    deadline_report, overload_report, *_ = await asyncio.gather(
        _deadline_probes(spec, root, client_registry),
        _overload_burst(spec, root),
        _chaos_kill(),
        *(tenant.run() for tenant in traffic),
    )
    # repro-lint: disable=RL002
    elapsed = time.monotonic() - start

    victim = spec.victim_tenant()
    degraded = None
    if victim is not None:
        degraded = await _degraded_probe(
            next(t for t in traffic if t.tenant_id == victim)
        )

    verdicts, refusals = collections.Counter(), collections.Counter()
    for tenant in traffic:
        verdicts.update(await tenant.verify())
        refusals.update(tenant.refusals)
    verified = verdicts[OK] + verdicts[AMBIGUOUS_OK]

    logical_ops = sum(t.logical_ops for t in traffic) + (
        deadline_report["sent"]
    ) + verified + verdicts[SDC]
    client_totals = client_registry.snapshot().totals()
    sends = client_totals.get("service.client.sends", 0)
    amplification = (sends / logical_ops) if logical_ops else 0.0

    all_latencies = [
        sample for t in traffic for sample in t.latencies_ms
    ]
    breaker_states = {
        t.tenant_id: t.client.breaker_states() for t in traffic
    }
    for tenant in traffic:
        await tenant.close()

    return {
        "elapsed_s": round(elapsed, 3),
        "acked_ops": sum(t.acked_ops for t in traffic),
        "logical_ops": logical_ops,
        "refusals": dict(sorted(refusals.items())),
        "p50_ms": round(percentile(all_latencies, 50), 3),
        "p99_ms": round(percentile(all_latencies, 99), 3),
        "verified_blocks": verified,
        "sdc_blocks": verdicts[SDC],
        "ambiguous_ok_blocks": verdicts[AMBIGUOUS_OK],
        "skipped_blocks": verdicts[SKIPPED],
        "inline_mismatches": sum(t.inline_mismatches for t in traffic),
        "inline_ambiguous": sum(t.inline_ambiguous for t in traffic),
        "kill_events": kill_events,
        "deadline": deadline_report,
        "overload": overload_report,
        "client": {
            "sends": sends,
            "retries": client_totals.get("service.client.retries", 0),
            "fast_fails": client_totals.get(
                "service.breaker.fast_fail", 0
            ),
            "amplification": round(amplification, 3),
        },
        "breaker": {
            "opened": client_totals.get("service.breaker.opened", 0),
            "half_open": client_totals.get(
                "service.breaker.half_open", 0
            ),
            "closed": client_totals.get("service.breaker.closed", 0),
            "states": breaker_states,
        },
        "degraded": degraded,
    }, traffic


def run_campaign(
    spec: ChaosSpec, root: str | pathlib.Path | None = None
) -> tuple[dict[str, Any], list[_Traffic], dict[str, Any]]:
    """Self-host the service, drive one campaign, scrape every shard:
    returns the results, the per-tenant traffic loops and each shard's
    final ``/health`` payload.  Without a ``root`` the service lives in
    a temporary directory, removed afterwards.

    The ``/health`` snapshots (``repro chaos --health-out``) are not
    byte-stable run to run, even at one commit and seed: each tenant's
    ``recovery`` block counts what the killed shard's journal held when
    the SIGKILL landed, so ``discarded_unsealed``, ``redo_records``,
    ``redo_data_blocks`` and ``root_expected`` depend on timing.  The
    verdict is stable; no check may treat those four fields as
    reproducible, nor ``acked_ops``: the rate-limited tenant's op quota
    refills by wall clock, so its ``quota_exceeded`` refusals vary."""
    if root is None:
        prefix = spec.namespace.replace(".", "-") + "-"
        with tempfile.TemporaryDirectory(prefix=prefix) as temp_root:
            return run_campaign(spec, temp_root)
    root = pathlib.Path(root)
    supervisor = ServiceSupervisor(
        root,
        num_shards=spec.shards,
        secret_seed=spec.secret_seed,
        options=spec.shard_options(),
    )
    supervisor.start()
    try:
        supervisor.wait_ready()
        results, traffic = asyncio.run(_drive(spec, root, supervisor))
        health = {}
        for shard in range(spec.shards):
            http = str(supervisor.router.http_socket_path(shard))
            health[f"shard-{shard}"] = scrape(http, "/health")
    finally:
        supervisor.stop()
    return results, traffic, health


def all_verified(results: dict[str, Any]) -> bool:
    """No SDC in the sweep or inline, and every refusal typed."""
    return (
        results["sdc_blocks"] == 0
        and results["inline_mismatches"] == 0
        and results["refusals"].get("internal", 0) == 0
    )


def claim_failures(payload: dict[str, Any]) -> list[str]:
    """Every resilience claim a campaign payload fails (empty = pass).

    Three claims hold for every campaign: no silent corruption, swept or
    inline, with at least one block verified; every refusal typed; and
    retry amplification within :data:`MAX_AMPLIFICATION`.  The others
    hold where the payload's own ``config`` switches their stressor on:
    a killed shard was killed and restarted, and with disk faults as
    well the client breaker cycled open -> half-open -> closed; the
    overload burst was shed; every deadline probe was refused; the
    victim tenant ended degraded but readable.  A loadgen payload's
    config has no fault rate, probe or victim, so of these only the kill
    claim can apply to it.
    """
    schema = payload.get("schema")
    if schema not in (CHAOS_SCHEMA, BENCH_SCHEMA):
        return [f"schema {schema!r} is not a service campaign payload"]
    config, results = payload["config"], payload["results"]
    failures = [
        f"silent corruption: {name} = {results[name]}"
        for name in ("sdc_blocks", "inline_mismatches") if results[name]
    ]
    if results["verified_blocks"] < 1:
        failures.append("no blocks verified: the campaign proved nothing")
    if results["refusals"].get("internal", 0):
        failures.append(
            f"{results['refusals']['internal']} untyped 'internal' "
            "refusal(s)"
        )
    client = results["client"]
    amplification = client.get("amplification")
    if amplification is None:
        failures.append("no retry-amplification measurement recorded")
    elif amplification > MAX_AMPLIFICATION:
        failures.append(
            f"retry amplification {amplification}x exceeds the "
            f"{MAX_AMPLIFICATION}x ceiling ({client['sends']} sends / "
            f"{results['logical_ops']} logical ops)"
        )
    if not payload["all_verified"]:
        failures.append("payload's own all_verified flag is false")

    if config["kill_shard"] is not None:
        actions = {event["action"] for event in results["kill_events"]}
        failures += [
            f"chaos {action} event missing from the record"
            for action in ("kill", "restart") if action not in actions
        ]
        if config.get("fault_rate") or config.get("boost_rate"):
            failures += [
                f"breaker never {transition}: the open -> half-open -> "
                "closed recovery cycle was not observed"
                for transition in ("opened", "half_open", "closed")
                if results["breaker"][transition] < 1
            ]
    if config.get("overload_probes") and results["overload"]["shed"] < 1:
        failures.append(
            "overload burst was never shed: the dispatch queue bound "
            "did not engage"
        )
    if config.get("deadline_probes"):
        deadline = results["deadline"]
        if not deadline["refused"] == deadline["sent"] >= 1:
            failures.append(
                f"{deadline['refused']}/{deadline['sent']} deadline_ms=0 "
                "probes came back deadline_exceeded, not every one"
            )
    if config.get("victim_tenant"):
        degraded = results["degraded"] or {}
        victim = config["victim_tenant"]
        if not degraded.get("write_refused"):
            failures.append(
                f"victim tenant {victim!r} did not refuse the "
                "post-campaign write (degraded mode not reached or not "
                "enforced)"
            )
        if not degraded.get("read_ok"):
            failures.append(
                f"victim tenant {victim!r} refused a read: degraded mode "
                "must stay readable"
            )
    return failures


@dataclass(frozen=True)
class ServiceReport:
    """One ``repro chaos``/``loadgen`` campaign: its bench payload
    (:meth:`to_json`), summary and verdict (:func:`claim_failures`)."""

    spec: ChaosSpec
    payload: dict[str, Any]

    @property
    def ok(self) -> bool:
        return not claim_failures(self.payload)

    @property
    def health(self) -> dict[str, Any]:
        """The final ``/health`` view the payload records per shard."""
        return self.payload["health"]

    def to_json(self) -> dict[str, Any]:
        return self.payload

    def format_summary(self) -> str:
        spec, results = self.spec, self.payload["results"]
        breaker = results["breaker"]
        client = results["client"]
        degraded = results["degraded"] or {}
        refusals = format_table(
            f"Service {spec.namespace.rpartition('.')[2]} ({spec.tenants} "
            f"tenants x {spec.shards} shards, kill shard {spec.kill_shard}, "
            f"victim {spec.victim_tenant()})",
            ["refusal code", "count"],
            [[code, n] for code, n in sorted(results["refusals"].items())]
            or [["(none)", 0]],
        )
        summary = format_series("Summary", {
            "acked ops": results["acked_ops"],
            "throughput ops/s": results.get("throughput_ops_s", "-"),
            "p50 / p99 ms": f"{results['p50_ms']} / {results['p99_ms']}",
            "verified blocks": results["verified_blocks"],
            "ambiguous ok / skipped": f"{results['ambiguous_ok_blocks']} / "
                                      f"{results['skipped_blocks']}",
            "SDC blocks": results["sdc_blocks"],
            "breaker opened / half-open / closed": f"{breaker['opened']} / "
            f"{breaker['half_open']} / {breaker['closed']}",
            "overload shed": f"{results['overload']['shed']}/"
                             f"{results['overload']['probes']}",
            "deadline refused": f"{results['deadline']['refused']}/"
                                f"{results['deadline']['sent']}",
            "degraded write refused / read ok":
                f"{degraded.get('write_refused')} / {degraded.get('read_ok')}",
            "retry amplification": f"{client['amplification']}x ("
            f"{client['sends']} sends / {results['logical_ops']} logical "
            "ops)",
            "all_verified": self.payload["all_verified"],
        })
        lines = [refusals, "", summary]
        lines += [f"  FAIL {claim}" for claim in claim_failures(self.payload)]
        return "\n".join(lines)


def run_chaos(
    spec: ChaosSpec, root: str | pathlib.Path | None = None
) -> ServiceReport:
    """Run one chaos campaign end to end (in a temporary service root
    unless ``root`` is given)."""
    results, _, health = run_campaign(spec, root)
    return ServiceReport(spec, {
        "schema": CHAOS_SCHEMA,
        "bench": "chaos",
        "config": spec.config_dict(),
        "results": results,
        "health": health,
        "all_verified": all_verified(results),
    })


__all__ = [
    "BENCH_SCHEMA",
    "CHAOS_SCHEMA",
    "MAX_AMPLIFICATION",
    "ChaosSpec",
    "ServiceReport",
    "claim_failures",
    "percentile",
    "run_campaign",
    "run_chaos",
]
