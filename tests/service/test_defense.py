"""Server-side defenses: shedding, deadlines, idempotency, degraded mode.

All in-process against one :class:`Shard` -- the dispatch queue and its
loop are driven directly, so every refusal path is deterministic (no
sockets, no timing races).
"""

import asyncio

import pytest

from repro.faultfs import FaultProfile
from repro.service.endpoints import health_payload
from repro.service.router import shard_of
from repro.service.server import Shard, ShardOptions

SEED = 0xBEEF


def owned_tenant_ids(shard_index, num_shards, count=1):
    out = []
    i = 0
    while len(out) < count:
        candidate = f"own-{i}"
        if shard_of(candidate, num_shards) == shard_index:
            out.append(candidate)
        i += 1
    return out


def provision(shard, tenant_id, **fields):
    request = {"op": "provision", "tenant": tenant_id, "region_kb": 8,
               "checkpoint_interval": 4}
    request.update(fields)
    response = shard.handle_request(request)
    assert response["ok"], response
    return response


def make_shard(tmp_path, **options):
    return Shard(
        tmp_path, shard_index=0, num_shards=2, secret_seed=SEED,
        options=ShardOptions(**options),
    )


class TestOverloadShedding:
    def test_full_queue_sheds_without_charging(self, tmp_path):
        shard = make_shard(tmp_path, max_queue_depth=2)

        async def scenario():
            shard._queue = asyncio.Queue()
            loop = asyncio.get_running_loop()
            for _ in range(2):  # fill to depth, no dispatcher running
                shard._queue.put_nowait(
                    ({"op": "ping"}, loop.create_future(), 0.0)
                )
            return await shard.submit({"op": "ping"})

        response = asyncio.run(scenario())
        assert response["ok"] is False
        assert response["error"]["code"] == "overloaded"
        assert response["error"]["detail"]["queue_depth"] == 2
        totals = shard.registry.snapshot().totals()
        assert totals["service.overload.shed"] == 1
        assert totals["service.rejected.overloaded"] == 1
        # shedding happens at admission: the op never ran
        assert totals.get("service.request.ping", 0) == 0

    def test_below_depth_requests_dispatch(self, tmp_path):
        shard = make_shard(tmp_path, max_queue_depth=2)

        async def scenario():
            shard._queue = asyncio.Queue()
            dispatcher = asyncio.create_task(shard._dispatch_loop())
            try:
                return await shard.submit({"op": "ping"})
            finally:
                dispatcher.cancel()

        response = asyncio.run(scenario())
        assert response["ok"] and response["shard"] == 0


class TestDeadlines:
    def run_with_dispatcher(self, shard, request):
        async def scenario():
            shard._queue = asyncio.Queue()
            dispatcher = asyncio.create_task(shard._dispatch_loop())
            try:
                return await shard.submit(request)
            finally:
                dispatcher.cancel()

        return asyncio.run(scenario())

    def test_zero_deadline_expires_on_arrival(self, tmp_path):
        shard = make_shard(tmp_path)
        response = self.run_with_dispatcher(
            shard, {"op": "ping", "deadline_ms": 0}
        )
        assert response["ok"] is False
        error = response["error"]
        assert error["code"] == "deadline_exceeded"
        assert error["detail"]["deadline_ms"] == 0.0
        totals = shard.registry.snapshot().totals()
        assert totals["service.deadline.expired"] == 1
        # refused pre-dispatch: the handler never saw it
        assert totals.get("service.request.ping", 0) == 0

    def test_generous_deadline_serves(self, tmp_path):
        shard = make_shard(tmp_path)
        response = self.run_with_dispatcher(
            shard, {"op": "ping", "deadline_ms": 60_000}
        )
        assert response["ok"]

    def test_expired_deadline_refused_as_such_on_a_full_queue(self, tmp_path):
        """An expired-on-arrival request is refused as deadline_exceeded
        even when the queue is full; one without a deadline is shed."""
        shard = make_shard(tmp_path, max_queue_depth=1)

        async def scenario():
            shard._queue = asyncio.Queue()
            loop = asyncio.get_running_loop()
            shard._queue.put_nowait(
                ({"op": "ping"}, loop.create_future(), 0.0)
            )
            expired = await shard.submit({"op": "ping", "deadline_ms": 0})
            plain = await shard.submit({"op": "ping"})
            return expired, plain

        expired, plain = asyncio.run(scenario())
        assert expired["error"]["code"] == "deadline_exceeded"
        assert plain["error"]["code"] == "overloaded"
        totals = shard.registry.snapshot().totals()
        assert totals["service.deadline.expired"] == 1
        assert totals["service.overload.shed"] == 1
        assert totals.get("service.request.ping", 0) == 0

    def test_no_deadline_means_no_deadline(self, tmp_path):
        shard = make_shard(tmp_path)
        response = self.run_with_dispatcher(shard, {"op": "ping"})
        assert response["ok"]


class TestIdempotency:
    def submit(self, shard, request):
        # no queue -> direct dispatch through the idempotency cache
        return asyncio.run(shard.submit(request))

    def test_duplicate_key_replays_the_cached_ack(self, tmp_path):
        shard = make_shard(tmp_path)
        tenant = owned_tenant_ids(0, 2)[0]
        provision(shard, tenant)
        request = {
            "op": "write", "tenant": tenant, "address": 0,
            "data": "ab" * 64, "idem": "w-0",
        }
        first = self.submit(shard, request)
        second = self.submit(shard, request)
        assert first["ok"] and second == first
        totals = shard.registry.snapshot().totals()
        assert totals["service.idem.stored"] == 1
        assert totals["service.idem.hits"] == 1
        # the engine ran the write exactly once
        assert totals["service.request.write"] == 1

    def test_refusals_are_never_cached(self, tmp_path):
        shard = make_shard(tmp_path)
        tenant = owned_tenant_ids(0, 2)[0]
        # not provisioned: the write refuses, then succeeds post-fix
        request = {
            "op": "write", "tenant": tenant, "address": 0,
            "data": "cd" * 64, "idem": "w-1",
        }
        refused = self.submit(shard, request)
        assert refused["ok"] is False
        provision(shard, tenant)
        retried = self.submit(shard, request)
        assert retried["ok"], "refusal must not poison the idem key"

    def test_cache_is_bounded(self, tmp_path):
        shard = make_shard(tmp_path, idem_capacity=2)
        tenant = owned_tenant_ids(0, 2)[0]
        provision(shard, tenant)
        for i in range(3):
            response = self.submit(shard, {
                "op": "write", "tenant": tenant, "address": 0,
                "data": f"{i:02x}" * 64, "idem": f"w-{i}",
            })
            assert response["ok"]
        assert len(shard._idem) == 2
        assert "w-0" not in shard._idem  # FIFO eviction
        assert {"w-1", "w-2"} <= set(shard._idem)


class TestDegradedMode:
    def poisoned_shard(self, tmp_path):
        """A shard whose one tenant faults on every durable write."""
        shard = make_shard(tmp_path, degraded_after=2)
        tenant_id = owned_tenant_ids(0, 2)[0]
        provision(shard, tenant_id)
        good = shard.handle_request({
            "op": "write", "tenant": tenant_id, "address": 0,
            "data": "aa" * 64,
        })
        assert good["ok"]
        # poison the backing store *after* provisioning: every numbered
        # fs step now faults (profile is consulted live per step)
        shard.tenants[tenant_id].fs.profile = FaultProfile(seed=1, rate=1.0)
        return shard, tenant_id

    def write(self, shard, tenant_id, fill):
        return shard.handle_request({
            "op": "write", "tenant": tenant_id, "address": 64,
            "data": fill * 64,
        })

    def test_faults_are_typed_then_degrade_the_tenant(self, tmp_path):
        shard, tenant_id = self.poisoned_shard(tmp_path)

        first = self.write(shard, tenant_id, "bb")
        assert first["ok"] is False
        error = first["error"]
        assert error["code"] == "storage_fault"
        assert error["detail"]["op"] == "write"
        assert error["detail"]["kind"] in {
            "eio", "enospc", "short_write", "lost_before_fsync",
            "crash_rename",
        }
        assert isinstance(error["detail"]["fs_step"], int)

        second = self.write(shard, tenant_id, "cc")
        assert second["error"]["code"] == "storage_fault"

        # degraded_after=2 faults spent: the tenant is now read-only
        third = self.write(shard, tenant_id, "dd")
        assert third["error"]["code"] == "degraded"
        assert "storage_faults=2" in third["error"]["detail"]["reason"]

    def test_degraded_tenant_still_reads(self, tmp_path):
        shard, tenant_id = self.poisoned_shard(tmp_path)
        for fill in ("bb", "cc"):
            self.write(shard, tenant_id, fill)
        read = shard.handle_request({
            "op": "read", "tenant": tenant_id, "address": 0,
        })
        assert read["ok"]
        assert read["data"] == "aa" * 64  # pre-poison ack intact

    def test_degraded_surfaces_in_health(self, tmp_path):
        shard, tenant_id = self.poisoned_shard(tmp_path)
        for fill in ("bb", "cc", "dd"):
            self.write(shard, tenant_id, fill)
        payload = health_payload(shard)
        assert payload["status"] == "degraded"
        entry = payload["tenants"][tenant_id]
        assert entry["status"] == "degraded"
        assert "storage_faults=2" in entry["degraded_reason"]
        shard._refresh_gauges()
        totals = shard.registry.snapshot().totals()
        assert totals["service.degraded.active"] == 1
        assert totals["service.degraded.entered"] == 1
