"""The Shard request handler, exercised in-process (no sockets)."""

import asyncio
import shutil
import struct
import tempfile

import pytest

from repro.obs.catalog import SERVICE_OPS, SERVICE_REJECTIONS, resolve
from repro.service.endpoints import health_payload, metrics_payload, scrape
from repro.service.router import shard_of
from repro.service.tenant import TenantSpec
from repro.service.server import (
    OPS,
    REJECTION_CODES,
    MAX_FRAME_BYTES,
    ServiceClient,
    Shard,
    encode_frame,
)

SEED = 0xBEEF


def owned_tenant_ids(shard_index, num_shards, count=4):
    """Tenant ids that route to ``shard_index``."""
    out = []
    i = 0
    while len(out) < count:
        candidate = f"own-{i}"
        if shard_of(candidate, num_shards) == shard_index:
            out.append(candidate)
        i += 1
    return out


@pytest.fixture
def shard(tmp_path):
    return Shard(tmp_path, shard_index=0, num_shards=2, secret_seed=SEED)


def provision(shard, tenant_id, **fields):
    request = {"op": "provision", "tenant": tenant_id, "region_kb": 8,
               "checkpoint_interval": 4}
    request.update(fields)
    response = shard.handle_request(request)
    assert response["ok"], response
    return response


class TestDispatch:
    def test_ping(self, shard):
        response = shard.handle_request({"op": "ping"})
        assert response["ok"] and response["shard"] == 0

    def test_unknown_op_is_structured(self, shard):
        response = shard.handle_request({"op": "explode"})
        assert response["ok"] is False
        assert response["error"]["code"] == "internal"
        assert "explode" in response["error"]["message"]

    def test_provision_with_only_a_tenant_takes_the_spec_defaults(
        self, shard
    ):
        tenant = owned_tenant_ids(0, 2, 1)[0]
        response = shard.handle_request({"op": "provision", "tenant": tenant})
        assert response["ok"], response
        assert shard.tenants[tenant].spec == TenantSpec(tenant_id=tenant)

    def test_non_integer_region_is_a_bad_request(self, shard):
        tenant = owned_tenant_ids(0, 2, 1)[0]
        response = shard.handle_request(
            {"op": "provision", "tenant": tenant, "region_kb": "lots"}
        )
        assert response["ok"] is False
        assert response["error"]["code"] == "internal"
        assert "bad request for op 'provision'" in (
            response["error"]["message"]
        )
        assert tenant not in shard.tenants

    def test_malformed_request_never_raises(self, shard):
        tenant = owned_tenant_ids(0, 2, 1)[0]
        provision(shard, tenant)
        for request in (
            {"op": "write", "tenant": tenant},              # missing fields
            {"op": "write", "tenant": tenant, "address": 0,
             "data": "zz"},                                  # bad hex
            {"op": "write", "tenant": tenant, "address": 0,
             "data": "ab"},                                  # short block
            {"op": "write", "tenant": tenant, "address": 3,
             "data": "00" * 64},                             # unaligned
            {"op": "batch", "tenant": tenant, "writes": []},
            {"op": "read", "tenant": tenant, "address": "x"},
        ):
            response = shard.handle_request(request)
            assert response["ok"] is False, request
            assert response["error"]["code"] == "internal"

    def test_frame_codec_roundtrip(self):
        frame = encode_frame({"op": "ping", "n": 1})
        assert int.from_bytes(frame[:4], "big") == len(frame) - 4
        with pytest.raises(ValueError):
            encode_frame({"blob": "x" * (MAX_FRAME_BYTES + 1)})


class TestDataPath:
    def test_write_read_roundtrip(self, shard):
        tenant = owned_tenant_ids(0, 2, 1)[0]
        provision(shard, tenant)
        data = bytes(range(64))
        assert shard.handle_request({
            "op": "write", "tenant": tenant, "address": 128,
            "data": data.hex(),
        })["ok"]
        response = shard.handle_request({
            "op": "read", "tenant": tenant, "address": 128,
        })
        assert bytes.fromhex(response["data"]) == data
        assert response["clean"]

    def test_batch_is_one_group_commit(self, shard):
        tenant = owned_tenant_ids(0, 2, 1)[0]
        provision(shard, tenant)
        writes = [[i * 64, bytes([i]).hex() * 64] for i in range(4)]
        assert shard.handle_request({
            "op": "batch", "tenant": tenant, "writes": writes,
        })["ok"]
        tenant_obj = shard.tenants[tenant]
        totals = tenant_obj.registry.snapshot().totals()
        assert totals.get("persist.group_commit.txns", 0) == 1
        for i in range(4):
            got = shard.handle_request({
                "op": "read", "tenant": tenant, "address": i * 64,
            })
            assert bytes.fromhex(got["data"]) == bytes([i]) * 64

    def test_stat_shape(self, shard):
        tenant = owned_tenant_ids(0, 2, 1)[0]
        provision(shard, tenant)
        shard.handle_request({
            "op": "write", "tenant": tenant, "address": 0,
            "data": "00" * 64,
        })
        stat = shard.handle_request({"op": "stat", "tenant": tenant})
        assert stat["state"] == "active"
        assert stat["next_lsn"] >= 1
        assert stat["quota"]["bytes_written"] == 64
        assert stat["shard"] == 0


class TestTypedRefusals:
    def test_misrouted_tenant(self, shard):
        foreign = next(
            f"f{i}" for i in range(64) if shard_of(f"f{i}", 2) == 1
        )
        response = shard.handle_request({
            "op": "read", "tenant": foreign, "address": 0,
        })
        assert response["error"]["code"] == "shard_unavailable"
        assert response["error"]["detail"]["owner_shard"] == 1

    def test_unknown_tenant(self, shard):
        tenant = owned_tenant_ids(0, 2, 1)[0]
        response = shard.handle_request({
            "op": "read", "tenant": tenant, "address": 0,
        })
        assert response["error"]["code"] == "tenant_not_found"

    def test_quota_exceeded_maps_to_wire(self, shard):
        tenant = owned_tenant_ids(0, 2, 1)[0]
        provision(shard, tenant,
                  quota={"rate_ops": 1.0, "burst_ops": 2})
        results = [
            shard.handle_request({
                "op": "write", "tenant": tenant, "address": 0,
                "data": "11" * 64,
            })
            for _ in range(3)
        ]
        codes = [
            r["error"]["code"] for r in results if not r.get("ok")
        ]
        assert "quota_exceeded" in codes

    def test_drained_tenant_refuses_writes(self, shard):
        tenant = owned_tenant_ids(0, 2, 1)[0]
        provision(shard, tenant)
        assert shard.handle_request({"op": "drain", "tenant": tenant})["ok"]
        response = shard.handle_request({
            "op": "write", "tenant": tenant, "address": 0,
            "data": "22" * 64,
        })
        assert response["error"]["code"] == "drain_in_progress"

    def test_draining_shard_refuses_provision(self, shard):
        shard.drain_all()
        response = shard.handle_request({
            "op": "provision",
            "tenant": owned_tenant_ids(0, 2, 1)[0],
        })
        assert response["error"]["code"] == "drain_in_progress"

    def test_retired_tenant_vanishes(self, shard):
        tenant = owned_tenant_ids(0, 2, 1)[0]
        provision(shard, tenant)
        assert shard.handle_request({"op": "retire", "tenant": tenant})["ok"]
        response = shard.handle_request({
            "op": "read", "tenant": tenant, "address": 0,
        })
        assert response["error"]["code"] == "tenant_not_found"

    def test_duplicate_provision_refused(self, shard):
        tenant = owned_tenant_ids(0, 2, 1)[0]
        provision(shard, tenant)
        response = shard.handle_request({
            "op": "provision", "tenant": tenant,
        })
        assert response["ok"] is False


class TestObservability:
    def test_ops_and_rejections_metered(self, shard):
        tenant = owned_tenant_ids(0, 2, 1)[0]
        provision(shard, tenant)
        shard.handle_request({"op": "write", "tenant": tenant,
                              "address": 0, "data": "33" * 64})
        shard.handle_request({"op": "read", "tenant": "missing-here",
                              "address": 0})
        totals = shard.registry.snapshot().totals()
        assert totals["service.request.provision"] == 1
        assert totals["service.request.write"] == 1
        assert totals["service.bytes.written"] == 64
        rejected = {
            code: totals.get(f"service.rejected.{code}", 0)
            for code in REJECTION_CODES
        }
        assert sum(rejected.values()) >= 1

    def test_metric_names_are_cataloged(self, shard):
        provision(shard, owned_tenant_ids(0, 2, 1)[0])
        for name in shard.registry.snapshot().totals():
            assert resolve(name) is not None, name

    def test_closed_sets_shared_with_catalog(self):
        assert OPS == SERVICE_OPS
        assert REJECTION_CODES == SERVICE_REJECTIONS

    def test_metrics_payload_merges_tenant_registries(self, shard):
        tenant = owned_tenant_ids(0, 2, 1)[0]
        provision(shard, tenant)
        shard.handle_request({"op": "write", "tenant": tenant,
                              "address": 0, "data": "44" * 64})
        payload = metrics_payload(shard)
        merged = payload["metrics"]
        assert merged["service.request.write"] == 1
        assert merged[f"tenant.{tenant}.stack.writes"] == 1
        assert list(merged) == sorted(merged)

    def test_health_reflects_tenant_states(self, shard):
        ids = owned_tenant_ids(0, 2, 2)
        for tenant_id in ids:
            provision(shard, tenant_id)
        payload = health_payload(shard)
        assert payload["status"] == "ok"
        assert all(
            payload["tenants"][t]["status"] == "ok" for t in ids
        )
        shard.handle_request({"op": "drain", "tenant": ids[0]})
        payload = health_payload(shard)
        assert payload["tenants"][ids[0]]["status"] == "draining"
        assert payload["status"] == "ok"  # draining is not unhealthy

    def test_gauges_track_lifecycle(self, shard):
        ids = owned_tenant_ids(0, 2, 3)
        for tenant_id in ids:
            provision(shard, tenant_id)
        shard.handle_request({"op": "drain", "tenant": ids[0]})
        shard.handle_request({"op": "retire", "tenant": ids[1]})
        totals = shard.registry.snapshot().totals()
        assert totals["service.tenants.active"] == 1
        assert totals["service.tenants.draining"] == 1
        assert totals["service.tenants.retired"] == 1


class TestAsyncServer:
    """The socket front-end, driven in-process (no worker subprocess).

    Roots come from ``tempfile.mkdtemp`` because ``AF_UNIX`` socket
    paths are limited to ~104 bytes.
    """

    def test_serve_protocol_and_http(self):
        root = tempfile.mkdtemp(prefix="svc-inproc-")
        try:
            asyncio.run(self._drive(root))
        finally:
            shutil.rmtree(root, ignore_errors=True)

    async def _drive(self, root):
        shard = Shard(root, 0, 1, SEED)
        stop = asyncio.Event()
        task = asyncio.create_task(shard.serve(stop))
        proto_path = shard.router.socket_path(0)
        while not proto_path.exists():
            await asyncio.sleep(0.01)

        client = ServiceClient(root, 1)
        tenant = owned_tenant_ids(0, 1, 1)[0]
        await client.provision(tenant, region_kb=8)
        await client.write(tenant, 0, b"n" * 64)
        assert await client.read(tenant, 0) == b"n" * 64
        assert (await client.ping(0))["shard"] == 0

        # A garbage frame (valid length prefix, non-JSON body) must hang
        # up that connection without killing the server.
        reader, writer = await asyncio.open_unix_connection(
            str(proto_path)
        )
        writer.write(struct.pack(">I", 4) + b"\xff\xff\xff\xff")
        await writer.drain()
        assert await reader.read() == b""  # server closed on us
        writer.close()

        http = str(shard.router.http_socket_path(0))
        metrics = await asyncio.to_thread(scrape, http, "/metrics")
        assert metrics["metrics"]["service.request.write"] == 1
        health = await asyncio.to_thread(scrape, http, "/health")
        assert health["status"] == "ok"
        with pytest.raises(ValueError):
            await asyncio.to_thread(scrape, http, "/nope")

        await client.close()
        # Connection handlers observe the client hangup asynchronously;
        # wait for the accepted/closed gauge pair to converge.
        for _ in range(100):
            totals = shard.registry.snapshot().totals()
            if totals["service.conn.closed"] \
                    == totals["service.conn.accepted"]:
                break
            await asyncio.sleep(0.01)
        assert totals["service.conn.accepted"] \
            == totals["service.conn.closed"] >= 2
        stop.set()
        await task
        assert not proto_path.exists()  # sockets unlinked on shutdown


class TestShardRecovery:
    def test_recover_rebuilds_owned_tenants(self, tmp_path):
        first = Shard(tmp_path, 0, 2, SEED)
        ids = owned_tenant_ids(0, 2, 2)
        for tenant_id in ids:
            provision(first, tenant_id)
            first.handle_request({"op": "write", "tenant": tenant_id,
                                  "address": 64, "data": "55" * 64})
        del first  # kill

        second = Shard(tmp_path, 0, 2, SEED)
        summary = second.recover()
        assert summary["all_verified"]
        assert set(second.tenants) == set(ids)
        for tenant_id in ids:
            response = second.handle_request({
                "op": "read", "tenant": tenant_id, "address": 64,
            })
            assert bytes.fromhex(response["data"]) == bytes([0x55]) * 64
        totals = second.registry.snapshot().totals()
        assert totals["service.recovery.tenants"] == 2
