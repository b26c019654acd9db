"""End-to-end acceptance: real worker processes, real SIGKILL.

The ISSUE 7 acceptance criterion: kill-and-restart of the service
recovers every tenant with durability and anti-replay intact -- no
silent data corruption against a ground-truth shadow.

Socket roots come from ``tempfile.mkdtemp`` (not pytest's ``tmp_path``)
because ``AF_UNIX`` paths are limited to ~104 bytes and pytest's
nested tmp directories can exceed that.
"""

import asyncio
import json
import pathlib
import shutil
import tempfile

import pytest

from repro.service.endpoints import scrape
from repro.service.errors import ShardUnavailable
from repro.service.loadgen import (
    BENCH_SCHEMA,
    LoadgenSpec,
    percentile,
    run_loadgen,
)
from repro.service.router import shard_of
from repro.service.server import ServiceClient, ServiceSupervisor

SEED = 0xD00D
REPO = pathlib.Path(__file__).resolve().parents[2]


@pytest.fixture
def root():
    path = tempfile.mkdtemp(prefix="svc-")
    yield path
    shutil.rmtree(path, ignore_errors=True)


def run(coro):
    return asyncio.run(coro)


class TestKillRestartAcceptance:
    def test_kill_and_restart_recovers_every_tenant(self, root):
        supervisor = ServiceSupervisor(root, num_shards=2,
                                       secret_seed=SEED)
        supervisor.start()
        try:
            supervisor.wait_ready()
            shadow = run(self._drive(root))
            # SIGKILL *both* shards: no drain, no checkpoint, no
            # goodbye.  Queue + journal state is whatever the kill left.
            supervisor.kill_shard(0)
            supervisor.kill_shard(1)
            assert not supervisor.alive(0) and not supervisor.alive(1)
            supervisor.restart_shard(0)
            supervisor.restart_shard(1)

            assert run(self._verify(root, shadow)) == 0
            self._assert_recovered(supervisor, shadow)
        finally:
            supervisor.stop()

        # Cold restart: a fresh supervisor over the same root (as after
        # a host reboot) recovers every tenant again.
        supervisor = ServiceSupervisor(root, num_shards=2,
                                       secret_seed=SEED)
        supervisor.start()
        try:
            supervisor.wait_ready()
            assert run(self._verify(root, shadow)) == 0
            self._assert_recovered(supervisor, shadow)
        finally:
            supervisor.stop()

    @staticmethod
    def _assert_recovered(supervisor, shadow):
        """Anti-replay + root verification: each shard reports a
        verified recovery for every tenant it owns."""
        for shard in (0, 1):
            http = str(supervisor.router.http_socket_path(shard))
            health = scrape(http, "/health")
            assert health["status"] == "ok"
            assert health["recovery"]["all_verified"]
            assert health["recovery"]["recovered"] == sum(
                1 for t in shadow if shard_of(t, 2) == shard
            )

    async def _drive(self, root):
        client = ServiceClient(root, 2)
        shadow = {}
        for i in range(4):
            tenant = f"tenant-{i:02d}"
            await client.provision(tenant, region_kb=8,
                                   checkpoint_interval=4)
            shadow[tenant] = {}
            for j in range(12):
                address = (j % 16) * 64
                data = bytes([i * 16 + j]) * 64
                await client.write(tenant, address, data)
                shadow[tenant][address] = data
            batch = [
                (1024 + k * 64, bytes([200 + i, k]) * 32)
                for k in range(4)
            ]
            await client.batch(tenant, batch)
            for address, data in batch:
                shadow[tenant][address] = data
        await client.close()
        return shadow

    async def _verify(self, root, shadow):
        client = ServiceClient(root, 2)
        sdc = 0
        for tenant, blocks in sorted(shadow.items()):
            for address, data in sorted(blocks.items()):
                got = await client.read(tenant, address)
                if got != data:
                    sdc += 1
        await client.close()
        return sdc


class TestClientFailureModes:
    def test_dead_shard_raises_shard_unavailable(self, root):
        async def attempt():
            client = ServiceClient(root, 1)
            try:
                await client.request({"op": "ping", "tenant": ""},
                                     shard=0)
            finally:
                await client.close()

        with pytest.raises(ShardUnavailable):
            run(attempt())

    def test_graceful_stop_drains(self, root):
        supervisor = ServiceSupervisor(root, num_shards=1,
                                       secret_seed=SEED)
        supervisor.start()
        try:
            supervisor.wait_ready()

            async def provision_and_write():
                client = ServiceClient(root, 1)
                await client.provision("solo", region_kb=8)
                await client.write("solo", 0, b"s" * 64)
                await client.close()

            run(provision_and_write())
        finally:
            supervisor.stop()  # SIGTERM -> drain -> exit

        # Restart: a drained shutdown leaves a checkpoint; recovery
        # must still land on exactly the acknowledged state.
        supervisor = ServiceSupervisor(root, num_shards=1,
                                       secret_seed=SEED)
        supervisor.start()
        try:
            supervisor.wait_ready()

            async def readback():
                client = ServiceClient(root, 1)
                data = await client.read("solo", 0)
                await client.close()
                return data

            assert run(readback()) == b"s" * 64
        finally:
            supervisor.stop()


class TestLoadgen:
    def test_chaos_campaign_has_no_sdc(self, root):
        spec = LoadgenSpec(tenants=4, shards=2, ops_per_tenant=40,
                           region_kb=8, seed=3, secret_seed=SEED,
                           kill_shard=0)
        payload = run_loadgen(spec, root).to_json()
        results = payload["results"]
        assert payload["all_verified"]
        assert results["sdc_blocks"] == 0
        assert results["acked_ops"] > 0
        assert results["p99_ms"] >= results["p50_ms"] >= 0.0
        assert {e["action"] for e in results["kill_events"]} \
            == {"kill", "restart"}
        assert len(results["tenants"]) == 4
        assert payload["health"] == {"shard-0": "ok", "shard-1": "ok"}

    def test_quota_campaign_counts_rejections(self, root):
        from repro.service.quota import QuotaConfig

        # A byte budget charges only writes, so the verification sweep
        # stays quota-free and the campaign finishes fast.
        spec = LoadgenSpec(tenants=2, shards=1, ops_per_tenant=30,
                           region_kb=8, seed=5, secret_seed=SEED,
                           quota=QuotaConfig(max_bytes_written=640))
        payload = run_loadgen(spec, root).to_json()
        results = payload["results"]
        assert payload["all_verified"]
        rejections = sum(
            t["quota_rejections"] for t in results["tenants"].values()
        )
        assert rejections > 0  # ~30 writes against a 10-block budget

    def test_committed_bench_config_is_current(self):
        """BENCH_service.json is the `repro loadgen --kill-shard 0`
        payload; its config must match what that command runs today."""
        committed = json.loads((REPO / "BENCH_service.json").read_text())
        assert committed["schema"] == BENCH_SCHEMA
        assert committed["config"] == LoadgenSpec(kill_shard=0).config_dict()

    def test_percentile_nearest_rank(self):
        samples = [float(v) for v in range(1, 101)]
        assert percentile(samples, 50) == pytest.approx(50.0, abs=1.0)
        assert percentile(samples, 99) == pytest.approx(99.0, abs=1.0)
        assert percentile([], 99) == 0.0
