"""Tenant lifecycle: provision -> active -> draining -> retired."""

import gc
import types

import pytest

from repro.service.errors import DrainInProgress, TenantNotFound
from repro.service.lifecycle import (
    drain_tenants,
    recover_tenants,
    tenant_directories,
)
from repro.service.quota import QuotaConfig
from repro.service.tenant import (
    Tenant,
    TenantSpec,
    TenantState,
    derive_key,
    read_state,
    tenant_dir,
)

SEED = 0xA11CE


def spec(tenant_id="alpha", **overrides):
    overrides.setdefault("region_kb", 8)
    overrides.setdefault("checkpoint_interval", 4)
    return TenantSpec(tenant_id=tenant_id, **overrides)


class TestSpec:
    def test_id_must_be_pathsafe(self):
        for bad in ("", "../evil", "a/b", "x" * 65, ".hidden"):
            with pytest.raises(ValueError):
                TenantSpec(tenant_id=bad)

    def test_region_floor(self):
        with pytest.raises(ValueError):
            TenantSpec(tenant_id="t", region_kb=2)

    def test_json_roundtrip(self):
        original = spec("beta", resilience=True, spare_blocks=2,
                        quota=QuotaConfig(rate_ops=1.0, burst_ops=5))
        assert TenantSpec.from_json(original.to_json()) == original

    def test_unknown_schema_rejected(self):
        payload = spec().to_json()
        payload["schema"] = "something/else"
        with pytest.raises(ValueError):
            TenantSpec.from_json(payload)

    def test_manifest_missing_optional_keys_takes_the_defaults(self):
        payload = {"schema": spec().to_json()["schema"], "tenant_id": "t"}
        assert TenantSpec.from_json(payload) == TenantSpec(tenant_id="t")

    def test_read_coerces_each_field_to_its_default_type(self):
        got = TenantSpec.read(7, {"region_kb": "8", "resilience": 1,
                                  "spare_blocks": 2.0})
        assert got == TenantSpec(tenant_id="7", region_kb=8,
                                 resilience=True, spare_blocks=2)
        with pytest.raises(ValueError):
            TenantSpec.read("t", {"region_kb": "eight"})


class TestKeyDerivation:
    def test_distinct_per_tenant_and_seed(self):
        keys = {
            derive_key(seed, tenant)
            for seed in (1, 2)
            for tenant in ("a", "b", "c")
        }
        assert len(keys) == 6
        assert all(len(key) == 48 for key in keys)

    def test_no_key_material_on_disk(self, tmp_path):
        tenant = Tenant.provision(tmp_path, spec(), SEED)
        tenant.write(0, b"secretish" + b"\x00" * 55)
        tenant.drain()
        key = derive_key(SEED, "alpha")
        for path in tmp_path.rglob("*"):
            if path.is_file():
                assert key not in path.read_bytes()


class TestLifecycle:
    def test_write_read_roundtrip(self, tmp_path):
        tenant = Tenant.provision(tmp_path, spec(), SEED)
        tenant.write(64, b"x" * 64)
        assert tenant.read(64).data == b"x" * 64

    def test_address_validation(self, tmp_path):
        tenant = Tenant.provision(tmp_path, spec(), SEED)
        with pytest.raises(ValueError):
            tenant.write(63, b"y" * 64)
        with pytest.raises(ValueError):
            tenant.read(tenant.capacity_bytes)

    def test_drain_refuses_writes_allows_reads(self, tmp_path):
        tenant = Tenant.provision(tmp_path, spec(), SEED)
        tenant.write(0, b"z" * 64)
        tenant.drain()
        assert tenant.state is TenantState.DRAINING
        assert tenant.read(0).data == b"z" * 64
        with pytest.raises(DrainInProgress):
            tenant.write(64, b"w" * 64)

    def test_drain_is_idempotent(self, tmp_path):
        tenant = Tenant.provision(tmp_path, spec(), SEED)
        first = tenant.drain()
        second = tenant.drain()
        assert second["state"] == "draining"
        assert second["epoch"] >= first["epoch"]

    def test_retire_refuses_everything(self, tmp_path):
        tenant = Tenant.provision(tmp_path, spec(), SEED)
        tenant.retire()
        assert tenant.state is TenantState.RETIRED
        with pytest.raises(TenantNotFound):
            tenant.read(0)
        with pytest.raises(TenantNotFound):
            tenant.write(0, b"q" * 64)

    def test_double_provision_rejected(self, tmp_path):
        Tenant.provision(tmp_path, spec(), SEED)
        with pytest.raises(ValueError):
            Tenant.provision(tmp_path, spec(), SEED)


class TestRestartRecovery:
    def test_open_recovers_acknowledged_writes(self, tmp_path):
        tenant = Tenant.provision(tmp_path, spec(), SEED)
        tenant.write(0, b"a" * 64)
        tenant.write(128, b"b" * 64)
        del tenant  # kill: no drain

        reopened = Tenant.open(tenant_dir(tmp_path, "alpha"), SEED)
        assert reopened.recovery is not None
        assert reopened.recovery.root_verified
        assert reopened.read(0).data == b"a" * 64
        assert reopened.read(128).data == b"b" * 64

    def test_wrong_seed_fails_recovery(self, tmp_path):
        tenant = Tenant.provision(tmp_path, spec(), SEED)
        tenant.write(0, b"a" * 64)
        del tenant
        with pytest.raises(Exception):
            Tenant.open(tenant_dir(tmp_path, "alpha"), SEED + 1)

    def test_retirement_survives_restart(self, tmp_path):
        tenant = Tenant.provision(tmp_path, spec(), SEED)
        tenant.write(0, b"a" * 64)
        tenant.retire()
        assert read_state(tenant_dir(tmp_path, "alpha")) \
            is TenantState.RETIRED

        tenants, summary = recover_tenants(tmp_path, SEED)
        assert "alpha" not in tenants
        assert summary.tenants["alpha"]["skipped"]
        assert summary.all_verified


class TestLifecycleHelpers:
    def test_killed_provision_skipped(self, tmp_path):
        Tenant.provision(tmp_path, spec("good"), SEED)
        # A provision killed before its manifest write leaves a bare
        # directory; discovery must ignore it.
        (tmp_path / "tenants" / "halfborn").mkdir(parents=True)
        (tmp_path / "tenants" / "halfborn" / "store").mkdir()

        names = [d.name for d in tenant_directories(tmp_path)]
        assert names == ["good"]
        tenants, summary = recover_tenants(tmp_path, SEED)
        assert set(tenants) == {"good"}
        assert summary.all_verified

    def test_recover_partitions_by_shard(self, tmp_path):
        from repro.service.router import shard_of

        ids = [f"t{i}" for i in range(6)]
        for tenant_id in ids:
            Tenant.provision(tmp_path, spec(tenant_id), SEED)
        for shard in (0, 1):
            tenants, _ = recover_tenants(
                tmp_path, SEED, shard=shard, num_shards=2
            )
            assert set(tenants) == {
                t for t in ids if shard_of(t, 2) == shard
            }

    def test_drain_tenants_reports_each(self, tmp_path):
        tenants = [
            Tenant.provision(tmp_path, spec(f"d{i}"), SEED)
            for i in range(3)
        ]
        report = drain_tenants(tenants)
        assert report.count == 3
        assert all(t.state is TenantState.DRAINING for t in tenants)


def retained_objects(*roots) -> int:
    """How many objects ``roots`` keep alive through their instance
    state (classes, modules and functions are not followed)."""
    skip = (type, types.ModuleType, types.FunctionType, types.MethodType,
            types.BuiltinFunctionType)
    seen: set[int] = set()
    stack = list(roots)
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, skip):
            continue
        seen.add(id(obj))
        stack.extend(gc.get_referents(obj))
    return len(seen)


class TestBoundedState:
    def test_store_does_not_grow_with_writes(self, tmp_path):
        """A long-lived tenant's store and fault layer keep no per-step
        history: 16 and 64 acknowledged writes (the same checkpoint
        phase) leave the same retained state, within a few objects."""
        tenant = Tenant.provision(tmp_path, spec(), SEED)
        store = tenant.stack.engine.persist.store
        counts = []
        for _ in range(4):
            for i in range(16):
                tenant.write((i % 8) * 64, bytes([i]) * 64)
            counts.append(retained_objects(store))
        assert counts[-1] - counts[0] < 16, counts
