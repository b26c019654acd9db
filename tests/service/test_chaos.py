"""The chaos campaign end to end, plus the verdict's claims.

One small campaign runs once per module (real worker processes, real
injected disk faults, one shard SIGKILLed and restarted, induced
overload and deadline expiries) and every test asserts one resilience
claim against its payload.  :func:`claim_failures` -- the verdict of
``repro chaos`` and ``repro loadgen`` -- is run against the live
payload, the committed ones and hand-tampered ones.
"""

import copy
import json
import pathlib

import pytest

from repro.service.chaos import (
    CHAOS_SCHEMA,
    MAX_AMPLIFICATION,
    ChaosSpec,
    claim_failures,
    run_chaos,
)
from repro.service.loadgen import BENCH_SCHEMA
from repro.service.router import shard_of

REPO = pathlib.Path(__file__).resolve().parents[2]

SPEC = ChaosSpec(
    tenants=3,
    shards=2,
    ops_per_tenant=40,
    region_kb=8,
    seed=7,
    overload_probes=24,
    deadline_probes=4,
)


@pytest.fixture(scope="module")
def payload():
    # Without a root the campaign runs in (and removes) a temporary one.
    return run_chaos(SPEC).to_json()


class TestSpec:
    def test_victim_routes_off_the_killed_shard(self):
        assert shard_of(SPEC.victim_tenant(), SPEC.shards) != SPEC.kill_shard

    def test_quota_tenant_is_distinct_from_the_victim(self):
        assert SPEC.quota_tenant() != SPEC.victim_tenant()

    def test_safe_shard_is_never_the_killed_one(self):
        assert SPEC.safe_shard() != SPEC.kill_shard

    def test_single_shard_rejected(self):
        with pytest.raises(ValueError):
            ChaosSpec(shards=1)
        with pytest.raises(ValueError):
            ChaosSpec(tenants=1)
        with pytest.raises(ValueError):
            ChaosSpec(kill_shard=9)
        with pytest.raises(ValueError):
            ChaosSpec(fault_rate=1.0)

    def test_boost_profile_targets_the_victim(self):
        options = SPEC.shard_options()
        assert options.fault_boost_tenant == SPEC.victim_tenant()
        assert options.profile_for(SPEC.victim_tenant()).rate == SPEC.boost_rate
        assert options.profile_for("tenant-xx").rate == SPEC.fault_rate


class TestCampaign:
    def test_no_silent_corruption(self, payload):
        results = payload["results"]
        assert results["sdc_blocks"] == 0
        assert results["inline_mismatches"] == 0
        assert results["verified_blocks"] >= 1

    def test_every_refusal_is_typed(self, payload):
        assert payload["results"]["refusals"].get("internal", 0) == 0

    def test_breaker_cycled_through_recovery(self, payload):
        breaker = payload["results"]["breaker"]
        assert breaker["opened"] >= 1
        assert breaker["half_open"] >= 1
        assert breaker["closed"] >= 1
        # states is {tenant: {shard: state}}; every circuit recovered
        assert all(
            state == "closed"
            for per_shard in breaker["states"].values()
            for state in per_shard.values()
        )

    def test_overload_was_shed(self, payload):
        assert payload["results"]["overload"]["shed"] >= 1

    def test_deadline_probes_refused(self, payload):
        deadline = payload["results"]["deadline"]
        assert deadline["refused"] == deadline["sent"] >= 1

    def test_kill_and_restart_recorded(self, payload):
        actions = [e["action"] for e in payload["results"]["kill_events"]]
        assert actions == ["kill", "restart"]

    def test_victim_degraded_readable_write_refusing(self, payload):
        degraded = payload["results"]["degraded"]
        assert degraded["tenant"] == SPEC.victim_tenant()
        assert degraded["write_refused"] is True
        assert degraded["read_ok"] is True

    def test_health_scrape_reports_the_degraded_tenant(self, payload):
        victim_shard = shard_of(SPEC.victim_tenant(), SPEC.shards)
        health = payload["health"][f"shard-{victim_shard}"]
        assert health["status"] == "degraded"
        entry = health["tenants"][SPEC.victim_tenant()]
        assert entry["status"] == "degraded"

    def test_retry_amplification_bounded(self, payload):
        client = payload["results"]["client"]
        assert client["amplification"] <= MAX_AMPLIFICATION
        assert client["sends"] >= payload["results"]["logical_ops"]

    def test_gate_passes_the_live_payload(self, payload):
        assert claim_failures(payload) == []

    def test_schema_stamped(self, payload):
        assert payload["schema"] == CHAOS_SCHEMA


class TestGate:
    def passing_payload(self):
        return {
            "schema": CHAOS_SCHEMA,
            "all_verified": True,
            "config": {
                "kill_shard": 1,
                "fault_rate": 0.002,
                "boost_rate": 0.35,
                "overload_probes": 24,
                "deadline_probes": 4,
                "victim_tenant": "tenant-00",
            },
            "results": {
                "sdc_blocks": 0,
                "inline_mismatches": 0,
                "verified_blocks": 10,
                "logical_ops": 100,
                "refusals": {"degraded": 3},
                "breaker": {"opened": 1, "half_open": 1, "closed": 1},
                "overload": {"shed": 5},
                "deadline": {"sent": 4, "refused": 4},
                "degraded": {
                    "tenant": "tenant-00",
                    "write_refused": True,
                    "read_ok": True,
                },
                "kill_events": [
                    {"action": "kill"}, {"action": "restart"},
                ],
                "client": {"sends": 110, "amplification": 1.1},
            },
        }

    def test_clean_payload_passes(self):
        assert claim_failures(self.passing_payload()) == []

    @pytest.mark.parametrize("mutate,needle", [
        (lambda r: r.__setitem__("sdc_blocks", 1), "silent corruption"),
        (lambda r: r.__setitem__("inline_mismatches", 2), "inline"),
        (lambda r: r.__setitem__("verified_blocks", 0), "proved nothing"),
        (lambda r: r["refusals"].__setitem__("internal", 1), "untyped"),
        (lambda r: r["breaker"].__setitem__("half_open", 0), "half_open"),
        (lambda r: r["overload"].__setitem__("shed", 0), "never shed"),
        (lambda r: r["deadline"].__setitem__("refused", 0), "deadline"),
        (lambda r: r["deadline"].__setitem__("refused", 3), "3/4"),
        (lambda r: r["degraded"].__setitem__("write_refused", False),
         "refuse"),
        (lambda r: r["degraded"].__setitem__("read_ok", False), "readable"),
        (lambda r: r.__setitem__("kill_events", [{"action": "kill"}]),
         "restart"),
        (lambda r: r["client"].__setitem__("amplification", 3.5),
         "amplification"),
        (lambda r: r["client"].pop("amplification"), "amplification"),
    ])
    def test_each_claim_is_enforced(self, mutate, needle):
        payload = copy.deepcopy(self.passing_payload())
        mutate(payload["results"])
        failures = claim_failures(payload)
        assert failures, "tampering went undetected"
        assert any(needle in failure for failure in failures), failures

    def test_loadgen_payload_needs_no_chaos_data(self):
        """A stressor the config leaves off has no claim: a loadgen
        payload carries no breaker, overload, deadline or victim data."""
        payload = self.passing_payload()
        payload["schema"] = BENCH_SCHEMA
        payload["config"] = {"kill_shard": 0}
        for name in ("breaker", "overload", "deadline", "degraded"):
            del payload["results"][name]
        assert claim_failures(payload) == []

    def test_wrong_schema_is_terminal(self):
        payload = self.passing_payload()
        payload["schema"] = "bogus/9"
        failures = claim_failures(payload)
        assert len(failures) == 1 and "schema" in failures[0]

    def test_all_verified_flag_checked(self):
        payload = self.passing_payload()
        payload["all_verified"] = False
        assert any(
            "all_verified" in failure for failure in claim_failures(payload)
        )

    @pytest.mark.parametrize("name", ["BENCH_chaos.json", "BENCH_service.json"])
    def test_committed_payload_passes(self, name):
        assert claim_failures(json.loads((REPO / name).read_text())) == []
