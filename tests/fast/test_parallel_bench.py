"""Deterministic-parallelism contract for ``repro bench``.

The merged ``BENCH_*.json`` payload must be **byte-identical** for any
worker count on the same seed: ``workers`` only chooses where apps run,
never what they compute.  These tests render the canonical payload for
N in {1, 2, 4} and compare the bytes, and pin the supporting
invariants (no wall-clock/PID leakage, sorted-key rendering, clean
read-backs, zero paranoid divergence).
"""

from __future__ import annotations

import json

import pytest

from repro.fast.backends import resolve_backend
from repro.harness.parallel import BenchSpec, run_bench
from repro.harness.reporting import render_json

SPEC = BenchSpec(
    apps=("stream", "gups"),
    mode="fast",
    accesses=3000,
    region_mb=2,
    cores=2,
    seed=11,
    preset="combined",
    keystream="splitmix",
)


@pytest.fixture(scope="module")
def rendered_by_workers():
    return {
        workers: render_json(run_bench(SPEC, workers=workers).to_json())
        for workers in (1, 2, 4)
    }


def test_bench_payload_byte_identical_across_worker_counts(
    rendered_by_workers,
):
    baseline = rendered_by_workers[1]
    assert rendered_by_workers[2] == baseline
    assert rendered_by_workers[4] == baseline


def test_bench_payload_carries_no_environment_state(rendered_by_workers):
    payload = json.loads(rendered_by_workers[1])
    # Worker count, timing and process identity must never leak into
    # the payload -- their presence would break byte-identity.
    assert "workers" not in payload["config"]
    text = rendered_by_workers[1]
    for forbidden in ("pid", "hostname", "elapsed", "wallclock"):
        assert forbidden not in text
    assert payload["schema"] == "repro.bench/1"
    assert sorted(payload["results"]) == ["gups", "stream"]


def test_bench_readbacks_clean_and_digests_stable(rendered_by_workers):
    payload = json.loads(rendered_by_workers[1])
    for app, results in payload["results"].items():
        assert results["readback_mismatches"] == 0, app
        assert results["writebacks"] > 0, app
        assert len(results["state_digest"]) == 64, app


def test_bench_rerun_same_seed_is_reproducible(rendered_by_workers):
    # A fresh run (new engines, new registries) reproduces the bytes.
    assert render_json(run_bench(SPEC, workers=2).to_json()) == (
        rendered_by_workers[1]
    )


def test_bench_paranoid_mode_matches_fast_state():
    paranoid = run_bench(
        BenchSpec(
            apps=("stream",),
            mode="paranoid",
            accesses=2000,
            region_mb=2,
            cores=2,
            seed=11,
        ),
        workers=1,
    ).to_json()
    fast = run_bench(
        BenchSpec(
            apps=("stream",),
            mode="fast",
            accesses=2000,
            region_mb=2,
            cores=2,
            seed=11,
        ),
        workers=1,
    ).to_json()
    assert paranoid["metrics"].get("fast.paranoid.divergence", 0) == 0
    assert paranoid["metrics"].get("fast.paranoid.checks", 0) > 0
    assert (
        paranoid["results"]["stream"]["state_digest"]
        == fast["results"]["stream"]["state_digest"]
    )


def test_bench_rejects_invalid_worker_count():
    with pytest.raises(ValueError):
        run_bench(SPEC, workers=0)


# -- backend selection flows through the bench ------------------------------


def test_bench_aes_backends_agree_and_differ_from_splitmix():
    digests = {}
    for name in ("reference", "fast", "aesni"):
        if resolve_backend(name).availability_error() is not None:
            continue
        payload = run_bench(
            BenchSpec(
                apps=("stream",),
                mode="fast",
                accesses=2000,
                region_mb=2,
                cores=2,
                seed=11,
                keystream=name,
            ),
            workers=1,
        ).to_json()
        digests[name] = payload["results"]["stream"]["state_digest"]
    assert "reference" in digests and "fast" in digests
    assert len(set(digests.values())) == 1, digests
    splitmix = run_bench(
        BenchSpec(
            apps=("stream",),
            mode="fast",
            accesses=2000,
            region_mb=2,
            cores=2,
            seed=11,
            keystream="splitmix",
        ),
        workers=1,
    ).to_json()
    assert (
        splitmix["results"]["stream"]["state_digest"]
        != digests["fast"]
    )


def test_bench_sampled_paranoid_meters_and_stays_clean():
    payload = run_bench(
        BenchSpec(
            apps=("stream",),
            mode="sampled:4",
            accesses=2000,
            region_mb=2,
            cores=2,
            seed=11,
            keystream="fast",
        ),
        workers=1,
    ).to_json()
    metrics = payload["metrics"]
    assert metrics.get("fast.paranoid.sampled", 0) > 0
    assert metrics.get("fast.paranoid.skipped", 0) > 0
    assert metrics.get("fast.paranoid.divergence", 0) == 0
    assert (
        metrics["fast.paranoid.sampled"] + metrics["fast.paranoid.skipped"]
        == metrics["fast.kernel.calls"]
    )


@pytest.mark.parametrize("field", ["accesses", "region_mb", "cores"])
def test_bench_spec_rejects_a_run_that_exercises_nothing(field):
    with pytest.raises(ValueError, match=f"{field} must be >= 1"):
        BenchSpec(apps=("stream",), **{field: 0})
