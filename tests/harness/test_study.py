"""The perf-study sweep harness: grid expansion, summarization, payload.

Wall-clock numbers are host noise, so these tests pin everything
*except* the timings: mode-token parsing, grid expansion and skip
accounting, the flavor summary, cross-backend digest agreement, and the
payload schema.
"""

from __future__ import annotations

import pytest

from repro.fast.backends import resolve_backend
from repro.fast.kernels import parse_mode
from repro.harness.reporting import render_json
from repro.harness.study import (
    STUDY_SCHEMA,
    Flavor,
    StudyReport,
    StudySpec,
    run_flavor,
    run_study,
)

SPEC = StudySpec(
    apps=("stream",),
    accesses=3000,
    region_mb=2,
    keystreams=("reference", "fast"),
    modes=("fast",),
    workers=(1,),
)


class TestModeTokens:
    def test_plain_modes(self):
        assert parse_mode("fast") == 0
        assert parse_mode("paranoid") == 1

    def test_sampled(self):
        assert parse_mode("sampled:4") == 4
        assert parse_mode("sampled:128") == 128

    @pytest.mark.parametrize("token", ["sampled:0", "sampled:-3"])
    def test_sampled_requires_positive(self, token):
        spec = StudySpec(keystreams=("reference",), modes=(token,))
        with pytest.raises(ValueError, match="N >= 1"):
            spec.flavors()

    def test_unknown_token(self):
        for token in ("yolo", "reference"):
            spec = StudySpec(keystreams=("reference",), modes=(token,))
            with pytest.raises(ValueError, match="unknown kernel mode"):
                spec.flavors()


class TestGrid:
    def test_flavor_label_and_group(self):
        flavor = Flavor(
            preset="combined", keystream="aesni",
            mode_token="sampled:32", workers=2,
        )
        assert flavor.label == "combined/aesni/sampled:32/w2"
        # The group omits the keystream: members differ only by backend.
        assert flavor.group == "combined/sampled:32/w2"

    def test_grid_size(self):
        spec = StudySpec(
            keystreams=("reference", "fast"),
            modes=("fast", "sampled:8"),
            workers=(1, 2),
            presets=("combined",),
        )
        flavors, skipped = spec.flavors()
        assert len(flavors) == 2 * 2 * 2
        assert skipped == {}

    def test_unknown_keystream_raises(self):
        with pytest.raises(ValueError, match="unknown keystream backend"):
            StudySpec(keystreams=("nope",)).flavors()

    def test_sampled_flavor_builds_bench_spec(self):
        flavor = Flavor(
            preset="combined", keystream="fast",
            mode_token="sampled:16", workers=1,
        )
        bench = flavor.bench_spec(StudySpec())
        assert bench.mode == "sampled:16"
        assert bench.keystream == "fast"


class TestSummarize:
    def test_summary_fields(self):
        flavors, skipped = SPEC.flavors()
        assert not skipped
        summary = run_flavor(flavors[0], SPEC)
        assert summary["keystream"] == "reference"
        assert summary["family"] == "aes"
        assert summary["writebacks"] > 0
        assert summary["blocks_per_second"] > 0
        assert summary["readback_mismatches"] == 0
        assert set(summary["state_digests"]) == {"stream"}


class TestRunStudy:
    @pytest.fixture(scope="class")
    def payload(self):
        return run_study(SPEC).to_json()

    def test_schema_and_flavor_count(self, payload):
        assert payload["schema"] == STUDY_SCHEMA
        assert payload["bench"] == "study"
        assert len(payload["flavors"]) == 2
        assert payload["summary"]["flavors"] == 2
        assert payload["summary"]["keystreams_available"] == [
            "reference", "fast",
        ]

    def test_aes_family_digests_agree(self, payload):
        assert payload["summary"]["aes_family_digest_agreement"] is True
        digests = {
            summary["state_digests"]["stream"]
            for summary in payload["flavors"].values()
        }
        assert len(digests) == 1

    def test_comparisons_have_reference_speedups(self, payload):
        (entry,) = payload["comparisons"].values()
        assert entry["keystreams"] == ["fast", "reference"]
        assert entry["speedup_vs_reference"]["reference"] == pytest.approx(
            1.0
        )
        # The numpy batch backend must beat the scalar table loop by a
        # wide margin even on tiny workloads.
        assert entry["speedup_vs_reference"]["fast"] > 1.5

    def test_render_is_json_with_trailing_newline(self, payload):
        import json

        text = render_json(payload)
        assert text.endswith("\n")
        assert json.loads(text)["schema"] == STUDY_SCHEMA


class TestSampledAndSkipped:
    def test_sampled_mode_meters(self):
        spec = StudySpec(
            apps=("stream",),
            accesses=3000,
            region_mb=2,
            keystreams=("fast",),
            modes=("sampled:8",),
            workers=(1,),
        )
        payload = run_study(spec).to_json()
        (summary,) = payload["flavors"].values()
        assert summary["mode"] == "sampled:8"
        assert summary["paranoid"]["sampled"] > 0
        assert summary["paranoid"]["divergence"] == 0

    def test_unavailable_backend_recorded_not_fatal(self, monkeypatch):
        import repro.fast.backends as backends

        aesni = backends.resolve_backend("aesni")
        monkeypatch.setitem(
            backends._REGISTRY,
            "aesni",
            backends.KeystreamBackend(
                name="aesni",
                family=aesni.family,
                summary=aesni.summary,
                encryptor_factory=aesni.encryptor_factory,
                availability=lambda: "cryptography not installed",
            ),
        )
        spec = StudySpec(keystreams=("fast", "aesni"))
        flavors, skipped = spec.flavors()
        assert skipped == {"aesni": "cryptography not installed"}
        assert {flavor.keystream for flavor in flavors} == {"fast"}


def test_aesni_flavor_joins_the_sweep_when_available():
    if resolve_backend("aesni").availability_error() is not None:
        pytest.skip("cryptography unavailable")
    spec = StudySpec(
        apps=("stream",),
        accesses=3000,
        region_mb=2,
        keystreams=("fast", "aesni"),
        modes=("fast",),
        workers=(1,),
    )
    payload = run_study(spec).to_json()
    assert len(payload["flavors"]) == 2
    (entry,) = payload["comparisons"].values()
    assert entry["aes_family_digest_agreement"] is True
    assert "aesni_vs_fast" in entry


@pytest.mark.parametrize("field", ["accesses", "region_mb", "cores"])
def test_study_spec_rejects_a_nonpositive_size(field):
    with pytest.raises(ValueError, match=f"{field} must be >= 1"):
        StudySpec(**{field: 0})


@pytest.mark.parametrize("axis", ["keystreams", "modes", "workers", "presets"])
def test_study_spec_rejects_an_empty_axis(axis):
    with pytest.raises(ValueError, match=f"the {axis} axis must not be empty"):
        StudySpec(**{axis: ()})


@pytest.mark.parametrize("mismatches,agreement,ok", [
    (0, True, True), (1, True, False), (0, False, False),
])
def test_report_verdict(mismatches, agreement, ok):
    report = StudyReport({"summary": {
        "readback_mismatches": mismatches,
        "aes_family_digest_agreement": agreement,
    }})
    assert report.ok is ok


def test_study_spec_rejects_a_worker_count_below_one():
    with pytest.raises(ValueError, match="worker counts must be >= 1"):
        StudySpec(workers=(1, 0))
