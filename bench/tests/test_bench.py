"""Tiny-scale checks of the benchmark: runs, tracing, inputs, verdicts."""

from __future__ import annotations

import dataclasses
import json

import pytest
from repro.harness.runner import BLOCK_BYTES, WritebackFilter
from repro.obs.metrics import MetricRegistry, use_registry
from repro.workloads.micro import MICRO_PROFILES, micro_profile
from repro.workloads.parsec import profile

from bench import host, report, service, suite
from bench.tracing import SpanRecorder, installed, wrapped_targets
from bench.workloads import CLIENTS, MIX, WORKLOADS, dram_traffic, inputs_for

TINY = {
    "scatter": dataclasses.replace(
        WORKLOADS["scatter"], region_mb=2, accesses_per_core=3000
    ),
    "stream": dataclasses.replace(
        WORKLOADS["stream"], region_mb=2, accesses_per_core=3000
    ),
    "overflow": dataclasses.replace(
        WORKLOADS["overflow"], region_mb=1, accesses_per_core=4000
    ),
    "service": dataclasses.replace(
        WORKLOADS["service"], ops_per_client=60, region_kb=16
    ),
}


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Every tiny workload run once, traced: (out dir, records by name)."""
    out = tmp_path_factory.mktemp("bench")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(service, "P99_SAMPLES", 0)  # one pass is enough here
        records = {
            name: suite.run_workload(workload, 1, 0.0, True, out)
            for name, workload in TINY.items()
        }
    return out, records


def test_tiny_runs_are_correct(traced):
    spec = report.load_spec()
    _, records = traced
    for name, record in records.items():
        assert record["problems"] == [], name
        assert record["correct"] and record["failed"] == 0, name
        assert record["metrics"]["failed_frac"]["value"] == 0.0
        assert record["attempted"] > 0
        line = json.loads(suite.last_line(record))
        assert sorted(line["metrics"]) == sorted(m["name"] for m in spec["per_layer"])
        untraced = json.loads(suite.last_line({**record, "trace": False}))
        assert sorted(untraced["metrics"]) == sorted(
            m["name"] for m in spec["end_to_end"]
        )
        for entry in line["metrics"].values():
            assert isinstance(entry["value"], (int, float))


def test_layers_see_the_engine_on_every_workload(traced):
    _, records = traced
    for name, record in records.items():
        layers = record["layers"]
        for span in ("batch.write", "counters.on_write", "tree.update_leaf"):
            assert layers[f"{span}.calls"]["value"] > 0, (name, span)
    shard = records["service"]["layers"]
    assert shard["server.handle.calls"]["value"] == (
        CLIENTS * TINY["service"].ops_per_client
    )
    assert shard["persist.commit.calls"]["value"] > 0


def test_units_match_benchmark_json():
    spec = report.load_spec()
    for metric in spec["per_layer"]:
        assert report.layer_unit(metric["name"]) == metric["unit"]
    assert set(report.EXTRA).isdisjoint(m["name"] for m in spec["end_to_end"])


def test_request_id_in_client_and_shard_spans(traced):
    out, _ = traced
    trace = json.loads((out / "service.trace.json").read_text())
    processes = {
        e["pid"]: e["args"]["name"]
        for e in trace["traceEvents"]
        if e["name"] == "process_name"
    }
    rids: dict[str, set] = {}
    for event in trace["traceEvents"]:
        rid = event.get("args", {}).get("rid")
        if rid is not None:
            rids.setdefault(processes[event["pid"]], set()).add(rid)
    assert rids["loadgen"] & rids["shard"]


def test_tracing_restores_every_wrapped_function():
    before = {(owner, attr): vars(owner)[attr] for owner, attr in wrapped_targets()}
    with installed(SpanRecorder()):
        assert all(
            vars(owner)[attr] is not original
            for (owner, attr), original in before.items()
        )
    assert {
        (owner, attr): vars(owner)[attr] for owner, attr in wrapped_targets()
    } == before


def test_traced_run_left_nothing_wrapped(traced):
    # The service runs in this process; the traced run must have put
    # every original back.
    for owner, attr in wrapped_targets():
        assert not hasattr(vars(owner)[attr], "__wrapped__"), (owner, attr)


@pytest.mark.parametrize("name", sorted(TINY))
def test_input_hashes_follow_the_seed(name):
    workload = TINY[name]
    first = inputs_for(workload, 1).sha256()
    assert inputs_for(workload, 1).sha256() == first
    assert inputs_for(workload, 2).sha256() != first


@pytest.mark.parametrize("name", ["scatter", "overflow"])
def test_engine_traffic_is_the_llc_models(name):
    """The write phase is WritebackFilter's own stream; the read phase
    is the same cache's fill stream, less never-written blocks."""
    workload = TINY[name]
    app = (
        micro_profile(workload.app)
        if workload.app in MICRO_PROFILES
        else profile(workload.app)
    )
    with use_registry(MetricRegistry()):
        traces = app.traces(
            workload.accesses_per_core,
            workload.region_bytes // BLOCK_BYTES,
            workload.cores,
            1,
        )
        expected, _ = WritebackFilter().filter(traces)
        _, fills = dram_traffic(traces)
    inputs = inputs_for(workload, 1)
    assert inputs.writes.tolist() == expected
    assert inputs.reads.tolist() == [b for b in fills if b in set(expected)]
    assert len(inputs.reads) > len(inputs.writes) / 2


def test_service_ops_follow_the_load_generators_mix():
    workload = TINY["service"]
    inputs = inputs_for(workload, 1)
    for sequence in inputs.ops:
        for index, (kind, request, _) in enumerate(sequence):
            if index % MIX.read_every == 2:
                assert kind == "read"
            elif index % MIX.batch_every == 1:
                assert kind == "batch" and len(request["writes"]) == MIX.batch_size
            else:
                assert kind == "write"


def test_calibration_pairs_each_stretch_with_its_own_samples():
    # The host runs at reference speed, then at half speed: each
    # stretch is scaled by the mean of the samples at its two ends.
    ref = host.REFERENCE_S
    calibrated = host.Calibrated(1.0 * ref)
    calibrated.add(0.5)
    calibrated.add(0.5)
    calibrated.mark(1.0 * ref)
    calibrated.add(3.0)
    calibrated.mark(2.0 * ref)
    calibrated.mark(2.0 * ref)  # nothing open: only the next "before"
    calibrated.add(0.4)
    calibrated.mark(2.0 * ref)
    assert calibrated.calibrated() == pytest.approx([1.0, 2.0, 0.2])
    assert calibrated.factor() == pytest.approx(4.4 / 3.2)


def test_peak_memory_counts_only_what_was_gained():
    memory = host.PeakMemory()
    block = bytearray(32 * 1024 * 1024)
    block[:: 4096] = b"\1" * len(block[:: 4096])
    assert 30 <= memory.peak_mb() < 64
    del block


def test_unattributed_counts_outermost_self_time():
    # 100 ns window, 90 ns inside spans; of those, 5 ns are the
    # write_many span's own: 15% of the window is unexplained.
    spans = {
        "stats": {"batch.write": [1, 90, 5], "kernels.mac_tags": [1, 85, 85]},
        "counts": {},
        "window_ns": 100,
        "covered_ns": 90,
    }
    traced = {"write_s": 1.0, "read_s": 0.0, "host_factor": 1.0,
              "fallback_scalar": 0, "spans": spans}
    raw = {"passes": [{**traced, "spans": None}], "traced": [traced]}
    layers = report.engine_layers(raw, dirty_groups=1)
    assert layers["bench.unattributed_frac"] == pytest.approx(0.15)


@pytest.mark.parametrize(
    "base, new, better, bound, expected",
    [
        ([100, 101, 99, 100, 100], [100, 99, 101, 100, 100], "higher", 0.1,
         "unchanged"),
        ([100, 101, 99, 100, 100], [80, 81, 79, 80, 80], "higher", 0.1, "worse"),
        ([100, 101, 99, 100, 100], [120, 121, 119, 120, 120], "higher", 0.1, "better"),
        ([10, 10.1, 9.9, 10, 10], [8, 8.1, 7.9, 8, 8], "lower", 0.15, "better"),
        ([10, 10.1, 9.9, 10, 10], [12, 12.1, 11.9, 12, 12], "lower", 0.15, "worse"),
        ([60, 100, 140, 80, 120], [70, 110, 150, 90, 130], "higher", 0.1, "unresolved"),
        ([0.0, 0.0, 0.0], [0.01, 0.01, 0.01], "lower", 0.0, "worse"),
        ([0.0, 0.0, 0.0], [0.0, 0.0, 0.0], "lower", 0.0, "unchanged"),
    ],
)
def test_compare_verdicts(base, new, better, bound, expected):
    assert report.verdict(base, new, better, bound) == expected


def test_compare_rows_carry_quartiles_and_base():
    def run(value):
        return {"workload": "scatter", "metrics": {"ops_per_s": {"value": value}}}

    table = report.metric_table(report.load_spec())
    rows = report.compare(
        [run(v) for v in (100, 101, 99)], [run(v) for v in (60, 61, 59)], table
    )
    assert [(r["workload"], r["metric"], r["verdict"]) for r in rows] == [
        ("scatter", "ops_per_s", "worse")
    ]
    assert rows[0]["base"]["median"] == 100 and rows[0]["new"]["median"] == 60
    assert "of base 100" in report.compare_lines(rows)[0]
