"""Run one workload end to end and turn it into a checked run record."""

from __future__ import annotations

import json
import os
import pathlib
import sys

from bench import report
from bench.engine import dirty_groups, run_engine
from bench.service import run_service
from bench.workloads import WORKLOADS, EngineWorkload, ServiceWorkload, inputs_for

ROOT = pathlib.Path(__file__).resolve().parents[1]
PINS_PATH = ROOT / "bench" / "pins.json"
RESULTS_SCHEMA = "repro.bench.results/2"


def _units() -> dict[str, str]:
    units = {m["name"]: m["unit"] for m in report.load_spec()["end_to_end"]}
    units.update({name: unit for name, (unit, _, _) in report.EXTRA.items()})
    return units


def run_workload(
    workload: EngineWorkload | ServiceWorkload,
    seed: int,
    seconds: float,
    trace: bool,
    out: pathlib.Path,
) -> dict:
    """Generate inputs, run, check; returns the run record.

    The record carries the end-to-end metrics (and, traced, the
    per-layer ones), ``attempted``/``failed`` operation counts, and
    ``problems``: every reason the outputs are not correct.
    """
    name = workload.name
    inputs = inputs_for(workload, seed)
    trace_path = str(out / f"{name}.trace.json") if trace else None
    record: dict = {"workload": name, "seed": seed, "trace": trace}
    problems: list[str] = []
    layers: dict[str, float] = {}

    if isinstance(workload, EngineWorkload):
        raw = run_engine(workload, inputs, seed, seconds, trace_path)
        passes = raw["passes"] + raw["traced"]
        metrics = report.engine_end_to_end(raw, len(inputs.writes), len(inputs.reads))
        failed = sum(p["mismatches"] for p in passes)
        digests = sorted({p["digest"] for p in passes})
        record["state_digest"] = digests[0]
        if len(digests) != 1:
            problems.append(f"passes ended in different states: {digests}")
        record["host_factor"] = report.host_factor(raw)
        if trace:
            layers = report.engine_layers(raw, dirty_groups(workload, inputs))
    else:
        work_dir = out / f"work-{os.getpid()}"
        raw = run_service(workload, inputs, seconds, work_dir, trace_path)
        passes = raw["passes"] + raw["traced"]
        metrics = report.service_end_to_end(
            raw, inputs.op_count(), inputs.written_blocks, inputs.read_count()
        )
        failed = report.service_failed(passes)
        for p in passes:
            problems.extend(p["failures"][:5])
            if p["sdc"]:
                problems.append(f"verify sweep: {p['sdc']} blocks read back wrong")
        if trace:
            layers = report.service_layers(
                raw, inputs.dirty_groups, inputs.written_blocks
            )

    record["samples"] = report.samples(raw)
    record["input_sha256"] = inputs.sha256()
    problems.extend(_pin_problems(workload, seed, record))
    record["metrics"] = report.with_units(metrics, _units())
    if trace:
        record["layers"] = report.with_units(layers, {})
    record["attempted"] = len(passes) * inputs.op_count()
    record["failed"] = failed
    record["problems"] = problems
    record["correct"] = failed == 0 and not problems
    return record


def _pin_problems(workload, seed: int, record: dict) -> list[str]:
    pins = json.loads(PINS_PATH.read_text())
    if seed != pins["seed"] or WORKLOADS.get(workload.name) != workload:
        return []
    pinned = pins["workloads"][workload.name]
    problems = []
    if record["input_sha256"] != pinned["input_sha256"]:
        problems.append(f"input stream differs from the pinned seed-{seed} hash")
    if "state_digest" in pinned and record["state_digest"] != pinned["state_digest"]:
        problems.append("final engine state differs from the pinned digest")
    return problems


def last_line(record: dict) -> str:
    """The last output line: exactly the metrics BENCHMARK.json lists."""
    spec = report.load_spec()
    group, names = (
        ("layers", [m["name"] for m in spec["per_layer"]])
        if record["trace"]
        else ("metrics", [m["name"] for m in spec["end_to_end"]])
    )
    return json.dumps(
        {
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {name: record[group][name] for name in names},
        }
    )


def exit_status(record: dict) -> int:
    """0 ok, 1 wrong output, 3 attribution gate; reasons go to stderr."""
    status = 0 if record["correct"] else 1
    for problem in record["problems"]:
        print(f"bench: {record['workload']}: {problem}", file=sys.stderr)
    layers = record.get("layers", {})
    cpu = layers.get("loadgen.cpu_frac", {}).get("value", 0.0)
    if cpu >= report.LOADGEN_CPU_WARN:
        print(
            f"bench: warning: {record['workload']} load generator at "
            f"{cpu:.0%} CPU; it may be the bottleneck",
            file=sys.stderr,
        )
    unattributed = layers.get("bench.unattributed_frac", {}).get("value", 0.0)
    if unattributed > report.UNATTRIBUTED_LIMIT:
        print(
            f"bench: {record['workload']}: {unattributed:.1%} of timed wall "
            f"time is unattributed (limit {report.UNATTRIBUTED_LIMIT:.0%})",
            file=sys.stderr,
        )
        status = status or 3
    return status


def write_runs(path: pathlib.Path, runs: list[dict]) -> None:
    payload = {"schema": RESULTS_SCHEMA, "runs": runs}
    path.write_text(json.dumps(payload, indent=1) + "\n")
