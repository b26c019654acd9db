"""Metric assembly, printing, and the ``compare`` verdicts.

``BENCHMARK.json`` is the single source for the gated metrics: their
names, units, directions and bounds.  ``EXTRA`` holds the end-to-end
metrics reported and compared but not gated there (see the README for
why), with the bounds ``compare`` applies.  Per-layer metric units
follow from their names (:func:`layer_unit`).

Engine times arrive calibrated to the reference host speed
(:mod:`bench.host`), and engine span times are scaled by their pass's
host factor; service times are as measured.
"""

from __future__ import annotations

import json
import pathlib
import statistics
from typing import Any, Iterable

from repro.service.loadgen import percentile

ROOT = pathlib.Path(__file__).resolve().parents[1]
SPEC_PATH = ROOT / "BENCHMARK.json"

LATENCY_KINDS = ("write", "batch", "read")

#: end-to-end metrics reported but not gated in BENCHMARK.json:
#: name -> (unit, better, bound).  Request latencies exist only on the
#: service workload; ``failed_frac`` is 0 on a correct run and any
#: increase is a regression.
EXTRA: dict[str, tuple[str, str, float]] = {
    **{
        f"{kind}_p{q}_ms": ("ms", "lower", 0.15)
        for kind in LATENCY_KINDS
        for q in (50, 99)
    },
    "failed_frac": ("fraction", "lower", 0.0),
}

#: span names of the engine layers, recorded on every workload
ENGINE_SPANS = (
    "batch.write",
    "batch.write.run",
    "batch.write.store",
    "batch.read",
    "batch.read.run",
    "kernels.counters_encode",
    "kernels.counters_decode",
    "kernels.ctr_encrypt",
    "kernels.mac_tags",
    "counters.on_write",
    "ecc.hamming_encode",
    "ecc.recover_mac",
    "tree.update_leaf",
    "tree.verify_leaf",
    "crypto.scalar",
    "engine.scalar_read",
)
KERNEL_BLOCKS = (
    "kernels.counters_encode",
    "kernels.counters_decode",
    "kernels.ctr_encrypt",
    "kernels.mac_tags",
)
COUNTER_EVENTS = (
    "counters.widen",
    "counters.reencode",
    "counters.group_reencrypt",
    "counters.global_reencrypt",
)
#: span names recorded only by the service shard
SERVICE_SPANS = (
    "server.handle",
    "server.frame.write",
    "tenant.write",
    "tenant.batch",
    "tenant.read",
    "persist.commit",
    "persist.checkpoint",
    "store.journal_append",
    "store.journal_seal",
    "store.checkpoint_write",
    "store.journal_truncate",
    "faultfs.write_bytes",
    "faultfs.fsync",
    "faultfs.fsync_dir",
)
#: spans that wrap a whole public call: their self time is work no
#: layer below explains, so it counts as unattributed
ENGINE_ENVELOPES = ("batch.write", "batch.read")
SHARD_ENVELOPES = ENGINE_ENVELOPES + ("server.handle",)

#: the traced run fails when more wall time than this is unattributed
UNATTRIBUTED_LIMIT = 0.10
#: warn when the load generator is this busy (it may be the bottleneck)
LOADGEN_CPU_WARN = 0.9


def load_spec(path: str | pathlib.Path = SPEC_PATH) -> dict[str, Any]:
    return json.loads(pathlib.Path(path).read_text())


def metric_table(spec: dict[str, Any]) -> dict[str, tuple[str, str, float]]:
    """Every bounded metric: name -> (unit, better, bound)."""
    table = {
        m["name"]: (m["unit"], m["better"], float(m["bound"]))
        for m in spec["end_to_end"]
    }
    table.update(EXTRA)
    return table


def layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_ms") or "_ms." in name:
        return "ms"
    if name.endswith("_frac"):
        return "fraction"
    if name.endswith(("per_dirty_group", "per_user_byte", "per_ack")):
        return "ratio"
    return "count"


def _median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def _medians(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {name: _median(d[name] for d in per_pass) for name in per_pass[0]}


# -- end-to-end ----------------------------------------------------------------


def host_factor(raw: dict[str, Any]) -> float:
    """An engine run's median host factor (measured over calibrated
    time) over its untraced passes, for the record."""
    return _median(p["host_factor"] for p in raw["passes"])


def engine_end_to_end(raw: dict[str, Any], writes: int, reads: int) -> dict[str, float]:
    passes = raw["passes"]
    write_s = [p["write_s"] for p in passes]
    read_s = [p["read_s"] for p in passes]
    return {
        "write_blocks_per_s": _median(writes / s for s in write_s),
        "read_blocks_per_s": _median(reads / s for s in read_s),
        "ops_per_s": _median((writes + reads) / (w + r) for w, r in zip(write_s, read_s)),
        "setup_s": _median(raw["setup_s"]),
        "peak_rss_mb": raw["peak_rss_mb"],
        "failed_frac": sum(p["mismatches"] for p in passes)
        / (len(passes) * (writes + reads)),
    }


def samples(raw: dict[str, Any]) -> dict[str, int]:
    """Sample counts behind the medians and percentiles."""
    passes = raw["passes"]
    out = {"setup": len(raw["setup_s"]), "passes": len(passes)}
    if "latencies_ms" in passes[0]:
        for kind in LATENCY_KINDS:
            out[kind] = sum(len(p["latencies_ms"][kind]) for p in passes)
    return out


def service_failed(passes: list[dict[str, Any]]) -> int:
    return sum(len(p["failures"]) + p["sdc"] for p in passes)


def service_end_to_end(
    raw: dict[str, Any], ops: int, written_blocks: int, reads: int
) -> dict[str, float]:
    passes = raw["passes"]
    wall_s = [p["wall_s"] for p in passes]
    out = {
        "write_blocks_per_s": _median(written_blocks / s for s in wall_s),
        "read_blocks_per_s": _median(reads / s for s in wall_s),
        "ops_per_s": _median(ops / s for s in wall_s),
    }
    for kind in LATENCY_KINDS:
        pooled = [x for p in passes for x in p["latencies_ms"][kind]]
        out[f"{kind}_p50_ms"] = percentile(pooled, 50)
        out[f"{kind}_p99_ms"] = percentile(pooled, 99)
    out["setup_s"] = _median(raw["setup_s"])
    out["peak_rss_mb"] = max(p["peak_rss_mb"] for p in passes)
    out["failed_frac"] = service_failed(passes) / (len(passes) * ops)
    return out


# -- per-layer ---------------------------------------------------------------------


def _spans(
    stats: dict[str, list[int]], names: Iterable[str], factor: float
) -> dict[str, float]:
    out: dict[str, float] = {}
    for name in names:
        calls, _total_ns, self_ns = stats.get(name, (0, 0, 0))
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = self_ns / 1e9 / factor
    return out


def _self_ns(stats: dict[str, list[int]], names: Iterable[str]) -> int:
    return sum(stats.get(name, (0, 0, 0))[2] for name in names)


def engine_pass_layers(
    spans: dict[str, Any], factor: float, dirty_groups: int, fallback_scalar: int
) -> dict[str, float]:
    """Engine-layer metrics of one traced pass (engine or shard spans)."""
    stats, counts = spans["stats"], spans["counts"]
    out = _spans(stats, ENGINE_SPANS, factor)
    for name in KERNEL_BLOCKS:
        out[f"{name}.blocks"] = counts.get(f"{name}.blocks", 0)
    for name in COUNTER_EVENTS:
        out[name] = counts.get(name, 0)
    out["batch.fallback_scalar"] = fallback_scalar
    for name in ("kernels.counters_encode", "tree.update_leaf"):
        out[f"{name}.per_dirty_group"] = out[f"{name}.calls"] / dirty_groups
    return out


def _overhead(traced_s: list[float], untraced_s: list[float]) -> float:
    return _median(traced_s) / _median(untraced_s) - 1.0


def engine_layers(raw: dict[str, Any], dirty_groups: int) -> dict[str, float]:
    """Per-layer metrics: the median over traced passes of each."""

    def seconds(p):
        return p["write_s"] + p["read_s"]

    per_pass = []
    for p in raw["traced"]:
        spans = p["spans"]
        layers = engine_pass_layers(
            spans, p["host_factor"], dirty_groups, p["fallback_scalar"]
        )
        outside = spans["window_ns"] - spans["covered_ns"]
        layers["bench.unattributed_frac"] = (
            outside + _self_ns(spans["stats"], ENGINE_ENVELOPES)
        ) / spans["window_ns"]
        per_pass.append(layers)
    out = _medians(per_pass)
    out["trace_overhead_frac"] = _overhead(
        [seconds(p) for p in raw["traced"]], [seconds(p) for p in raw["passes"]]
    )
    return out


def _fallbacks(scraped: dict[str, Any]) -> int:
    return sum(
        value
        for name, value in scraped.get("metrics", {}).items()
        if name.endswith(".fast.fallback.scalar")
    )


def service_pass_layers(
    p: dict[str, Any], dirty_groups: int, written_blocks: int
) -> dict[str, float]:
    """Shard-side metrics of one traced service pass."""
    shard = p["shard_spans"]
    fallback = _fallbacks(p["metrics_after"]) - _fallbacks(p["metrics_before"])
    out = engine_pass_layers(shard, 1.0, dirty_groups, fallback)
    stats, counts = shard["stats"], shard["counts"]
    out.update(_spans(stats, SERVICE_SPANS, 1.0))
    frame_read = stats.get("server.frame.read", (0, 0, 0))
    out["server.frame.read.calls"] = frame_read[0]
    # Awaiting the next request: mostly idle connection time.
    out["server.frame.read.wait_s"] = frame_read[1] / 1e9
    handle_total_ns = stats.get("server.handle", (0, 0, 0))[1]
    out["server.busy_frac"] = handle_total_ns / shard["window_ns"]
    # The shard is where the service's work happens; the load
    # generator's spans only wait on it.
    out["bench.unattributed_frac"] = (
        _self_ns(stats, SHARD_ENVELOPES) / handle_total_ns
    )
    waits = shard["queue_waits_ms"]
    out["server.queue_wait_ms.p50"] = percentile(waits, 50)
    out["server.queue_wait_ms.p99"] = percentile(waits, 99)
    user_bytes = written_blocks * 64
    out["persist.journal_bytes_per_user_byte"] = (
        counts.get("store.journal_bytes", 0) / user_bytes
    )
    out["persist.checkpoint_bytes_per_user_byte"] = (
        counts.get("store.checkpoint_bytes", 0) / user_bytes
    )
    acks = len(p["latencies_ms"]["write"]) + len(p["latencies_ms"]["batch"])
    out["faultfs.fsync_per_ack"] = (
        out["faultfs.fsync.calls"] + out["faultfs.fsync_dir.calls"]
    ) / acks
    return out


def service_layers(
    raw: dict[str, Any], dirty_groups: int, written_blocks: int
) -> dict[str, float]:
    out = _medians(
        [service_pass_layers(p, dirty_groups, written_blocks) for p in raw["traced"]]
    )
    passes = raw["passes"]
    out["loadgen.cpu_frac"] = _median(p["cpu_s"] / p["wall_s"] for p in passes)
    out["client.retries"] = sum(p["retries"] for p in passes)
    out["trace_overhead_frac"] = _overhead(
        [p["wall_s"] for p in raw["traced"]], [p["wall_s"] for p in passes]
    )
    return out


# -- printing ------------------------------------------------------------------


def metric_lines(record: dict[str, Any]) -> list[str]:
    """``workload metric value unit`` lines, sample counts beside latencies."""
    workload, samples = record["workload"], record.get("samples", {})
    lines = []
    for group in ("metrics", "layers"):
        for name, entry in record.get(group, {}).items():
            line = f"{workload} {name} {entry['value']:.6g} {entry['unit']}"
            kind = name.split("_p", 1)[0] if name.endswith("_ms") else None
            if kind in samples:
                line += f" n={samples[kind]}"
            lines.append(line)
    if "host_factor" in record:
        lines.append(f"{workload} host_factor {record['host_factor']:.4f} ratio")
    return lines


def with_units(values: dict[str, float], units: dict[str, str]) -> dict[str, dict]:
    return {
        name: {"value": value, "unit": units.get(name) or layer_unit(name)}
        for name, value in values.items()
    }


# -- compare -------------------------------------------------------------------


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base: list[float], new: list[float], better: str, bound: float) -> str:
    """better / unchanged / worse / unresolved for one metric x workload.

    ``worse``: the new median is worse than the base median by more
    than ``bound`` (a share of the base median).  ``unresolved``: the
    run-to-run spread (interquartile range over median, either side)
    exceeds the bound and the two sides' ranges overlap.  ``better``:
    the new median improves on the base by more than the base's own
    spread and the new side wins at least 90% of all run pairs.
    """
    sign = 1.0 if better == "lower" else -1.0
    q1a, ma, q3a = _quartiles(base)
    q1b, mb, q3b = _quartiles(new)
    worse_by = sign * (mb - ma) / abs(ma) if ma else sign * (mb - ma)
    spread_a = (q3a - q1a) / abs(ma) if ma else 0.0
    spread_b = (q3b - q1b) / abs(mb) if mb else 0.0
    overlap = min(new) <= max(base) and min(base) <= max(new)
    if max(spread_a, spread_b) > bound and overlap:
        return "unresolved"
    if worse_by > bound:
        return "worse"
    pairs = [sign * (b - a) for a in base for b in new]
    wins = sum(1 for d in pairs if d < 0)
    if -worse_by > spread_a and wins >= 0.9 * len(pairs):
        return "better"
    return "unchanged"


def load_runs(path: str | pathlib.Path) -> list[dict[str, Any]]:
    return json.loads(pathlib.Path(path).read_text())["runs"]


def compare(base_runs, new_runs, table) -> list[dict[str, Any]]:
    """One row per (workload, metric) present on both sides."""

    def grouped(runs):
        out: dict[tuple[str, str], list[float]] = {}
        for run in runs:
            for name, entry in run["metrics"].items():
                out.setdefault((run["workload"], name), []).append(entry["value"])
        return out

    base, new = grouped(base_runs), grouped(new_runs)
    rows = []
    for key in sorted(set(base) & set(new)):
        workload, name = key
        if name not in table:
            continue
        unit, better, bound = table[name]
        q1a, ma, q3a = _quartiles(base[key])
        q1b, mb, q3b = _quartiles(new[key])
        rows.append(
            {
                "workload": workload,
                "metric": name,
                "unit": unit,
                "bound": bound,
                "base": {"q1": q1a, "median": ma, "q3": q3a, "n": len(base[key])},
                "new": {"q1": q1b, "median": mb, "q3": q3b, "n": len(new[key])},
                "verdict": verdict(base[key], new[key], better, bound),
            }
        )
    return rows


def compare_lines(rows: list[dict[str, Any]]) -> list[str]:
    lines = []
    for row in rows:
        a, b = row["base"], row["new"]
        if a["median"]:
            ratio = f"{b['median'] / a['median']:.4f}x of base {a['median']:.6g}"
        else:
            ratio = f"base {a['median']:.6g} (no ratio)"
        lines.append(
            f"{row['workload']} {row['metric']} {row['verdict']}: "
            f"new {b['median']:.6g} [{b['q1']:.6g}, {b['q3']:.6g}] n={b['n']} "
            f"vs base {a['median']:.6g} [{a['q1']:.6g}, {a['q3']:.6g}] n={a['n']} "
            f"{row['unit']}; {ratio}; bound {row['bound']:.0%}"
        )
    return lines
