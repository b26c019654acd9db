"""Command-line interface: regenerate paper exhibits from the terminal.

Usage (after ``pip install -e .``)::

    python -m repro table2 --apps dedup canneal --accesses 200000
    python -m repro figure8 --apps canneal dedup
    python -m repro figure1
    python -m repro figure3 --trials 10
    python -m repro attacks
    python -m repro resilience --operations 10000 --seed 7
    python -m repro trace dedup out.trc.gz --accesses 100000
    python -m repro figure8 --apps canneal --trace-out obs/trace.json --stats
    python -m repro stats obs/trace.metrics.json

Each subcommand prints the same exhibit its pytest benchmark produces,
at a scale the flags control -- handy for quick what-if runs (different
region sizes, trace lengths, subsets of applications) without invoking
the test machinery.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from dataclasses import MISSING, fields, is_dataclass, replace

from repro.analysis.attacks import run_all
from repro.analysis.faults import figure3_scenarios, run_fault_matrix
from repro.analysis.storage import (
    counter_compaction_factor,
    figure1_breakdowns,
)
from repro.core.engine.config import PRESETS, preset
from repro.core.engine.secure_memory import SecureMemory
from repro.fast.backends import keystream_backends
from repro.fast.kernels import parse_mode
from repro.harness.parallel import BenchSpec, run_bench
from repro.harness.study import StudySpec, run_study
from repro.harness.reporting import dump_json, format_series, format_table
from repro.harness.runner import PerformanceExperiment, ReencryptionExperiment
from repro.lint import (
    Baseline,
    default_checkers,
    render_json,
    render_text,
    run_lint,
)
from repro.memsim.cpu.trace import save_trace
from repro.obs.metrics import MetricRegistry, MetricsSnapshot, use_registry
from repro.obs.probe import probes
from repro.obs.report import render_report
from repro.obs.trace import EventTracer, use_tracer
from repro.persist.crashsim import (
    CrashSimSpec,
    parse_point,
    run_matrix,
    run_point,
)
from repro.resilience.campaign import CampaignSpec, run_campaign
from repro.resilience.torture import TortureSpec, run_torture
from repro.service.chaos import ChaosSpec, run_chaos
from repro.service.loadgen import LoadgenSpec, run_loadgen
from repro.service.server import ServiceSupervisor
from repro.workloads import resolve_profile
from repro.workloads.micro import MICRO_PROFILES
from repro.workloads.parsec import figure8_apps, table2_apps


def _rate(text: str) -> float:
    value = float(text)
    if value < 0:
        raise argparse.ArgumentTypeError("rate must be >= 0")
    return value


def _kernel_mode(token: str) -> str:
    try:
        parse_mode(token)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return token


def _spec(cls, args):
    """Build the harness spec ``cls`` from the flags given.

    A spec-backed flag parses straight into its field (``dest``) and has
    no default of its own (``argparse.SUPPRESS``), so a flag left out
    keeps the spec's default.  A dataclass-valued field (loadgen's
    ``quota``) takes the flags named after its own fields.
    """
    given = vars(args)

    def picked(dc) -> dict:
        return {
            f.name: tuple(value) if isinstance(value, list) else value
            for f in fields(dc)
            if (value := given.get(f.name, MISSING)) is not MISSING
        }

    kwargs = picked(cls)
    for f in fields(cls):
        if f.name not in kwargs and f.default_factory is not MISSING:
            default = f.default_factory()
            if is_dataclass(default) and picked(default):
                kwargs[f.name] = replace(default, **picked(default))
    return cls(**kwargs)


def _dump(payload, path, what: str) -> None:
    """Write ``payload`` as the JSON artifact at ``path``, if one is
    asked for, and say so on stderr."""
    if path:
        dump_json(payload, path)
        print(f"wrote {what} to {path}", file=sys.stderr)


def _report(args, report) -> int:
    """Print a stress harness's report (``resilience``, ``crash``,
    ``torture``), write its ``--json-out`` artifact, and exit on its
    verdict."""
    print(report.format_summary())
    _dump(report.to_json(), args.json_out, f"{args.command} report")
    return 0 if report.ok else 1


@contextmanager
def _observe(args):
    """Observability scope for one exhibit command.

    When any of ``--trace-out`` / ``--metrics-out`` / ``--stats`` is
    given, run the command under a fresh metrics registry, a tracer
    (enabled only when a trace file is wanted), and enabled probes, then
    write the requested artifacts.  With no flags this is a no-op and
    the run pays no observability cost.
    """
    trace_out = getattr(args, "trace_out", None)
    metrics_out = getattr(args, "metrics_out", None)
    stats = getattr(args, "stats", False)
    if not (trace_out or metrics_out or stats):
        yield
        return
    registry = MetricRegistry()
    tracer = EventTracer(enabled=bool(trace_out))
    with use_registry(registry), use_tracer(tracer), probes(True):
        yield
    if trace_out:
        count = tracer.write(trace_out)
        print(f"wrote {count} trace events to {trace_out}", file=sys.stderr)
        if metrics_out is None:
            # A trace without its metrics is half the story; derive a
            # sibling path so the pair travels together.
            p = pathlib.Path(trace_out)
            metrics_out = p.with_name(p.stem + ".metrics.json")
    snapshot = registry.snapshot()
    if metrics_out:
        snapshot.dump(metrics_out)
        print(f"wrote metrics snapshot to {metrics_out}", file=sys.stderr)
    if stats:
        print()
        print(render_report(snapshot))


def _cmd_stats(args) -> int:
    print(
        render_report(
            MetricsSnapshot.load(args.file), top_spans=args.top_spans
        )
    )
    return 0


def _cmd_table2(args) -> int:
    experiment = ReencryptionExperiment(
        region_bytes=args.region_mb * 1024 * 1024,
        accesses_per_core=args.accesses,
        seed=args.seed,
    )
    rows = [
        experiment.run_app(resolve_profile(app)).as_row()
        for app in args.apps
    ]
    print(
        format_table(
            "Table 2 -- re-encryptions per 10^9 cycles",
            ["program", "split", "7-bit delta", "dual-length"],
            rows,
        )
    )
    return 0


def _cmd_figure8(args) -> int:
    experiment = PerformanceExperiment(
        region_bytes=args.region_mb * 1024 * 1024,
        accesses_per_core=args.accesses,
        seed=args.seed,
    )
    rows = []
    for app in args.apps:
        run = experiment.run_app(resolve_profile(app))
        normalized = run.normalized()
        rows.append(
            [
                app,
                round(run.plain_ipc, 3),
                round(normalized["bmt_baseline"], 3),
                round(normalized["mac_in_ecc"], 3),
                round(normalized["delta_only"], 3),
                round(normalized["combined"], 3),
                f"{run.improvement_over_baseline() * 100:+.1f}%",
            ]
        )
    print(
        format_table(
            "Figure 8 -- IPC normalized to no encryption",
            ["program", "plain", "bmt", "mac_ecc", "delta", "combined",
             "gain"],
            rows,
        )
    )
    return 0


def _cmd_bench(args) -> int:
    spec = _spec(BenchSpec, args)
    payload = run_bench(spec, workers=args.workers)
    rows = [
        [
            app,
            res["writebacks"],
            res["unique_blocks"],
            res["readback_mismatches"],
            res["state_digest"][:12],
        ]
        for app, res in payload["results"].items()
    ]
    print(
        format_table(
            f"Batched engine bench (mode={spec.mode}, "
            f"workers={args.workers})",
            ["program", "writebacks", "blocks", "mismatches", "digest"],
            rows,
        )
    )
    metrics = payload["metrics"]
    print(
        f"\nkernel calls: {metrics.get('fast.kernel.calls', 0)}   "
        f"blocks: {metrics.get('fast.kernel.blocks', 0)}   "
        f"scalar fallbacks: {metrics.get('fast.fallback.scalar', 0)}   "
        f"paranoid divergences: "
        f"{metrics.get('fast.paranoid.divergence', 0)}"
    )
    _dump(payload, args.json_out, "merged bench payload")
    mismatches = sum(
        res["readback_mismatches"] for res in payload["results"].values()
    )
    divergences = metrics.get("fast.paranoid.divergence", 0)
    return 0 if not mismatches and not divergences else 1


def _cmd_figure1(args) -> int:
    rows = []
    for breakdown in figure1_breakdowns(
        args.region_mb * 1024 * 1024
    ).values():
        rows.append(
            [
                breakdown.name,
                f"{breakdown.counter_overhead:.1%}",
                f"{breakdown.mac_overhead:.1%}",
                f"{breakdown.tree_overhead:.2%}",
                f"{breakdown.encryption_metadata:.1%}",
                breakdown.offchip_tree_levels,
            ]
        )
    print(
        format_table(
            "Figure 1 -- metadata storage overhead",
            ["configuration", "counters", "MACs", "tree", "total", "levels"],
            rows,
        )
    )
    print(f"\ncounter compaction: {counter_compaction_factor():.1f}x")
    return 0


def _cmd_figure3(args) -> int:
    matrix = run_fault_matrix(trials=args.trials, seed=args.seed)
    rows = [
        [
            scenario.description,
            matrix.dominant(scenario.name, "secded").value,
            matrix.dominant(scenario.name, "mac_ecc").value,
        ]
        for scenario in figure3_scenarios()
    ]
    print(
        format_table(
            f"Figure 3 -- dominant outcome ({args.trials} injections)",
            ["fault pattern", "SEC-DED", "MAC-based ECC"],
            rows,
        )
    )
    return 0


def _cmd_attacks(args) -> int:
    def factory():
        return SecureMemory(
            preset(
                args.preset,
                protected_bytes=args.region_mb * 1024 * 1024,
                keystream_mode="splitmix",
            ),
            os.urandom(48),
        )

    results = run_all(factory)
    rows = [
        [r.name, "DEFENDED" if r.defended else "BREACHED", r.detail]
        for r in results
    ]
    print(
        format_table(
            f"Threat-model sweep against preset {args.preset!r}",
            ["attack", "outcome", "detail"],
            rows,
        )
    )
    return 0 if all(r.defended for r in results) else 1


def _cmd_resilience(args) -> int:
    return _report(args, run_campaign(_spec(CampaignSpec, args)))


def _cmd_crash(args) -> int:
    spec = _spec(CrashSimSpec, args)
    if args.point is not None:
        # Single-point repro mode: same arming, bit-for-bit same crash.
        try:
            plan = parse_point(args.point)
        except ValueError as err:
            print(f"error: {err}", file=sys.stderr)
            raise SystemExit(2) from err
        outcome = run_point(spec, plan)
        print(json.dumps(outcome.to_json(), indent=2, sort_keys=True))
        return 0 if outcome.clean else 1
    return _report(
        args, run_matrix(spec, limit=args.limit, stride=args.stride)
    )


def _cmd_torture(args) -> int:
    return _report(
        args, run_torture(_spec(TortureSpec, args), limit=args.limit)
    )


def _cmd_lint(args) -> int:
    if args.list_checks:
        for checker in default_checkers():
            print(f"{checker.code} {checker.name}: {checker.description}")
        return 0
    paths = args.paths or [_default_lint_root()]
    baseline = Baseline.load(args.baseline) if args.baseline else None
    check_only = None
    if args.changed is not None:
        changed = _changed_files(args.changed)
        if changed is None:
            print(
                "warning: git unavailable; --changed ignored, linting "
                "everything",
                file=sys.stderr,
            )
        elif not changed:
            print(f"no python files changed against {args.changed}")
            return 0
        else:
            check_only = changed
    result = run_lint(paths, baseline=baseline, check_only=check_only)
    if args.write_baseline:
        Baseline.from_diagnostics(
            result.diagnostics + result.grandfathered
        ).dump(args.write_baseline)
        print(
            f"wrote {len(result.diagnostics) + len(result.grandfathered)} "
            f"baseline entries to {args.write_baseline}",
            file=sys.stderr,
        )
        return 0
    if args.format == "json":
        print(render_json(result))
    else:
        print(render_text(result))
    return result.exit_code


def _default_lint_root() -> str:
    """The installed ``repro`` package tree (works from any cwd)."""
    return str(pathlib.Path(__file__).resolve().parent)


def _changed_files(ref: str) -> list[str] | None:
    """Python files changed against ``ref``, plus untracked ones, as
    absolute paths; ``None`` when git is unavailable (caller falls back
    to a full lint).  Discovery and the cross-file passes still cover
    the whole tree -- only *judgement* narrows to these files."""
    def _git(*argv: str, cwd: str | None = None) -> str:
        return subprocess.run(
            ["git", *argv],
            capture_output=True, text=True, check=True, cwd=cwd,
        ).stdout

    try:
        root = _git("rev-parse", "--show-toplevel").strip()
        diff = _git("diff", "--name-only", ref, "--", "*.py", cwd=root)
        untracked = _git(
            "ls-files", "--others", "--exclude-standard", "--", "*.py",
            cwd=root,
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    out = []
    for line in {*diff.splitlines(), *untracked.splitlines()}:
        path = pathlib.Path(root) / line
        if path.suffix == ".py" and path.exists():
            out.append(str(path))
    return sorted(out)


def _cmd_serve(args) -> int:
    supervisor = ServiceSupervisor(
        args.root,
        num_shards=args.shards,
        secret_seed=args.secret_seed,
    )
    supervisor.start()
    supervisor.wait_ready()
    router = supervisor.router
    for shard in router.shards():
        print(f"shard {shard}: {router.socket_path(shard)}  "
              f"http: {router.http_socket_path(shard)}")
    print("serving; Ctrl-C drains every tenant and stops",
          file=sys.stderr)
    try:
        while all(supervisor.alive(s) for s in router.shards()):
            time.sleep(0.5)
    except KeyboardInterrupt:
        supervisor.stop()
        return 0
    print("a shard worker exited unexpectedly; stopping", file=sys.stderr)
    supervisor.stop()
    return 1


def _run_service_campaign(args, run, spec) -> tuple[dict, int]:
    """Run ``repro loadgen``/``chaos``, print one summary, and return
    the payload with the exit status."""
    if args.root:
        payload = run(spec, args.root, out_path=args.json_out)
    else:
        prefix = f"repro-{args.command}-"
        with tempfile.TemporaryDirectory(prefix=prefix) as root:
            payload = run(spec, root, out_path=args.json_out)
    results = payload["results"]
    breaker = results["breaker"]
    client = results["client"]
    degraded = results["degraded"] or {}
    print(format_table(
        f"Service {args.command} ({spec.tenants} tenants x {spec.shards} "
        f"shards, kill shard {spec.kill_shard}, victim "
        f"{spec.victim_tenant()})",
        ["refusal code", "count"],
        [[code, count] for code, count in sorted(results["refusals"].items())]
        or [["(none)", 0]],
    ))
    print()
    print(format_series("Summary", {
        "acked ops": results["acked_ops"],
        "throughput ops/s": results.get("throughput_ops_s", "-"),
        "p50 / p99 ms": f"{results['p50_ms']} / {results['p99_ms']}",
        "verified blocks": results["verified_blocks"],
        "ambiguous ok / skipped": f"{results['ambiguous_ok_blocks']} / "
                                  f"{results['skipped_blocks']}",
        "SDC blocks": results["sdc_blocks"],
        "breaker opened / half-open / closed": f"{breaker['opened']} / "
        f"{breaker['half_open']} / {breaker['closed']}",
        "overload shed": f"{results['overload']['shed']}/"
                         f"{results['overload']['probes']}",
        "deadline refused": f"{results['deadline']['refused']}/"
                            f"{results['deadline']['sent']}",
        "degraded write refused / read ok": f"{degraded.get('write_refused')}"
        f" / {degraded.get('read_ok')}",
        "retry amplification": f"{client['amplification']}x ("
        f"{client['sends']} sends / {results['logical_ops']} logical ops)",
        "all_verified": payload["all_verified"],
    }))
    if args.json_out:
        print(f"wrote {payload['bench']} bench payload to {args.json_out}",
              file=sys.stderr)
    return payload, 0 if payload["all_verified"] else 1


def _cmd_loadgen(args) -> int:
    spec = _spec(LoadgenSpec, args)
    return _run_service_campaign(args, run_loadgen, spec)[1]


def _cmd_chaos(args) -> int:
    spec = _spec(ChaosSpec, args)
    payload, status = _run_service_campaign(args, run_chaos, spec)
    _dump(payload["health"], args.health_out, "/health snapshots")
    return status


def _cmd_trace(args) -> int:
    app = resolve_profile(args.app)
    records = app.trace(
        args.accesses,
        args.region_mb * 1024 * 1024 // 64,
        core=args.core,
        seed=args.seed,
    )
    count = save_trace(args.output, records)
    print(f"wrote {count} records to {args.output}")
    return 0


def _cmd_study(args) -> int:
    payload = run_study(_spec(StudySpec, args))
    rows = [
        [
            label,
            summary["elapsed_seconds"],
            summary["blocks_per_second"],
            summary["readback_mismatches"],
        ]
        for label, summary in sorted(payload["flavors"].items())
    ]
    print(
        format_table(
            f"Perf study ({len(rows)} flavors)",
            ["flavor", "seconds", "blocks/s", "mismatches"],
            rows,
        )
    )
    for group, entry in sorted(payload["comparisons"].items()):
        parts = []
        speedups = entry.get("speedup_vs_reference")
        if speedups:
            best = max(speedups, key=lambda name: speedups[name])
            parts.append(f"best {best} {speedups[best]:.2f}x reference")
        if "aesni_vs_fast" in entry:
            parts.append(f"aesni {entry['aesni_vs_fast']:.2f}x fast")
        if "aes_family_digest_agreement" in entry:
            parts.append(
                "digests "
                + ("agree" if entry["aes_family_digest_agreement"]
                   else "DIVERGE")
            )
        print(f"{group}: " + ", ".join(parts))
    for name, reason in sorted(payload["skipped_backends"].items()):
        print(f"skipped backend {name}: {reason}", file=sys.stderr)
    _dump(payload, args.json_out, "study payload")
    summary = payload["summary"]
    failed = summary["readback_mismatches"] or not summary[
        "aes_family_digest_agreement"
    ]
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    app_choices = table2_apps() + sorted(MICRO_PROFILES)

    def spec_parser(name, **kwargs):
        """A subcommand whose flags fill one harness spec: a flag without
        an explicit default is absent from ``args`` unless given, so the
        spec keeps its own default (see :func:`_spec`)."""
        return sub.add_parser(
            name, argument_default=argparse.SUPPRESS, **kwargs
        )

    def common(p, default_region=32):
        p.add_argument("--region-mb", type=int, default=default_region,
                       help="protected region size in MiB")
        p.add_argument("--seed", type=int, default=1)

    def apps(p, **kwargs):
        p.add_argument("--apps", nargs="+", choices=app_choices,
                       metavar="APP", **kwargs)

    def json_out(p, help):
        p.add_argument("--json-out", metavar="FILE", default=None, help=help)

    #: flags that ``resilience``, ``crash`` and ``torture`` declare alike
    stress_flags = {
        "--groups": dict(type=int, dest="group_count", metavar="GROUPS",
                         help="counter block-groups in the protected region"),
        "--ce-threshold": dict(type=int, help="correctable errors before a "
                                              "block is retired"),
        "--transient-rate": dict(type=_rate, help="transient SEUs per "
                                                  "operation (Poisson rate)"),
        "--stuck-rate": dict(type=_rate,
                             help="stuck-at cell faults per operation"),
        "--burst-rate": dict(type=_rate,
                             help="row-burst events per operation"),
    }
    fault_rates = ("--transient-rate", "--stuck-rate", "--burst-rate")

    def stress(p, *names):
        for name in names:
            p.add_argument(name, **stress_flags[name])

    def obs_options(p):
        p.add_argument("--trace-out", metavar="FILE", default=None,
                       help="write a Chrome trace-event JSON (open in "
                            "Perfetto / chrome://tracing)")
        p.add_argument("--metrics-out", metavar="FILE", default=None,
                       help="write the run's metrics snapshot as JSON")
        p.add_argument("--stats", action="store_true", default=False,
                       help="print the stats report after the exhibit")

    p = sub.add_parser("table2", help="re-encryption rates (Table 2)")
    common(p)
    apps(p, default=table2_apps())
    p.add_argument("--accesses", type=int, default=600_000,
                   help="trace accesses per core")
    obs_options(p)
    p.set_defaults(func=_cmd_table2)

    p = sub.add_parser("figure8", help="normalized IPC (Figure 8)")
    common(p, default_region=128)
    apps(p, default=figure8_apps())
    p.add_argument("--accesses", type=int, default=60_000)
    obs_options(p)
    p.set_defaults(func=_cmd_figure8)

    p = spec_parser(
        "bench",
        help="parallel batched-engine benchmark (merged BENCH JSON is "
             "byte-identical for any --workers count on the same seed)",
    )
    p.add_argument("--region-mb", type=int,
                   help="protected region size in MiB")
    p.add_argument("--seed", type=int)
    apps(p, default=figure8_apps())
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes to shard applications across")
    p.add_argument("--mode", type=_kernel_mode,
                   help="kernel verification: fast, paranoid (cross-"
                        "check every kernel call against its scalar "
                        "reference) or sampled:N (1-in-N calls on a "
                        "seeded deterministic schedule)")
    p.add_argument("--accesses", type=int,
                   help="trace accesses per core")
    p.add_argument("--preset", choices=sorted(PRESETS))
    p.add_argument("--keystream", choices=list(keystream_backends()),
                   help="keystream backend (reference/fast/aesni run "
                        "real AES with different execution strategies; "
                        "splitmix is the simulation PRF)")
    json_out(p, "write the merged bench payload as JSON")
    p.set_defaults(func=_cmd_bench)

    p = spec_parser(
        "study",
        help="perf-study sweep over keystream x mode x workers x preset "
             "flavors (BENCH_study.json comparison artifact)",
    )
    apps(p)
    p.add_argument("--accesses", type=int,
                   help="trace accesses per core, per flavor")
    p.add_argument("--region-mb", type=int)
    p.add_argument("--cores", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--keystreams", nargs="+",
                   choices=list(keystream_backends()), metavar="BACKEND",
                   help="keystream backends to sweep (unavailable ones "
                        "are skipped and recorded)")
    p.add_argument("--modes", nargs="+", type=_kernel_mode, metavar="MODE",
                   help="kernel-mode tokens: fast, paranoid, or sampled:N")
    p.add_argument("--workers-list", nargs="+", type=int, dest="workers",
                   metavar="N", help="worker counts to sweep")
    p.add_argument("--presets", nargs="+", choices=sorted(PRESETS),
                   metavar="PRESET")
    json_out(p, "write the study payload as JSON (e.g. BENCH_study.json)")
    p.set_defaults(func=_cmd_study)

    p = sub.add_parser("figure1", help="storage overhead (Figure 1)")
    common(p, default_region=512)
    p.set_defaults(func=_cmd_figure1)

    p = sub.add_parser("figure3", help="fault matrix (Figure 3)")
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=_cmd_figure3)

    p = sub.add_parser("attacks", help="threat-model sweep")
    p.add_argument("--preset", default="combined",
                   choices=sorted(PRESETS))
    # 16 MiB gives the Bonsai tree off-chip interior nodes, so the
    # tree-grafting attack actually runs instead of being skipped.
    p.add_argument("--region-mb", type=int, default=16)
    p.set_defaults(func=_cmd_attacks)

    p = spec_parser(
        "resilience",
        help="fault campaign with retry recovery and block quarantine",
    )
    p.add_argument("--preset", choices=sorted(PRESETS))
    p.add_argument("--region-kb", type=int,
                   help="protected region size in KiB")
    p.add_argument("--operations", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--spare-blocks", type=int,
                   help="blocks reserved for quarantine remapping")
    stress(p, "--ce-threshold")
    p.add_argument("--max-retries", type=int,
                   help="re-reads before escalating to flip-and-check")
    stress(p, *fault_rates)
    p.add_argument("--write-fraction", type=float)
    p.add_argument("--scrub-interval", type=int,
                   help="operations between scrub sweeps (0 disables)")
    json_out(p, "write the campaign report (including the seed) as a JSON "
                "artifact")
    obs_options(p)
    p.set_defaults(func=_cmd_resilience)

    p = spec_parser(
        "crash",
        help="crash-point injection matrix over the journaled engine "
             "(exhaustive by default; --point replays one crash)",
    )
    p.add_argument("--preset", choices=sorted(PRESETS))
    p.add_argument("--ops", type=int,
                   help="writes in the recorded workload")
    p.add_argument("--seed", type=int)
    stress(p, "--groups")
    p.add_argument("--blocks", type=int, dest="workload_blocks",
                   metavar="BLOCKS",
                   help="distinct addresses the workload touches")
    p.add_argument("--checkpoint-interval", type=int,
                   help="commits between epoch checkpoints")
    p.add_argument("--batch", type=int,
                   help="writes per group-commit flush (0 = scalar "
                        "per-write transactions)")
    p.add_argument("--resilient", action="store_true",
                   help="compose the resilience layer into the workload "
                        "(stuck faults, journaled retirement, degrade)")
    p.add_argument("--spare-blocks", type=int,
                   help="quarantine spare pool size (with --resilient)")
    p.add_argument("--ce-threshold", type=int,
                   help="CEs before retirement (with --resilient)")
    p.add_argument("--point", metavar="STEP[:PHASE]", default=None,
                   help="replay a single crash point (PHASE: skip|torn) "
                        "instead of the matrix")
    p.add_argument("--limit", type=int, default=None,
                   help="bound the matrix to N points (CI smoke)")
    p.add_argument("--stride", type=int, default=1,
                   help="run every Nth point of the matrix")
    json_out(p, "write the matrix report as a JSON artifact")
    p.set_defaults(func=_cmd_crash)

    p = spec_parser(
        "torture",
        help="combined crash x fault campaign over the composed stack "
             "(group-commit traffic, Poisson faults, a crash-recovery "
             "cycle per cycle, shadow-model verification)",
    )
    p.add_argument("--preset", choices=sorted(PRESETS))
    p.add_argument("--cycles", type=int,
                   help="crash-recovery cycles to run")
    p.add_argument("--ops", type=int, dest="ops_per_cycle", metavar="OPS",
                   help="traffic operations per cycle")
    p.add_argument("--batch", type=int,
                   help="writes per group-commit flush (0 = scalar)")
    p.add_argument("--seed", type=int)
    stress(p, "--groups")
    p.add_argument("--checkpoint-every", type=int,
                   help="cycles between explicit checkpoints (telemetry "
                        "durability cadence)")
    p.add_argument("--spare-blocks", type=int,
                   help="quarantine spare pool size")
    stress(p, "--ce-threshold", *fault_rates)
    p.add_argument("--limit", type=int, default=None,
                   help="bound the run to N cycles (CI smoke)")
    json_out(p, "write the torture report as a JSON artifact")
    p.set_defaults(func=_cmd_torture)

    p = sub.add_parser(
        "stats", help="render the report from a saved metrics snapshot"
    )
    p.add_argument("file", help="metrics JSON written by --metrics-out")
    p.add_argument("--top-spans", type=int, default=12,
                   help="how many probe spans to show")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser(
        "lint",
        help="domain-aware static analysis (bit-width contracts, "
             "determinism, metric catalog, hygiene, secret-taint, "
             "txn typestate, asyncio safety)",
    )
    p.add_argument("paths", nargs="*",
                   help="files/directories to lint (default: the "
                        "installed repro package)")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--changed", nargs="?", const="HEAD", default=None,
                   metavar="REF",
                   help="only report findings for files changed against "
                        "REF (default HEAD) plus untracked files; "
                        "cross-file analysis still sees the whole tree")
    p.add_argument("--baseline", metavar="FILE", default=None,
                   help="JSON baseline of grandfathered findings")
    p.add_argument("--write-baseline", metavar="FILE", default=None,
                   help="record current findings as the new baseline "
                        "and exit 0")
    p.add_argument("--list-checks", action="store_true",
                   help="list checker codes and exit")
    p.set_defaults(func=_cmd_lint)

    p = sub.add_parser(
        "serve",
        help="run the multi-tenant secure-memory service (sharded "
             "worker processes over unix sockets; Ctrl-C drains)",
    )
    p.add_argument("--root", required=True,
                   help="service root directory (sockets + tenant state)")
    p.add_argument("--shards", type=int, default=2,
                   help="worker processes to shard tenants across")
    p.add_argument("--secret-seed", type=int, default=0xDAC2018,
                   help="master secret the per-tenant keys derive from")
    p.set_defaults(func=_cmd_serve)

    def service_campaign(p, *, kill_help, json_help):
        """The flags ``loadgen`` and ``chaos`` share."""
        p.add_argument("--root", default=None,
                       help="service root (default: a temp dir, removed)")
        p.add_argument("--tenants", type=int)
        p.add_argument("--shards", type=int)
        p.add_argument("--ops", type=int, dest="ops_per_tenant",
                       metavar="OPS", help="operations per tenant")
        p.add_argument("--region-kb", type=int,
                       help="protected region per tenant in KiB")
        p.add_argument("--preset", choices=sorted(PRESETS))
        p.add_argument("--seed", type=int)
        p.add_argument("--secret-seed", type=int)
        p.add_argument("--kill-shard", type=int, help=kill_help)
        json_out(p, json_help)

    p = spec_parser(
        "loadgen",
        help="drive mixed-tenant traffic against a self-hosted service "
             "(optionally SIGKILL a shard mid-run) and verify every "
             "acknowledged write against a shadow copy",
    )
    service_campaign(
        p,
        kill_help="chaos: SIGKILL this shard mid-run and restart it",
        json_help="write the BENCH_service payload as JSON",
    )
    p.add_argument("--keystream", choices=list(keystream_backends()),
                   help="keystream backend every tenant is provisioned "
                        "with")
    p.add_argument("--rate-ops", type=_rate,
                   help="token-bucket refill rate (0 = unlimited)")
    p.add_argument("--burst-ops", type=int,
                   help="token-bucket burst ceiling (0 = unlimited)")
    p.add_argument("--max-bytes", type=int, dest="max_bytes_written",
                   metavar="MAX_BYTES",
                   help="per-tenant lifetime write-byte budget (0 = off)")
    p.set_defaults(func=_cmd_loadgen)

    p = spec_parser(
        "chaos",
        help="full-surface resilience campaign: disk faults x shard "
             "kill x induced overload x deadline probes, verified "
             "against an ambiguity-aware shadow (zero SDC, every "
             "refusal typed)",
    )
    service_campaign(
        p,
        kill_help="SIGKILL this shard once mid-run, then restart",
        json_help="write the BENCH_chaos payload as JSON",
    )
    p.add_argument("--fault-rate", type=float,
                   help="background disk-fault rate per fs step")
    p.add_argument("--boost-rate", type=float,
                   help="boosted fault rate for the victim tenant")
    p.add_argument("--degraded-after", type=int,
                   help="storage faults before a tenant degrades")
    p.add_argument("--queue-depth", type=int, dest="max_queue_depth",
                   metavar="QUEUE_DEPTH",
                   help="per-shard dispatch queue bound (overload)")
    p.add_argument("--overload-probes", type=int,
                   help="concurrent raw connections in the overload burst")
    p.add_argument("--deadline-probes", type=int,
                   help="requests sent with deadline_ms=0")
    p.add_argument("--health-out", metavar="FILE", default=None,
                   help="write the final /health snapshots as JSON")
    p.set_defaults(func=_cmd_chaos)

    p = sub.add_parser("trace", help="generate a workload trace file")
    p.add_argument("app", choices=app_choices)
    p.add_argument("output", help="output path (.trc.gz)")
    common(p)
    p.add_argument("--accesses", type=int, default=100_000)
    p.add_argument("--core", type=int, default=0)
    p.set_defaults(func=_cmd_trace)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    with _observe(args):
        result = args.func(args)
    return result


if __name__ == "__main__":
    sys.exit(main())
