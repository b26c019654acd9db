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
import time
from contextlib import contextmanager
from dataclasses import MISSING, fields, is_dataclass, replace
from functools import partial
from typing import Any, Callable, NamedTuple

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
from repro.harness.reporting import dump_json, format_table
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


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _checked(parse: Callable[[str], Any]) -> Callable[[str], str]:
    """An argparse ``type`` that keeps the token once ``parse`` accepts
    it; ``parse``'s ``ValueError`` becomes a usage error."""

    def check(token: str) -> str:
        try:
            parse(token)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return token

    return check


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


def _run_spec(parser, command, args) -> int:
    """The one handler of the spec-backed commands: build the spec from
    the flags, run it, print the report, write its ``--json-out``
    artifact, and exit on its verdict.  A value the spec rejects is a
    usage error (exit 2), like a flag argparse itself rejects."""
    try:
        spec = _spec(command.spec, args)
    except ValueError as exc:
        parser.error(str(exc))
    if getattr(args, "point", None) is not None:
        # ``crash --point``: replay one crash, bit for bit the matrix's.
        outcome = run_point(spec, parse_point(args.point))
        print(json.dumps(outcome.to_json(), indent=2, sort_keys=True))
        return 0 if outcome.clean else 1
    report = command.run(spec, args)
    print(report.format_summary())
    _dump(report.to_json(), args.json_out, f"{args.command} report")
    return 0 if report.ok else 1


def _chaos(spec, args):
    report = run_chaos(spec, args.root)
    _dump(report.health, args.health_out, "/health snapshots")
    return report


class SpecCommand(NamedTuple):
    """One row of the spec-command table.

    ``run(spec, args)`` returns a report with ``format_summary()``,
    ``to_json()`` and ``ok``.  A flag row without a ``default`` parses
    straight into the spec field it names (:func:`_spec`).
    """

    spec: type
    run: Callable[[Any, argparse.Namespace], Any]
    help: str
    flags: tuple[tuple[str, dict], ...]


def _flag(name: str, **kwargs) -> tuple[str, dict]:
    """One flag row: the arguments of ``parser.add_argument``."""
    return name, kwargs


def _add_flags(parser, flags) -> None:
    for name, kwargs in flags:
        parser.add_argument(name, **kwargs)


def _app_choices() -> list[str]:
    return table2_apps() + sorted(MICRO_PROFILES)


def _apps(**kwargs) -> tuple[str, dict]:
    return _flag("--apps", nargs="+", choices=_app_choices(), metavar="APP",
                 **kwargs)


def _json_out(help: str) -> tuple[str, dict]:
    return _flag("--json-out", metavar="FILE", default=None, help=help)


OBS_FLAGS = (
    _flag("--trace-out", metavar="FILE", default=None,
          help="write a Chrome trace-event JSON (open in "
               "Perfetto / chrome://tracing)"),
    _flag("--metrics-out", metavar="FILE", default=None,
          help="write the run's metrics snapshot as JSON"),
    _flag("--stats", action="store_true", default=False,
          help="print the stats report after the exhibit"),
)


def spec_commands() -> dict[str, SpecCommand]:
    """The spec-backed commands, one row each.  Built per parser, so the
    keystream choices follow the backend registry."""
    keystreams = list(keystream_backends())
    mode = _checked(parse_mode)
    # flags that several commands declare alike: same flag, same help
    preset_ = _flag("--preset", choices=sorted(PRESETS))
    seed = _flag("--seed", type=int)
    groups = _flag("--groups", type=int, dest="group_count", metavar="GROUPS",
                   help="counter block-groups in the protected region")
    ce_threshold = _flag("--ce-threshold", type=int,
                         help="correctable errors before a block is retired")
    fault_rates = (
        _flag("--transient-rate", type=_rate,
              help="transient SEUs per operation (Poisson rate)"),
        _flag("--stuck-rate", type=_rate,
              help="stuck-at cell faults per operation"),
        _flag("--burst-rate", type=_rate,
              help="row-burst events per operation"),
    )
    service = (
        _flag("--root", default=None,
              help="service root (default: a temp dir, removed)"),
        _flag("--tenants", type=int),
        _flag("--shards", type=int),
        _flag("--ops", type=int, dest="ops_per_tenant", metavar="OPS",
              help="operations per tenant"),
        _flag("--region-kb", type=int,
              help="protected region per tenant in KiB"),
        preset_,
        seed,
        _flag("--secret-seed", type=int),
    )
    return {
        "bench": SpecCommand(
            BenchSpec,
            lambda spec, args: run_bench(spec, workers=args.workers),
            "parallel batched-engine benchmark (merged BENCH JSON is "
            "byte-identical for any --workers count on the same seed)",
            (
                _flag("--region-mb", type=int,
                      help="protected region size in MiB"),
                seed,
                _apps(default=figure8_apps()),
                _flag("--workers", type=_positive, default=1,
                      help="worker processes to shard applications across"),
                _flag("--mode", type=mode,
                      help="kernel verification: fast, paranoid (cross-"
                           "check every kernel call against its scalar "
                           "reference) or sampled:N (1-in-N calls on a "
                           "seeded deterministic schedule)"),
                _flag("--accesses", type=int, help="trace accesses per core"),
                preset_,
                _flag("--keystream", choices=keystreams,
                      help="keystream backend (reference/fast/aesni run "
                           "real AES with different execution strategies; "
                           "splitmix is the simulation PRF)"),
                _json_out("write the merged bench payload as JSON"),
            ),
        ),
        "study": SpecCommand(
            StudySpec,
            lambda spec, args: run_study(spec),
            "perf-study sweep over keystream x mode x workers x preset "
            "flavors (BENCH_study.json comparison artifact)",
            (
                _apps(),
                _flag("--accesses", type=int,
                      help="trace accesses per core, per flavor"),
                _flag("--region-mb", type=int),
                _flag("--cores", type=int),
                seed,
                _flag("--keystreams", nargs="+", choices=keystreams,
                      metavar="BACKEND",
                      help="keystream backends to sweep (unavailable ones "
                           "are skipped and recorded)"),
                _flag("--modes", nargs="+", type=mode, metavar="MODE",
                      help="kernel-mode tokens: fast, paranoid, or "
                           "sampled:N"),
                _flag("--workers-list", nargs="+", type=int, dest="workers",
                      metavar="N", help="worker counts to sweep"),
                _flag("--presets", nargs="+", choices=sorted(PRESETS),
                      metavar="PRESET"),
                _json_out("write the study payload as JSON (e.g. "
                          "BENCH_study.json)"),
            ),
        ),
        "resilience": SpecCommand(
            CampaignSpec,
            lambda spec, args: run_campaign(spec),
            "fault campaign with retry recovery and block quarantine",
            (
                preset_,
                _flag("--region-kb", type=int,
                      help="protected region size in KiB"),
                _flag("--operations", type=int),
                seed,
                _flag("--spare-blocks", type=int,
                      help="blocks reserved for quarantine remapping"),
                ce_threshold,
                _flag("--max-retries", type=int,
                      help="re-reads before escalating to flip-and-check"),
                *fault_rates,
                _flag("--write-fraction", type=float),
                _flag("--scrub-interval", type=int,
                      help="operations between scrub sweeps (0 disables)"),
                _json_out("write the campaign report (including the seed) "
                          "as a JSON artifact"),
                *OBS_FLAGS,
            ),
        ),
        "crash": SpecCommand(
            CrashSimSpec,
            lambda spec, args: run_matrix(
                spec, limit=args.limit, stride=args.stride
            ),
            "crash-point injection matrix over the journaled engine "
            "(exhaustive by default; --point replays one crash)",
            (
                preset_,
                _flag("--ops", type=int,
                      help="writes in the recorded workload"),
                seed,
                groups,
                _flag("--blocks", type=int, dest="workload_blocks",
                      metavar="BLOCKS",
                      help="distinct addresses the workload touches"),
                _flag("--checkpoint-interval", type=int,
                      help="commits between epoch checkpoints"),
                _flag("--batch", type=int,
                      help="writes per group-commit flush (0 = scalar "
                           "per-write transactions)"),
                _flag("--resilient", action="store_true",
                      help="compose the resilience layer into the workload "
                           "(stuck faults, journaled retirement, degrade)"),
                _flag("--spare-blocks", type=int,
                      help="quarantine spare pool size (with --resilient)"),
                _flag("--ce-threshold", type=int,
                      help="CEs before retirement (with --resilient)"),
                _flag("--point", type=_checked(parse_point), default=None,
                      metavar="STEP[:PHASE]",
                      help="replay a single crash point (PHASE: skip|torn) "
                           "instead of the matrix"),
                _flag("--limit", type=_positive, default=None,
                      help="bound the matrix to N points (CI smoke)"),
                _flag("--stride", type=_positive, default=1,
                      help="run every Nth point of the matrix"),
                _json_out("write the matrix report as a JSON artifact"),
            ),
        ),
        "torture": SpecCommand(
            TortureSpec,
            lambda spec, args: run_torture(spec, limit=args.limit),
            "combined crash x fault campaign over the composed stack "
            "(group-commit traffic, Poisson faults, a crash-recovery "
            "cycle per cycle, shadow-model verification)",
            (
                preset_,
                _flag("--cycles", type=int,
                      help="crash-recovery cycles to run"),
                _flag("--ops", type=int, dest="ops_per_cycle", metavar="OPS",
                      help="traffic operations per cycle"),
                _flag("--batch", type=int,
                      help="writes per group-commit flush"),
                seed,
                groups,
                _flag("--checkpoint-every", type=int,
                      help="cycles between explicit checkpoints (telemetry "
                           "durability cadence)"),
                _flag("--spare-blocks", type=int,
                      help="quarantine spare pool size"),
                ce_threshold,
                *fault_rates,
                _flag("--limit", type=_positive, default=None,
                      help="bound the run to N cycles (CI smoke)"),
                _json_out("write the torture report as a JSON artifact"),
            ),
        ),
        "loadgen": SpecCommand(
            LoadgenSpec,
            lambda spec, args: run_loadgen(spec, args.root),
            "drive mixed-tenant traffic against a self-hosted service "
            "(optionally SIGKILL a shard mid-run) and verify every "
            "acknowledged write against a shadow copy",
            (
                *service,
                _flag("--kill-shard", type=int,
                      help="chaos: SIGKILL this shard mid-run and restart "
                           "it"),
                _json_out("write the BENCH_service payload as JSON"),
                _flag("--keystream", choices=keystreams,
                      help="keystream backend every tenant is provisioned "
                           "with"),
                _flag("--rate-ops", type=_rate,
                      help="token-bucket refill rate (0 = unlimited)"),
                _flag("--burst-ops", type=int,
                      help="token-bucket burst ceiling (0 = unlimited)"),
                _flag("--max-bytes", type=int, dest="max_bytes_written",
                      metavar="MAX_BYTES",
                      help="per-tenant lifetime write-byte budget (0 = off)"),
            ),
        ),
        "chaos": SpecCommand(
            ChaosSpec,
            _chaos,
            "full-surface resilience campaign: disk faults x shard kill x "
            "induced overload x deadline probes, verified against an "
            "ambiguity-aware shadow (zero SDC, every refusal typed)",
            (
                *service,
                _flag("--kill-shard", type=int,
                      help="SIGKILL this shard once mid-run, then restart"),
                _json_out("write the BENCH_chaos payload as JSON"),
                _flag("--fault-rate", type=float,
                      help="background disk-fault rate per fs step"),
                _flag("--boost-rate", type=float,
                      help="boosted fault rate for the victim tenant"),
                _flag("--degraded-after", type=int,
                      help="storage faults before a tenant degrades"),
                _flag("--queue-depth", type=int, dest="max_queue_depth",
                      metavar="QUEUE_DEPTH",
                      help="per-shard dispatch queue bound (overload)"),
                _flag("--overload-probes", type=int,
                      help="concurrent raw connections in the overload "
                           "burst"),
                _flag("--deadline-probes", type=int,
                      help="requests sent with deadline_ms=0"),
                _flag("--health-out", metavar="FILE", default=None,
                      help="write the final /health snapshots as JSON"),
            ),
        ),
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = spec_commands()

    def spec_command(name):
        """Add the table's row ``name`` where it sits in ``--help``'s
        command order.  A flag without an explicit default is absent from
        ``args`` unless given, so the spec keeps its own default (see
        :func:`_spec`)."""
        command = commands[name]
        p = sub.add_parser(name, help=command.help,
                           argument_default=argparse.SUPPRESS)
        _add_flags(p, command.flags)
        p.set_defaults(func=partial(_run_spec, p, command))

    def common(p, default_region=32):
        p.add_argument("--region-mb", type=int, default=default_region,
                       help="protected region size in MiB")
        p.add_argument("--seed", type=int, default=1)

    p = sub.add_parser("table2", help="re-encryption rates (Table 2)")
    common(p)
    _add_flags(p, [_apps(default=table2_apps())])
    p.add_argument("--accesses", type=int, default=600_000,
                   help="trace accesses per core")
    _add_flags(p, OBS_FLAGS)
    p.set_defaults(func=_cmd_table2)

    p = sub.add_parser("figure8", help="normalized IPC (Figure 8)")
    common(p, default_region=128)
    _add_flags(p, [_apps(default=figure8_apps())])
    p.add_argument("--accesses", type=int, default=60_000)
    _add_flags(p, OBS_FLAGS)
    p.set_defaults(func=_cmd_figure8)

    spec_command("bench")
    spec_command("study")

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

    spec_command("resilience")
    spec_command("crash")
    spec_command("torture")

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

    spec_command("loadgen")
    spec_command("chaos")

    p = sub.add_parser("trace", help="generate a workload trace file")
    p.add_argument("app", choices=_app_choices())
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
