"""Benchmark entry point.

Run one workload (what ``BENCHMARK.json``'s command does)::

    python3 bench/run.py --workload scatter --seed 1 --seconds 20 --trace 0

prints ``workload metric value unit`` lines, then one JSON object as the
last line: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  Run every workload, each in a fresh
subprocess, and write all records to ``<out>/results.json``::

    python3 bench/run.py [--trace 1] [--repeat N] [--out DIR]

Compare two result files metric by metric under the bounds::

    python3 bench/run.py compare BASE.json NEW.json

Regenerate the pinned seed-1 input hashes and state digests (the
engine state digests are computed in paranoid mode, which cross-checks
every batch kernel against its scalar reference)::

    python3 bench/run.py pin

Exit status: 0 when every output checked out; 1 on a wrong output, a
failed operation or a pin mismatch; 3 when the traced run leaves more
than 10% of its time unattributed (see ``bench/README.md``).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
if not (ROOT / "src" / "repro" / "__init__.py").is_file():
    sys.exit(f"bench: no repro sources under {ROOT / 'src'}")
# Import the checkout's own sources, never an installed copy; and drop
# this script's directory so bench modules import only as ``bench.*``.
sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]

from bench import report, suite  # noqa: E402
from bench.workloads import WORKLOADS, EngineWorkload, inputs_for  # noqa: E402

DEFAULT_OUT = ".bench_out"


def main_one(args) -> int:
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    record = suite.run_workload(
        WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), out
    )
    suite.write_runs(out / f"{args.workload}.json", [record])
    for line in report.metric_lines(record):
        print(line)
    print(suite.last_line(record), flush=True)
    return suite.exit_status(record)


def main_all(args) -> int:
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    runs: list[dict] = []
    status = 0
    for _ in range(args.repeat):
        for name in WORKLOADS:
            command = [
                sys.executable, str(pathlib.Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--out", str(out),
            ]
            record_path = out / f"{name}.json"
            record_path.unlink(missing_ok=True)
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            if done.returncode not in (0, 1, 3) or not record_path.is_file():
                sys.stdout.write(done.stdout)
                print(f"bench: {name} exited {done.returncode}", file=sys.stderr)
                return done.returncode or 1
            record = report.load_runs(record_path)[0]
            record_path.unlink()
            runs.append(record)
            for line in report.metric_lines(record):
                print(line, flush=True)
            status = status or done.returncode
    path = out / "results.json"
    suite.write_runs(path, runs)
    print(f"bench: {len(runs)} runs written to {path}")
    return status


def main_compare(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="run.py compare")
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    table = report.metric_table(report.load_spec())
    rows = report.compare(
        report.load_runs(args.base), report.load_runs(args.new), table
    )
    for line in report.compare_lines(rows):
        print(line)
    counts: dict[str, int] = {}
    for row in rows:
        counts[row["verdict"]] = counts.get(row["verdict"], 0) + 1
    print("bench: " + ", ".join(f"{n} {v}" for v, n in sorted(counts.items())))
    return 0


def main_pin() -> int:
    from bench.engine import build, calls_for, timed_pass

    seed = 1
    pins: dict = {"seed": seed, "workloads": {}}
    for name, workload in WORKLOADS.items():
        inputs = inputs_for(workload, seed)
        entry = {"input_sha256": inputs.sha256()}
        if isinstance(workload, EngineWorkload):
            result = timed_pass(
                build(workload, seed, mode="paranoid"), calls_for(inputs)
            )
            if result.mismatches:
                print(f"bench: {name}: {result.mismatches} mismatches", file=sys.stderr)
                return 1
            entry["state_digest"] = result.digest
        pins["workloads"][name] = entry
        print(f"bench: pinned {name}: {entry}", flush=True)
    suite.PINS_PATH.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    return 0


def main(argv: list[str]) -> int:
    if argv[:1] == ["compare"]:
        return main_compare(argv[1:])
    # --out is relative to the checkout root, which keeps the service's
    # socket paths short (AF_UNIX caps them near 100 bytes).
    os.chdir(ROOT)
    if argv[:1] == ["pin"]:
        return main_pin()
    spec = report.load_spec()
    parser = argparse.ArgumentParser(prog="run.py")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=DEFAULT_OUT)
    parser.add_argument(
        "--repeat", type=int, default=1, help="runs per workload (all workloads)"
    )
    args = parser.parse_args(argv)
    if args.workload is not None:
        return main_one(args)
    return main_all(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
