#!/usr/bin/env python
"""Performance-regression gate for the batched kernel path.

Usage::

    PYTHONPATH=src python scripts/perf_gate.py [--min-speedup 5.0]

Times the same figure-8-style workload twice:

* **scalar baseline** -- every write-back and read-back issued one at a
  time through ``SecureMemory.write`` / ``SecureMemory.read``, single
  process;
* **batched** -- the identical operation stream through
  ``BatchSecureMemory`` in ``fast`` mode, applications sharded across
  worker processes (``repro bench`` semantics).

Both runs use the ``fast`` keystream backend (real AES, numpy-batched)
so the hot loop is the actual AES round function -- the path the batch
kernels exist to accelerate -- and both verify their read-backs, so
neither side can win by skipping work.  The measured speedup is recorded in ``BENCH_perf.json`` and the
script exits non-zero if it falls below the floor (default 5x, the
acceptance criterion), making a perf regression a red build instead of
a silent slowdown.

The gate also ratchets the **AES-NI floor**: the ``aesni`` backend
(hardware AES via ``cryptography``) must beat the ``fast`` numpy
backend by ``--min-aesni-speedup`` on the keystream kernel itself (the
keystream-bound probe: batched pad generation over thousands of
nonces).  When the ``cryptography`` package is absent the probe is
skipped with a notice (the backend is environment-gated, not optional
where available).  That the two backends compute the same engine state
is checked elsewhere: by the tier-1 backend differential tests and by
the perf study's digest agreement.

The gate also probes **group-commit amortization**: the same write
stream runs batched without durability, batched with durability (one
journal transaction per flushed write run), and scalar with durability
(one transaction per write).  Group commit must keep the durable
batched path under ``--max-durable-overhead`` (default 2x) of the
non-durable batched path -- the whole point of sealing one frame per
flush is that journaling cannot double the cost of the fast path.  Each
batched side is timed as the median of ``GROUP_COMMIT_RUNS`` runs,
interleaved so that a slow spell of the host hits both sides; every
sample is recorded.

Wall-clock numbers vary across hosts; the committed ``BENCH_perf.json``
is a recorded baseline for comparison, not a byte-reproducible
artifact like the ``repro bench`` payloads.
"""

from __future__ import annotations

import argparse
import pathlib
import statistics
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.engine.config import preset  # noqa: E402
from repro.core.engine.secure_memory import SecureMemory  # noqa: E402
from repro.fast.batch_memory import BatchSecureMemory  # noqa: E402
from repro.harness.parallel import (  # noqa: E402
    BENCH_SCHEMA,
    BenchSpec,
    app_key,
    run_bench,
    writeback_stream,
)
from repro.harness.reporting import dump_json  # noqa: E402
from repro.fast.backends import resolve_backend  # noqa: E402
from repro.harness.runner import BLOCK_BYTES  # noqa: E402
from repro.obs.metrics import MetricRegistry, use_registry  # noqa: E402

DEFAULT_APPS = ("canneal", "dedup", "facesim", "ferret")

#: timed runs per side of the group-commit probe (the median is gated)
GROUP_COMMIT_RUNS = 5


def run_scalar_baseline(spec: BenchSpec) -> float:
    """One-at-a-time scalar engine replay; returns wall-clock seconds."""
    started = time.perf_counter()
    for app in sorted(spec.apps):
        registry = MetricRegistry()
        with use_registry(registry):
            workload, _ = writeback_stream(app, spec)
            config = preset(
                spec.preset,
                protected_bytes=spec.region_mb * 1024 * 1024,
                keystream_mode=spec.keystream,
            )
            engine = SecureMemory(config, app_key(app, spec.seed))
            latest: dict[int, bytes] = {}
            for block, payload in workload:
                engine.write(block * BLOCK_BYTES, payload)
                latest[block] = payload
            for block in sorted(latest):
                result = engine.read(block * BLOCK_BYTES)
                if result.data != latest[block]:
                    raise AssertionError(
                        f"scalar read-back mismatch: {app} block {block}"
                    )
    return time.perf_counter() - started


def run_batched(spec: BenchSpec, workers: int) -> tuple[float, dict]:
    started = time.perf_counter()
    report = run_bench(spec, workers=workers)
    elapsed = time.perf_counter() - started
    if not report.ok:
        raise AssertionError("batched bench failed its read-back check")
    return elapsed, report.to_json()


def run_aesni_probe(spec: BenchSpec, nonces: int = 4096,
                    repeats: int = 5) -> dict:
    """Keystream-kernel speedup of aesni over fast.

    The gated number is the *kernel* speedup -- batched 64-byte pad
    generation over ``nonces`` nonces, the keystream-bound inner loop --
    because an end-to-end bench ratio is diluted by everything that is
    not keystream work (tree walks, queue bookkeeping).
    """
    counters = list(range(1, nonces + 1))
    addresses = [i * BLOCK_BYTES for i in range(nonces)]
    key = app_key("aesni-probe", spec.seed)[:16]
    kernel_seconds = {}
    for name in ("fast", "aesni"):
        engine = resolve_backend(name).build(key)
        engine.pads(counters[:8], addresses[:8])  # warm up
        started = time.perf_counter()
        for _ in range(repeats):
            engine.pads(counters, addresses)
        kernel_seconds[name] = time.perf_counter() - started
    kernel_speedup = (
        kernel_seconds["fast"] / kernel_seconds["aesni"]
        if kernel_seconds["aesni"]
        else 0.0
    )
    return {
        "nonces": nonces,
        "repeats": repeats,
        "kernel_fast_seconds": round(kernel_seconds["fast"], 4),
        "kernel_aesni_seconds": round(kernel_seconds["aesni"], 4),
        "kernel_speedup": round(kernel_speedup, 2),
    }


def run_group_commit_probe(spec: BenchSpec, chunk: int = 32) -> dict:
    """Time one app's write stream three ways; returns the comparison.

    All three runs verify a final read-back sweep so no side wins by
    dropping work.  Durability uses the default cadence, so the scalar
    side seals (and checkpoints) per write while group commit seals one
    frame per ``chunk`` -- the amortization being measured.  The two
    batched sides alternate for ``GROUP_COMMIT_RUNS`` rounds and each is
    timed as its median; the scalar side runs once.
    """
    from repro.persist.config import DurabilityConfig

    app = sorted(spec.apps)[0]
    workload, _ = writeback_stream(app, spec)
    key = app_key(app, spec.seed)

    def build_engine(durable):
        config = preset(
            spec.preset,
            protected_bytes=spec.region_mb * 1024 * 1024,
            keystream_mode=spec.keystream,
        )
        durability = DurabilityConfig() if durable else None
        return SecureMemory(config, key, durability=durability)

    def verify(engine):
        latest = {}
        for block, payload in workload:
            latest[block] = payload
        for block in sorted(latest):
            result = engine.read(block * BLOCK_BYTES)
            if result.data != latest[block]:
                raise AssertionError(
                    f"group-commit probe read-back mismatch: block {block}"
                )

    def batched(durable):
        registry = MetricRegistry()
        with use_registry(registry):
            engine = build_engine(durable)
            batch = BatchSecureMemory(engine)
            started = time.perf_counter()
            for start in range(0, len(workload), chunk):
                for block, payload in workload[start : start + chunk]:
                    batch.queue_write(block * BLOCK_BYTES, payload)
                batch.flush()
            elapsed = time.perf_counter() - started
            verify(engine)
        return elapsed, registry.snapshot().totals()

    def scalar_durable():
        registry = MetricRegistry()
        with use_registry(registry):
            engine = build_engine(durable=True)
            started = time.perf_counter()
            for block, payload in workload:
                engine.write(block * BLOCK_BYTES, payload)
            elapsed = time.perf_counter() - started
            verify(engine)
        return elapsed

    samples: dict[bool, list[float]] = {False: [], True: []}
    for _ in range(GROUP_COMMIT_RUNS):
        for durable in (False, True):
            elapsed, totals = batched(durable)
            samples[durable].append(elapsed)
    nondurable_seconds = statistics.median(samples[False])
    durable_seconds = statistics.median(samples[True])
    scalar_seconds = scalar_durable()
    # every durable run commits the same stream; the last run is durable
    txns = totals.get("persist.group_commit.txns", 0)
    writes = totals.get("persist.group_commit.writes", 0)
    return {
        "app": app,
        "writes": len(workload),
        "flush_chunk": chunk,
        "runs": GROUP_COMMIT_RUNS,
        "batched_nondurable_samples": [round(t, 3) for t in samples[False]],
        "batched_durable_samples": [round(t, 3) for t in samples[True]],
        "batched_nondurable_seconds": round(nondurable_seconds, 3),
        "batched_durable_seconds": round(durable_seconds, 3),
        "scalar_durable_seconds": round(scalar_seconds, 3),
        # journaling tax on the fast path (the gated number)
        "overhead_ratio": round(
            durable_seconds / nondurable_seconds if nondurable_seconds
            else 0.0,
            2,
        ),
        # how much group commit beats one-txn-per-write durability
        "amortization_ratio": round(
            scalar_seconds / durable_seconds if durable_seconds else 0.0,
            2,
        ),
        "group_commit_txns": txns,
        "writes_per_txn": round(writes / txns, 1) if txns else 0.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--apps", nargs="+", default=list(DEFAULT_APPS))
    parser.add_argument("--accesses", type=int, default=8_000)
    parser.add_argument("--region-mb", type=int, default=4)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--min-speedup", type=float, default=5.0)
    parser.add_argument(
        "--min-aesni-speedup",
        type=float,
        default=4.0,
        help="floor on the aesni-vs-fast keystream kernel speedup",
    )
    parser.add_argument(
        "--max-durable-overhead",
        type=float,
        default=2.0,
        help="ceiling on batched-durable / batched-nondurable wall clock",
    )
    parser.add_argument(
        "--json-out", default=str(REPO_ROOT / "BENCH_perf.json")
    )
    args = parser.parse_args(argv)

    spec = BenchSpec(
        apps=tuple(args.apps),
        mode="fast",
        accesses=args.accesses,
        region_mb=args.region_mb,
        seed=args.seed,
        keystream="fast",
    )
    scalar_seconds = run_scalar_baseline(spec)
    batched_seconds, bench_payload = run_batched(spec, args.workers)
    speedup = scalar_seconds / batched_seconds if batched_seconds else 0.0
    passed = speedup >= args.min_speedup

    blocks = sum(
        result["writebacks"] for result in bench_payload["results"].values()
    )
    print(
        f"perf_gate: scalar {scalar_seconds:.2f}s, batched "
        f"(workers={args.workers}) {batched_seconds:.2f}s over {blocks} "
        f"write-backs: {speedup:.1f}x speedup "
        f"(floor {args.min_speedup:.1f}x) -> "
        f"{'PASS' if passed else 'FAIL'}"
    )

    aesni_backend = resolve_backend("aesni")
    aesni_error = aesni_backend.availability_error()
    if aesni_error is None:
        aesni = run_aesni_probe(spec)
        aesni_passed = aesni["kernel_speedup"] >= args.min_aesni_speedup
        aesni["min_aesni_speedup"] = args.min_aesni_speedup
        aesni["pass"] = aesni_passed
        print(
            f"perf_gate: aesni kernel {aesni['kernel_speedup']:.1f}x the "
            f"fast numpy backend over {aesni['nonces']} nonces (floor "
            f"{args.min_aesni_speedup:.1f}x) -> "
            f"{'PASS' if aesni_passed else 'FAIL'}"
        )
    else:
        aesni = {"skipped": aesni_error}
        aesni_passed = True
        print(f"perf_gate: aesni probe SKIPPED: {aesni_error}")

    group_commit = run_group_commit_probe(spec)
    gc_passed = group_commit["overhead_ratio"] < args.max_durable_overhead
    group_commit["max_durable_overhead"] = args.max_durable_overhead
    group_commit["pass"] = gc_passed
    print(
        f"perf_gate: group commit ({group_commit['app']}, "
        f"{group_commit['writes']} writes / "
        f"{group_commit['group_commit_txns']} txns): durable batched "
        f"{group_commit['overhead_ratio']:.2f}x non-durable, median of "
        f"{group_commit['runs']} runs each (ceiling "
        f"{args.max_durable_overhead:.1f}x), "
        f"{group_commit['amortization_ratio']:.2f}x faster than "
        f"per-write txns -> {'PASS' if gc_passed else 'FAIL'}"
    )

    payload = {
        "schema": BENCH_SCHEMA,
        "bench": "perf",
        "config": {
            **spec.config_dict(),
            "workers": args.workers,
            "min_speedup": args.min_speedup,
            "min_aesni_speedup": args.min_aesni_speedup,
            "max_durable_overhead": args.max_durable_overhead,
        },
        "results": {
            "scalar_seconds": round(scalar_seconds, 3),
            "batched_seconds": round(batched_seconds, 3),
            "speedup": round(speedup, 2),
            "writebacks": blocks,
            "pass": passed,
            "aesni": aesni,
            "group_commit": group_commit,
        },
        "metrics": bench_payload["metrics"],
    }
    path = dump_json(payload, args.json_out)
    print(f"perf_gate: wrote {path}")
    gates = (passed, aesni_passed, gc_passed)
    return 0 if all(gates) else 1


if __name__ == "__main__":
    sys.exit(main())
