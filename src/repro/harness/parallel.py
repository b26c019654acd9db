"""Parallel benchmark runner: shard applications across worker processes.

``repro bench`` replays each application's DRAM write-back stream (the
same :class:`~repro.harness.runner.WritebackFilter` stream that drives
Table 2) through a functional :class:`SecureMemory` engine wrapped in the
:class:`~repro.fast.batch_memory.BatchSecureMemory` facade, then reads
every written block back and checks the payloads round-tripped.  Each
application runs under its own fresh :class:`MetricRegistry`; the
per-app registries are merged into one ``BENCH_*.json``-shaped payload.

Each task is ``(app, spec)``: the worker generates its own app's trace,
so trace generation runs in parallel with the other apps' replays.

Determinism contract (pinned by ``tests/fast/test_parallel_bench.py``):
the merged payload is **byte-identical** for any worker count on the
same seed.  Three rules keep it that way:

* apps are independent -- each app's whole world (traces, engine, key)
  is derived from ``(app, seed)`` alone, never from shared state;
* the payload carries no wall-clock, PID, hostname or worker count;
* every dict in the payload is emitted with sorted keys.

``workers=1`` runs inline (no pool), so single-process debugging hits
the exact same code path the pool workers execute.
"""

from __future__ import annotations

import hashlib
import multiprocessing
from dataclasses import asdict, dataclass

from repro.core.engine.config import preset
from repro.core.engine.secure_memory import SecureMemory
from repro.fast.batch_memory import BatchSecureMemory
from repro.harness.reporting import format_table
from repro.harness.runner import BLOCK_BYTES, WritebackFilter
from repro.obs.metrics import MetricRegistry, use_registry
from repro.workloads import resolve_profile

BENCH_SCHEMA = "repro.bench/1"

#: writes/reads per batch flush -- large enough to amortize the batched
#: kernels, small enough to keep peak memory flat.
FLUSH_CHUNK = 256


@dataclass(frozen=True)
class BenchSpec:
    """Everything that determines one bench run's payload (and nothing
    that doesn't -- the worker count is deliberately absent)."""

    apps: tuple = ()
    mode: str = "fast"
    accesses: int = 20_000
    region_mb: int = 8
    cores: int = 4
    seed: int = 1
    preset: str = "combined"
    keystream: str = "splitmix"

    def __post_init__(self) -> None:
        for name in ("accesses", "region_mb", "cores"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")

    def config_dict(self) -> dict:
        return {**asdict(self), "apps": sorted(self.apps)}


def app_key(app: str, seed: int) -> bytes:
    """48-byte engine key derived from (app, seed) alone."""
    return hashlib.sha384(f"repro.bench/{app}/{seed}".encode()).digest()


def writeback_stream(
    app: str, spec: BenchSpec
) -> tuple[list[tuple[int, bytes]], int]:
    """The (block, payload) write-back stream ``app`` replays under
    ``spec``, and the instructions its traces retire.

    Each payload is a deterministic 64-byte function of (app, seed,
    block, position in the stream).  The LLC filter counts its lookups
    in the current registry, so call this inside the run's registry
    scope.
    """
    region_blocks = spec.region_mb * 1024 * 1024 // BLOCK_BYTES
    traces = resolve_profile(app).traces(
        spec.accesses, region_blocks, spec.cores, spec.seed
    )
    writebacks, instructions = WritebackFilter().filter(traces)
    stream = [
        (
            block,
            hashlib.sha512(
                f"{app}/{spec.seed}/{block}/{sequence}".encode()
            ).digest(),
        )
        for sequence, block in enumerate(writebacks)
    ]
    return stream, instructions


def merge_totals(totals: list[dict[str, int]]) -> dict[str, int]:
    """Sum metric-total dicts into one, with deterministically sorted keys.

    The merge discipline every multi-worker payload in this repo uses:
    values summed per name, keys emitted sorted, so the merged dict is
    byte-identical for any worker count or arrival order.
    """
    merged: dict[str, int] = {}
    for part in totals:
        for name in part:
            merged[name] = merged.get(name, 0) + part[name]
    return {name: merged[name] for name in sorted(merged)}


def state_digest(engine: SecureMemory) -> str:
    """Hash of the engine's externally observable end state.

    Two runs that produce the same digest wrote bit-identical
    ciphertexts, counter metadata and tree root -- the strongest
    cross-worker / cross-mode equivalence signal one number can carry.
    """
    h = hashlib.sha256()
    for block in sorted(engine.ciphertexts):
        h.update(int(block).to_bytes(8, "little"))
        h.update(engine.ciphertexts[block])
    for group in sorted(engine.counter_storage):
        h.update(int(group).to_bytes(8, "little"))
        h.update(engine.counter_storage[group])
    h.update(engine.tree.root_digest().to_bytes(32, "little"))
    return h.hexdigest()


def run_app(app: str, spec: BenchSpec) -> tuple[dict, dict]:
    """Run one application; returns (app results, metric totals).

    The app's write-back stream is generated here, under this app's
    registry (the LLC filter cache counts its lookups).
    """
    registry = MetricRegistry()
    with use_registry(registry):
        stream, instructions = writeback_stream(app, spec)
        config = preset(
            spec.preset,
            protected_bytes=spec.region_mb * 1024 * 1024,
            keystream_mode=spec.keystream,
        )
        engine = SecureMemory(config, app_key(app, spec.seed))
        batch = BatchSecureMemory(engine, mode=spec.mode)

        payloads: dict[int, bytes] = {}
        for start in range(0, len(stream), FLUSH_CHUNK):
            chunk = stream[start : start + FLUSH_CHUNK]
            payloads.update(chunk)
            batch.write_many(
                [(block * BLOCK_BYTES, data) for block, data in chunk]
            )

        mismatches = 0
        written = sorted(payloads)
        for start in range(0, len(written), FLUSH_CHUNK):
            chunk = written[start : start + FLUSH_CHUNK]
            results = batch.read_many(
                [block * BLOCK_BYTES for block in chunk]
            )
            for block, result in zip(chunk, results):
                if result.data != payloads[block]:
                    mismatches += 1

        app_results = {
            "instructions": instructions,
            "writebacks": len(stream),
            "unique_blocks": len(written),
            "readback_mismatches": mismatches,
            "state_digest": state_digest(engine),
        }
    return app_results, registry.snapshot().totals()


@dataclass(frozen=True)
class BenchReport:
    """One bench run: the merged payload (:meth:`to_json`), its summary
    table and its verdict.  ``workers`` is only shown in the title; the
    payload never carries it."""

    payload: dict
    workers: int

    @property
    def ok(self) -> bool:
        """Every block read back and no kernel call diverged from its
        scalar reference."""
        mismatches = sum(
            res["readback_mismatches"]
            for res in self.payload["results"].values()
        )
        divergences = self.payload["metrics"].get(
            "fast.paranoid.divergence", 0
        )
        return not mismatches and not divergences

    def to_json(self) -> dict:
        return self.payload

    def format_summary(self) -> str:
        rows = [
            [
                app,
                res["writebacks"],
                res["unique_blocks"],
                res["readback_mismatches"],
                res["state_digest"][:12],
            ]
            for app, res in self.payload["results"].items()
        ]
        metrics = self.payload["metrics"]
        table = format_table(
            f"Batched engine bench (mode={self.payload['config']['mode']}, "
            f"workers={self.workers})",
            ["program", "writebacks", "blocks", "mismatches", "digest"],
            rows,
        )
        return (
            f"{table}\n\n"
            f"kernel calls: {metrics.get('fast.kernel.calls', 0)}   "
            f"blocks: {metrics.get('fast.kernel.blocks', 0)}   "
            f"scalar fallbacks: {metrics.get('fast.fallback.scalar', 0)}   "
            f"paranoid divergences: "
            f"{metrics.get('fast.paranoid.divergence', 0)}"
        )


def run_bench(spec: BenchSpec, workers: int = 1) -> BenchReport:
    """Run every app in ``spec`` and merge into one payload.

    ``workers`` only chooses *where* apps run (inline vs a process
    pool); it may never change the payload.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    apps = sorted(spec.apps)
    if workers == 1:
        outcomes = [run_app(app, spec) for app in apps]
    else:
        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )
        with context.Pool(min(workers, len(apps) or 1)) as pool:
            outcomes = pool.starmap(run_app, [(app, spec) for app in apps])
    return BenchReport({
        "schema": BENCH_SCHEMA,
        "bench": "parallel",
        "config": spec.config_dict(),
        "results": {
            app: app_results for app, (app_results, _) in zip(apps, outcomes)
        },
        "metrics": merge_totals([totals for _, totals in outcomes]),
    }, workers)


__all__ = [
    "BENCH_SCHEMA",
    "BenchReport",
    "BenchSpec",
    "app_key",
    "merge_totals",
    "run_app",
    "run_bench",
    "state_digest",
    "writeback_stream",
]
