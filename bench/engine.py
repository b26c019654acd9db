"""Engine workloads: ``SecureMemory`` + ``BatchSecureMemory`` in this process.

:func:`run_engine` measures set-up (the median of at least five fresh
constructions), then repeats passes, each on a fresh engine, while
another still fits in ``seconds`` of measured time (at least one).  A
pass is a write phase replaying the write-back stream in 256-block
``write_many`` calls, then a separately timed read phase of 256-block
``read_many`` calls.  Only the calls are timed; host-speed samples
(:mod:`bench.host`) and the read-back checks run between them.  With
tracing on, every untraced pass is followed by a traced one.
"""

from __future__ import annotations

import gc
import hashlib
import json
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any

from repro.core.engine.secure_memory import SecureMemory
from repro.fast.batch_memory import BatchSecureMemory
from repro.harness.parallel import state_digest
from repro.harness.runner import BLOCK_BYTES
from repro.obs.metrics import MetricRegistry, use_registry

from bench.host import Calibrated, PeakMemory, sample
from bench.tracing import SpanRecorder, chrome_trace, installed
from bench.workloads import BATCH_BLOCKS, EngineInputs, EngineWorkload

#: fresh constructions timed for ``setup_s`` (the median is reported):
#: at least this many, and until this much set-up time was measured
#: (a 2 MiB engine builds in ~10 ms; five samples of that are noise)
SETUPS = 5
SETUP_SECONDS = 1.0


def engine_key(workload: EngineWorkload, seed: int) -> bytes:
    return hashlib.sha384(f"bench.engine/{workload.name}/{seed}".encode()).digest()


@dataclass
class Built:
    engine: SecureMemory
    batch: BatchSecureMemory
    registry: MetricRegistry


def build(workload: EngineWorkload, seed: int, mode: str = "fast") -> Built:
    """One fresh engine; every metric it registers lands in its registry."""
    registry = MetricRegistry()
    with use_registry(registry):
        engine = SecureMemory(
            workload.engine_config(), engine_key(workload, seed), registry=registry
        )
        batch = BatchSecureMemory(engine, mode=mode)
    return Built(engine, batch, registry)


@dataclass
class PassResult:
    #: seconds inside ``write_many`` / ``read_many`` calls, calibrated
    write_s: float
    read_s: float
    #: measured over calibrated time: how slow the host ran
    host_factor: float
    mismatches: int
    digest: str
    fallback_scalar: int
    #: the recorder's export, traced passes only
    spans: dict[str, Any] | None = None


@dataclass
class Calls:
    """The arguments of every call a pass makes, and what each read must
    return.  Built once, before the memory meter starts, so that the
    benchmark's own copies of the inputs are not counted as the
    engine's."""

    writes: list[list[tuple[int, bytes]]]
    reads: list[list[int]]
    expected: list[list[bytes]]


def calls_for(inputs: EngineInputs) -> Calls:
    payloads = [inputs.payload(index) for index in range(len(inputs.writes))]
    writes = inputs.writes.tolist()
    last = {block: payloads[index] for index, block in enumerate(writes)}
    reads = inputs.reads.tolist()
    chunks = range(0, len(reads), BATCH_BLOCKS)
    return Calls(
        writes=[
            [
                (block * BLOCK_BYTES, payloads[base + offset])
                for offset, block in enumerate(writes[base : base + BATCH_BLOCKS])
            ]
            for base in range(0, len(writes), BATCH_BLOCKS)
        ],
        reads=[
            [block * BLOCK_BYTES for block in reads[base : base + BATCH_BLOCKS]]
            for base in chunks
        ],
        expected=[
            [last[block] for block in reads[base : base + BATCH_BLOCKS]]
            for base in chunks
        ],
    )


def timed_pass(
    built: Built, calls: Calls, recorder: SpanRecorder | None = None
) -> PassResult:
    """Write phase, then read phase; each read checked against the last
    payload written to its block."""
    window = recorder.window if recorder is not None else nullcontext
    batch = built.batch
    clock = time.perf_counter

    gc.collect()
    writing = Calibrated(sample())
    for writes in calls.writes:
        with window():
            began = clock()
            batch.write_many(writes)
            elapsed = clock() - began
        writing.add(elapsed)
        if writing.due():
            writing.mark(sample())
    writing.mark(sample())

    gc.collect()
    reading = Calibrated(sample())
    mismatches = 0
    for addresses, expected in zip(calls.reads, calls.expected):
        with window():
            began = clock()
            results = batch.read_many(addresses)
            elapsed = clock() - began
        reading.add(elapsed)
        if reading.due():
            reading.mark(sample())
        mismatches += sum(
            result.data != data for result, data in zip(results, expected)
        )
    reading.mark(sample())

    stretches = writing.stretches + reading.stretches
    write_s, read_s = sum(writing.calibrated()), sum(reading.calibrated())
    return PassResult(
        write_s=write_s,
        read_s=read_s,
        host_factor=sum(s for s, _ in stretches) / (write_s + read_s),
        mismatches=mismatches,
        digest=state_digest(built.engine),
        fallback_scalar=built.registry.total("fast.fallback.scalar"),
    )


def traced_pass(
    workload: EngineWorkload, seed: int, calls: Calls, trace_path: str | None
) -> PassResult:
    """One pass on a fresh engine with the wrappers installed; its
    sampled spans go to ``trace_path`` as a Chrome trace, if given."""
    recorder = SpanRecorder()
    gc.collect()
    built = build(workload, seed)
    with installed(recorder):
        result = timed_pass(built, calls, recorder)
    result.spans = recorder.export()
    if trace_path is not None:
        with open(trace_path, "w") as handle:
            json.dump(chrome_trace([("engine", result.spans)]), handle)
    del result.spans["events"]
    return result


def dirty_groups(workload: EngineWorkload, inputs: EngineInputs) -> int:
    """Distinct groups per ``write_many`` call, summed: the commits an
    ideal write path makes (one counter encode, one leaf update each)."""
    scheme = workload.engine_config().build_scheme()
    writes = inputs.writes.tolist()
    return sum(
        len({scheme.group_of(block) for block in writes[base : base + BATCH_BLOCKS]})
        for base in range(0, len(writes), BATCH_BLOCKS)
    )


def run_engine(
    workload: EngineWorkload,
    inputs: EngineInputs,
    seed: int,
    seconds: float,
    trace_path: str | None = None,
) -> dict[str, Any]:
    """Set-up samples, then passes (alternately traced, with a trace path)."""
    calls = calls_for(inputs)
    gc.collect()
    memory = PeakMemory()
    setup = Calibrated(sample())
    built: Built | None = None
    while len(setup.stretches) < SETUPS or sum(setup.calibrated()) < SETUP_SECONDS:
        built = None  # one engine alive at a time
        gc.collect()
        setup.mark(sample())
        began = time.perf_counter()
        built = build(workload, seed)
        setup.add(time.perf_counter() - began)
        setup.mark(sample())

    passes: list[PassResult] = []
    traced: list[PassResult] = []
    measured = 0.0
    while True:
        if built is None:
            gc.collect()  # the last pass's engine is gone before this one
            built = build(workload, seed)
        cycle = [timed_pass(built, calls)]
        built = None
        passes.append(cycle[0])
        if trace_path is not None:
            cycle.append(
                traced_pass(workload, seed, calls, None if traced else trace_path)
            )
            traced.append(cycle[-1])
        spent = sum((p.write_s + p.read_s) * p.host_factor for p in cycle)
        measured += spent
        if measured + spent > seconds:
            break

    return {
        "setup_s": setup.calibrated(),
        "setup_factor": setup.factor(),
        "passes": [vars(p) for p in passes],
        "traced": [vars(p) for p in traced],
        "peak_rss_mb": memory.peak_mb(),
    }
