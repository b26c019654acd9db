"""Service workload: a closed loop of clients against one shard process.

One ``ServiceSupervisor`` shard serves one tenant per client.  Each
client sends its pre-encoded request sequence one request at a time
and awaits every reply (closed loop, no pipelining), so the offered
load is exactly one outstanding request per client.

A pass starts a fresh shard on a fresh root (its set-up: supervisor
start, readiness, provisioning every tenant), runs the loop, and stops
the shard.  The first pass of a run also reads every written block
back, untimed, against the clients' shadow.

Unlike the engine workloads, the service's times are not calibrated
(:mod:`bench.host`): the shard spends about a quarter of the loop in
the kernel on the journal's files, that kernel time moved by up to 6x
between runs minutes apart, and no reference sample -- taken in this
process or inside the shard -- moved with it.  See "Steadiness" in
``bench/README.md``.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import multiprocessing
import os
import pathlib
import shutil
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any

from repro.service.endpoints import scrape
from repro.service.errors import ServiceError
from repro.service.server import RETRYABLE_ERRORS, ServiceClient, ServiceSupervisor

from bench.host import PeakMemory
from bench.tracing import MARK_FIELD, SpanRecorder, chrome_trace, installed
from bench.workloads import ServiceInputs, ServiceWorkload

#: set-ups timed for ``setup_s`` at least (the median is reported)
SETUPS = 5
#: requests of each kind a run collects at least, beyond ``seconds``
#: if need be, so that every p99 has ten samples beyond it
P99_SAMPLES = 1000
SHARD = 0
#: socket poll while the shard starts (``wait_ready`` polls every 20 ms,
#: which would quantise ``setup_s`` to 20 ms steps)
READY_POLL_S = 0.001


@dataclass
class PassResult:
    #: seconds of the closed loop, and the load generator's CPU in them
    wall_s: float = 0.0
    cpu_s: float = 0.0
    latencies_ms: dict[str, list[float]] = field(
        default_factory=lambda: {"write": [], "batch": [], "read": []}
    )
    failures: list[str] = field(default_factory=list)
    sdc: int = 0
    retries: int = 0
    peak_rss_mb: float = 0.0
    #: traced passes: the shard's /metrics around the loop, and both
    #: processes' recorder exports
    metrics_before: dict[str, Any] = field(default_factory=dict)
    metrics_after: dict[str, Any] = field(default_factory=dict)
    spans: dict[str, Any] | None = None
    shard_spans: dict[str, Any] | None = None


def start(
    root: pathlib.Path, workload: ServiceWorkload
) -> tuple[ServiceSupervisor, PeakMemory, float]:
    """Start the shard and provision every tenant.

    Returns the supervisor, the shard's memory meter (reset once the
    shard is ready, before provisioning) and the set-up time.
    """
    before = {child.pid for child in multiprocessing.active_children()}
    began = time.perf_counter()
    supervisor = ServiceSupervisor(root, num_shards=1)
    supervisor.start()
    try:
        (shard_pid,) = [
            child.pid
            for child in multiprocessing.active_children()
            if child.pid not in before
        ]
        socket = supervisor.router.socket_path(SHARD)
        deadline = began + 10.0
        while not socket.exists() and time.perf_counter() < deadline:
            time.sleep(READY_POLL_S)
        supervisor.wait_ready()
        memory = PeakMemory(shard_pid)
        asyncio.run(_provision(root, workload))
    except BaseException:
        supervisor.stop()
        raise
    return supervisor, memory, time.perf_counter() - began


async def _provision(root, workload: ServiceWorkload) -> None:
    client = ServiceClient(root, 1)
    try:
        for tenant in workload.tenant_ids():
            response = await client.request(workload.provision_request(tenant))
            if response["capacity_bytes"] != workload.region_kb * 1024:
                raise RuntimeError(
                    f"tenant {tenant} capacity {response['capacity_bytes']} "
                    f"!= the {workload.region_kb} KiB the inputs assume"
                )
    finally:
        await client.close()


async def _drive(
    client: ServiceClient,
    sequence: list[tuple[str, dict, str | None]],
    result: PassResult,
) -> None:
    clock = time.perf_counter
    for kind, request, expected in sequence:
        began = clock()
        try:
            try:
                response = await client.request(request)
            except RETRYABLE_ERRORS:
                result.retries += 1
                response = await client.request_retry(request)
        except ServiceError as error:
            result.failures.append(f"{kind}: {error.code}: {error}")
            continue
        result.latencies_ms[kind].append((clock() - began) * 1e3)
        if expected is not None and response.get("data") != expected:
            result.failures.append(f"read {request['address']}: wrong data")


async def _verify(client: ServiceClient, tenant: str, shadow: dict[int, str]) -> int:
    sdc = 0
    for address, data in shadow.items():
        seen = await client.read(tenant, address)
        if seen is None or seen.hex() != data:
            sdc += 1
    return sdc


async def _session(
    root,
    http_path: str,
    workload: ServiceWorkload,
    inputs: ServiceInputs,
    result: PassResult,
    recorder: SpanRecorder | None,
    verify: bool,
) -> None:
    clients = [ServiceClient(root, 1, rng_seed=k) for k in range(len(inputs.ops))]
    window = recorder.window if recorder is not None else nullcontext
    try:
        for client in clients:
            await client.ping(SHARD)  # connect before the clock starts
        if recorder is not None:
            result.metrics_before = await asyncio.to_thread(scrape, http_path)
            await clients[0].request(
                {"op": "ping", "tenant": "", MARK_FIELD: "start"}, shard=SHARD
            )
            recorder.reset()
        with window():
            began, cpu = time.perf_counter(), time.process_time()
            await asyncio.gather(
                *(_drive(c, s, result) for c, s in zip(clients, inputs.ops))
            )
            result.wall_s = time.perf_counter() - began
            result.cpu_s = time.process_time() - cpu
        if recorder is not None:
            await clients[0].request(
                {"op": "ping", "tenant": "", MARK_FIELD: "stop"}, shard=SHARD
            )
            result.metrics_after = await asyncio.to_thread(scrape, http_path)
        if verify:
            result.sdc = sum(
                await asyncio.gather(
                    *(
                        _verify(client, tenant, shadow)
                        for client, tenant, shadow in zip(
                            clients, workload.tenant_ids(), inputs.final
                        )
                    )
                )
            )
    finally:
        for client in clients:
            await client.close()


def one_pass(
    root: pathlib.Path,
    workload: ServiceWorkload,
    inputs: ServiceInputs,
    setup_s: list[float],
    recorder: SpanRecorder | None = None,
    verify: bool = False,
) -> PassResult:
    """Start (timed into ``setup_s``), run the loop (and verify); always stops."""
    # Write back what earlier passes (or runs) left dirty, so that this
    # pass's fsyncs do not pay for it.
    os.sync()
    supervisor, memory, elapsed = start(root, workload)
    setup_s.append(elapsed)
    result = PassResult()
    try:
        http_path = str(supervisor.router.http_socket_path(SHARD))
        asyncio.run(
            _session(root, http_path, workload, inputs, result, recorder, verify)
        )
        result.peak_rss_mb = memory.peak_mb()
    finally:
        supervisor.stop()
    return result


def traced_pass(
    root: pathlib.Path,
    workload: ServiceWorkload,
    inputs: ServiceInputs,
    trace_path: str | None,
) -> PassResult:
    """One pass with the wrappers installed in both processes.

    The shard inherits the recorder when it is forked and writes its
    own export into ``root`` on its drain-and-stop path.
    """
    shard_dump = root / "bench-shard.json"
    recorder = SpanRecorder(dump_path=shard_dump)
    with installed(recorder):
        result = one_pass(root, workload, inputs, [], recorder)
    result.spans = recorder.export()
    result.shard_spans = json.loads(shard_dump.read_text())
    if trace_path is not None:
        with open(trace_path, "w") as handle:
            json.dump(
                chrome_trace([("loadgen", result.spans), ("shard", result.shard_spans)]),
                handle,
            )
    del result.spans["events"], result.shard_spans["events"]
    return result


def run_service(
    workload: ServiceWorkload,
    inputs: ServiceInputs,
    seconds: float,
    work_dir: pathlib.Path,
    trace_path: str | None = None,
) -> dict[str, Any]:
    """Passes (each followed by a traced one, with a trace path) while
    another fits in ``seconds`` or some request kind has fewer than
    ``P99_SAMPLES`` latencies; then set-ups until there are ``SETUPS``.

    ``work_dir`` must be a short relative path: shard sockets live
    under it and AF_UNIX paths are capped near 100 bytes.
    """
    roots = (work_dir / f"svc{index}" for index in itertools.count())
    setup_s: list[float] = []
    passes: list[PassResult] = []
    traced: list[PassResult] = []
    measured = 0.0
    try:
        while True:
            cycle = [one_pass(next(roots), workload, inputs, setup_s, verify=not passes)]
            passes.append(cycle[0])
            if trace_path is not None:
                cycle.append(
                    traced_pass(
                        next(roots), workload, inputs, None if traced else trace_path
                    )
                )
                traced.append(cycle[-1])
            spent = sum(p.wall_s for p in cycle)
            measured += spent
            fewest = min(
                sum(len(p.latencies_ms[kind]) for p in passes)
                for kind in passes[0].latencies_ms
            )
            if measured + spent > seconds and fewest >= P99_SAMPLES:
                break
        while len(setup_s) < SETUPS:
            supervisor, _, elapsed = start(next(roots), workload)
            supervisor.stop()
            setup_s.append(elapsed)
        return {
            "setup_s": setup_s,
            "passes": [vars(p) for p in passes],
            "traced": [vars(p) for p in traced],
        }
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
