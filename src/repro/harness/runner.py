"""Experiment runners for the paper's two headline experiments.

* :class:`ReencryptionExperiment` reproduces Table 2: per application,
  count block-group re-encryptions per 10^9 cycles for split counters,
  7-bit deltas and dual-length deltas.  The write stream is filtered
  through a write-back cache model (the LLC coalesces repeated stores to
  a resident line into one eventual DRAM write-back) and then replayed
  into each counter scheme; the *same* filtered stream drives all
  schemes, exactly as one simulated execution drives all three columns
  in the paper.
* :class:`PerformanceExperiment` reproduces Figure 8: run the trace-
  driven multicore system against the plain-DRAM backend and each
  encryption configuration, reporting IPC normalized to no encryption.
"""

from __future__ import annotations

from contextlib import ExitStack
from dataclasses import dataclass, field

from repro.core.counters import make_scheme
from repro.core.engine.config import EngineConfig, preset
from repro.core.engine.timing import EncryptionTimingBackend
from repro.lint.contracts import BLOCK_BYTES
from repro.memsim.cache.cache import AccessType, Cache, CacheConfig
from repro.memsim.cpu.system import (
    PlainMemoryBackend,
    TraceDrivenSystem,
)
from repro.obs.metrics import MetricRegistry, use_registry
from repro.obs.trace import EventTracer, get_tracer, use_tracer
from repro.workloads.parsec import ParsecProfile, profile


def _observed(registry: MetricRegistry | None, tracer: EventTracer | None):
    """Scope an experiment's registry/tracer (no-op when neither is set).

    Components built inside (caches, DRAM, schemes, engines) bind their
    metrics to the experiment's registry instead of the process default,
    so one run's snapshot contains exactly that run.
    """
    stack = ExitStack()
    if registry is not None:
        stack.enter_context(use_registry(registry))
    if tracer is not None:
        stack.enter_context(use_tracer(tracer))
    return stack


class WritebackFilter:
    """LLC write-coalescing model: turns a raw access stream into the
    DRAM write-back stream that actually bumps encryption counters.

    A single shared cache stands in for the whole hierarchy -- adequate
    because only the *write-back* stream matters here and the L3
    dominates coalescing.  Reads participate (they create eviction
    pressure); dirty victims are emitted as write-backs.
    """

    #: default filter capacity: the 10 MB LLC of Table 1 scaled by the
    #: same ~10x spatial factor as the workload footprints (see
    #: repro.workloads.parsec docstring, "Scaling").
    DEFAULT_CONFIG = CacheConfig(size_bytes=128 * 1024, ways=16)

    def __init__(self, cache_config: CacheConfig | None = None):
        self.cache = Cache(cache_config or self.DEFAULT_CONFIG, "llc-filter")

    def filter(self, traces: list) -> list:
        """Interleave per-core traces round-robin; return write-back
        block indices in eviction order, plus the instruction total."""
        writebacks = []
        instructions = 0
        iterators = [iter(t) for t in traces]
        live = list(range(len(iterators)))
        while live:
            finished = []
            for slot in live:
                record = next(iterators[slot], None)
                if record is None:
                    finished.append(slot)
                    continue
                gap, is_write, address = record
                instructions += gap + 1
                result = self.cache.access(
                    address,
                    AccessType.WRITE if is_write else AccessType.READ,
                )
                if result.writeback_address is not None:
                    writebacks.append(result.writeback_address // BLOCK_BYTES)
            for slot in finished:
                live.remove(slot)
        return writebacks, instructions


@dataclass
class Table2Row:
    """Re-encryption counts per 10^9 cycles for one application."""

    app: str
    split: float
    delta7: float
    dual_length: float
    simulated_cycles: float
    raw_counts: dict = field(default_factory=dict)

    def as_row(self) -> list:
        return [
            self.app,
            round(self.split, 1),
            round(self.delta7, 1),
            round(self.dual_length, 1),
        ]


class ReencryptionExperiment:
    """Table 2: re-encryptions per billion cycles, three counter schemes."""

    #: the three columns of Table 2 and how to build them
    SCHEMES = {
        "split": lambda blocks: make_scheme("split", blocks),
        "delta7": lambda blocks: make_scheme("delta", blocks),
        "dual_length": lambda blocks: make_scheme("dual_length", blocks),
    }

    def __init__(
        self,
        region_bytes: int = 32 * 1024 * 1024,
        accesses_per_core: int = 600_000,
        cores: int = 4,
        seed: int = 1,
        filter_config: CacheConfig | None = None,
        registry: MetricRegistry | None = None,
        tracer: EventTracer | None = None,
    ):
        self.region_bytes = region_bytes
        self.accesses_per_core = accesses_per_core
        self.cores = cores
        self.seed = seed
        self.filter_config = filter_config
        self.registry = registry
        self.tracer = tracer

    def run_app(self, app: str | ParsecProfile) -> Table2Row:
        """Run one application through all three counter schemes."""
        with _observed(self.registry, self.tracer):
            return self._run_app(app)

    def _run_app(self, app: str | ParsecProfile) -> Table2Row:
        app_profile = profile(app) if isinstance(app, str) else app
        region_blocks = self.region_bytes // BLOCK_BYTES
        traces = app_profile.traces(
            self.accesses_per_core, region_blocks, self.cores, self.seed
        )
        writebacks, instructions = WritebackFilter(
            self.filter_config
        ).filter(traces)
        # Four cores retire in parallel: wall-clock cycles are one core's
        # instruction share at the application's nominal IPC.
        cycles = instructions / self.cores / app_profile.base_ipc
        scale = 1e9 / cycles if cycles else 0.0

        counts = {}
        for name, builder in self.SCHEMES.items():
            scheme = builder(region_blocks)
            scheme.replay(writebacks)
            counts[name] = scheme.stats.re_encryptions
        return Table2Row(
            app=app_profile.name,
            split=counts["split"] * scale,
            delta7=counts["delta7"] * scale,
            dual_length=counts["dual_length"] * scale,
            simulated_cycles=cycles,
            raw_counts=counts,
        )

    def run(self, apps: list) -> list:
        """Run several applications; returns one Table2Row each."""
        return [self.run_app(app) for app in apps]


@dataclass
class Figure8Run:
    """IPC results for one application across configurations."""

    app: str
    plain_ipc: float
    ipc: dict  # config name -> absolute IPC

    def normalized(self) -> dict:
        """IPC relative to no encryption (the Figure 8 y-axis)."""
        if not self.plain_ipc:
            return {name: 0.0 for name in self.ipc}
        return {name: v / self.plain_ipc for name, v in self.ipc.items()}

    def improvement_over_baseline(self, config: str = "combined",
                                  baseline: str = "bmt_baseline") -> float:
        """Relative IPC gain of a config over the BMT baseline."""
        if not self.ipc.get(baseline):
            return 0.0
        return self.ipc[config] / self.ipc[baseline] - 1.0


class PerformanceExperiment:
    """Figure 8: normalized IPC of the four engine configurations."""

    DEFAULT_CONFIGS = ("bmt_baseline", "mac_in_ecc", "delta_only", "combined")

    def __init__(
        self,
        region_bytes: int = 128 * 1024 * 1024,
        accesses_per_core: int = 120_000,
        cores: int = 4,
        seed: int = 1,
        configs: tuple = DEFAULT_CONFIGS,
        registry: MetricRegistry | None = None,
        tracer: EventTracer | None = None,
    ):
        self.region_bytes = region_bytes
        self.accesses_per_core = accesses_per_core
        self.cores = cores
        self.seed = seed
        self.configs = configs
        self.registry = registry
        self.tracer = tracer

    def _engine_config(self, name: str) -> EngineConfig:
        return preset(name, protected_bytes=self.region_bytes)

    def run_app(self, app: str | ParsecProfile) -> Figure8Run:
        """Simulate one application under every configuration."""
        with _observed(self.registry, self.tracer):
            return self._run_app(app)

    def _run_app(self, app: str | ParsecProfile) -> Figure8Run:
        app_profile = profile(app) if isinstance(app, str) else app
        region_blocks = self.region_bytes // BLOCK_BYTES
        traces = app_profile.traces(
            self.accesses_per_core, region_blocks, self.cores, self.seed
        )
        plain = TraceDrivenSystem(PlainMemoryBackend())
        plain_result = plain.run([list(t) for t in traces])

        tracer = get_tracer()
        results = {}
        for name in self.configs:
            if tracer.enabled:
                tracer.instant(
                    f"config.{name}", cat="harness", app=app_profile.name
                )
            backend = EncryptionTimingBackend(self._engine_config(name))
            system = TraceDrivenSystem(backend)
            results[name] = system.run([list(t) for t in traces]).ipc
        return Figure8Run(
            app=app_profile.name, plain_ipc=plain_result.ipc, ipc=results
        )

    def run(self, apps: list) -> list:
        return [self.run_app(app) for app in apps]


__all__ = [
    "WritebackFilter",
    "ReencryptionExperiment",
    "Table2Row",
    "PerformanceExperiment",
    "Figure8Run",
]
