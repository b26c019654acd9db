"""Fault campaign engine: sustained traffic under pluggable fault models.

``analysis/faults.py`` answers Figure 3's question -- *what does one
injected pattern do?* -- with one-shot injections into freshly encoded
blocks.  A reliability argument for a memory system needs the
longitudinal version: faults arriving as a Poisson process over hours of
traffic, recovery machinery absorbing them, quarantine retiring the bad
actors, and an error log that reconciles at the end.  This module drives
exactly that against :class:`~repro.resilience.runtime.ResilientMemory`.

Fault models are pluggable.  Three built-ins cover the classic DRAM
failure taxonomy (transient single-event upsets, stuck-at cells, row
bursts), and :class:`ScenarioFaultModel` adapts any Figure 3
:class:`~repro.analysis.faults.FaultScenario` so the one-shot patterns
can be replayed as sustained campaigns.

Every injected fault is followed by a demand read of the faulted block
(the access that "discovers" the fault), so each fault terminates in
exactly one primary outcome -- corrected, detected-uncorrectable,
silently corrupting (never, if the paper is right), or absorbed by an
earlier recovery on the same block -- and the totals reconcile.
Background traffic (seeded random reads/writes checked against the
:class:`~repro.harness.oracle.ShadowOracle`) then exercises recurrence: stuck-at blocks keep producing CEs
until the quarantine threshold retires them.
"""

from __future__ import annotations

import abc
import math
import random
from collections import Counter
from dataclasses import dataclass, field

from repro.analysis.faults import FaultScenario
from repro.core.engine.config import preset
from repro.harness.oracle import SDC, ZERO_BLOCK, ShadowOracle
from repro.harness.reporting import format_series, format_table
from repro.lint.contracts import BLOCK_BITS, BLOCK_BYTES
from repro.resilience.errlog import EventOutcome
from repro.resilience.recovery import RecoveryStage, RetryPolicy
from repro.resilience.runtime import ResilientMemory


def poisson_draw(rng: random.Random, rate: float) -> int:
    """Knuth's algorithm; exact for the small per-operation rates here."""
    if rate <= 0:
        return 0
    limit = math.exp(-rate)
    k = 0
    product = rng.random()
    while product > limit:
        k += 1
        product *= rng.random()
    return k


@dataclass(frozen=True)
class FaultSpec:
    """One concrete fault drawn from a model: where, what, how long."""

    block: int  # logical block index to hit
    data_bits: tuple = ()
    ecc_bits: tuple = ()
    persistence: str = "cell"  # inflight | cell | stuck


class FaultModel(abc.ABC):
    """A named fault class arriving as a Poisson process.

    ``rate`` is the expected number of faults per campaign operation;
    :meth:`arrivals` draws how many strike during one operation and
    :meth:`draw` materializes each one into concrete :class:`FaultSpec`s
    (a single arrival may span several blocks, e.g. a row burst).
    """

    #: machine name used in reports and the error log
    name: str = "abstract"
    #: fault-class label recorded on log events
    fault_class: str = "unknown"

    def __init__(self, rate: float):
        if rate < 0:
            raise ValueError("rate must be >= 0")
        self.rate = rate

    def arrivals(self, rng: random.Random) -> int:
        return poisson_draw(rng, self.rate)

    @abc.abstractmethod
    def draw(self, rng: random.Random, capacity_blocks: int) -> list[FaultSpec]:
        """Materialize one arrival into concrete fault specs."""


class TransientSEU(FaultModel):
    """In-flight single-event upset: corrupts one transfer, clears on
    re-read.  The paper's dominant DRAM fault class; retry-with-reread
    should absorb every one of these without touching flip-and-check."""

    name = "transient_seu"
    fault_class = "transient"

    def __init__(self, rate: float, max_bits: int = 1):
        super().__init__(rate)
        if not 1 <= max_bits <= 2:
            raise ValueError("transient upsets model 1 or 2 bit flips")
        self.max_bits = max_bits

    def draw(self, rng, capacity_blocks):
        block = rng.randrange(capacity_blocks)
        weight = rng.randint(1, self.max_bits)
        bits = tuple(rng.sample(range(BLOCK_BITS), weight))
        return [FaultSpec(block, data_bits=bits, persistence="inflight")]


class StuckAtBit(FaultModel):
    """A cell goes permanently bad: the read value disagrees with the
    stored bit on every access.  Flip-and-check corrects each read, but
    only quarantine stops the CE stream -- this is the model that drives
    block retirement."""

    name = "stuck_at"
    fault_class = "stuck_at"

    def draw(self, rng, capacity_blocks):
        block = rng.randrange(capacity_blocks)
        bit = rng.randrange(BLOCK_BITS)
        return [FaultSpec(block, data_bits=(bit,), persistence="stuck")]


class RowBurst(FaultModel):
    """A row-level event upsets a run of adjacent blocks at once, with a
    per-block flip weight of 1..``max_bits_per_block``.  Weights above 2
    exceed flip-and-check's budget and surface as DUEs -- the campaign's
    source of detected-uncorrectable events."""

    name = "row_burst"
    fault_class = "row_burst"

    def __init__(
        self, rate: float, row_blocks: int = 4, max_bits_per_block: int = 3
    ):
        super().__init__(rate)
        if row_blocks < 1:
            raise ValueError("row_blocks must be >= 1")
        if max_bits_per_block < 1:
            raise ValueError("max_bits_per_block must be >= 1")
        self.row_blocks = row_blocks
        self.max_bits_per_block = max_bits_per_block

    def draw(self, rng, capacity_blocks):
        span = min(self.row_blocks, capacity_blocks)
        base = rng.randrange(capacity_blocks - span + 1)
        specs = []
        for offset in range(span):
            weight = rng.randint(1, self.max_bits_per_block)
            bits = tuple(rng.sample(range(BLOCK_BITS), weight))
            specs.append(
                FaultSpec(base + offset, data_bits=bits, persistence="cell")
            )
        return specs


class ScenarioFaultModel(FaultModel):
    """Adapter: replay a Figure 3 :class:`FaultScenario` as a campaign
    model, so the one-shot analysis patterns double as sustained fault
    workloads (e.g. ``figure3_scenarios()[4]`` -- 3 flips in one word --
    becomes a DUE generator)."""

    def __init__(
        self,
        scenario: FaultScenario,
        rate: float,
        persistence: str = "cell",
    ):
        super().__init__(rate)
        self.scenario = scenario
        self.persistence = persistence
        self.name = f"scenario:{scenario.name}"
        self.fault_class = scenario.name

    def draw(self, rng, capacity_blocks):
        data_bits, ecc_bits = self.scenario.draw(rng)
        block = rng.randrange(capacity_blocks)
        return [
            FaultSpec(
                block,
                data_bits=data_bits,
                ecc_bits=ecc_bits,
                persistence=self.persistence,
            )
        ]


# -- the campaign itself ----------------------------------------------------

#: primary-outcome labels (per injected fault, decided at its demand read)
PRIMARY_OUTCOMES = (
    "ce_retry", "ce_mac_repair", "ce_flip_and_check",
    "due", "sdc", "absorbed",
)

_STAGE_TO_PRIMARY = {
    RecoveryStage.CLEAN: "absorbed",
    RecoveryStage.RETRY_CLEARED: "ce_retry",
    RecoveryStage.MAC_REPAIRED: "ce_mac_repair",
    RecoveryStage.CORRECTED: "ce_flip_and_check",
    RecoveryStage.FAILED: "due",
}


@dataclass(frozen=True)
class FaultRates:
    """Per-operation Poisson rates of the three built-in fault classes:
    the fault mix :class:`CampaignSpec` and the torture spec share."""

    transient_rate: float = 0.02
    stuck_rate: float = 0.002
    burst_rate: float = 0.0005

    def __post_init__(self) -> None:
        if min(self.transient_rate, self.stuck_rate, self.burst_rate) < 0:
            raise ValueError("fault rates must be >= 0")

    def models(self) -> list[FaultModel]:
        """The standard three-class campaign mix (zero rates left out)."""
        mix = (
            (TransientSEU, self.transient_rate),
            (StuckAtBit, self.stuck_rate),
            (RowBurst, self.burst_rate),
        )
        return [model(rate) for model, rate in mix if rate]


@dataclass(frozen=True)
class CampaignSpec(FaultRates):
    """One deterministic fault campaign (``repro resilience``): a preset
    over ``region_kb`` KiB, keyed from ``seed``, under the fault mix."""

    preset: str = "combined"
    region_kb: int = 256
    operations: int = 5000
    seed: int = 1
    spare_blocks: int = 16  # blocks reserved for quarantine remapping
    ce_threshold: int = 3  # correctable errors before a block is retired
    max_retries: int = 2  # re-reads before escalating to flip-and-check
    write_fraction: float = 0.25
    scrub_interval: int = 1000  # operations between scrub sweeps (0 = off)

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.operations < 1:
            raise ValueError("operations must be >= 1")
        if not 0 <= self.write_fraction <= 1:
            raise ValueError("write_fraction must be in [0, 1]")
        if self.scrub_interval < 0:
            raise ValueError("scrub_interval must be >= 0")


@dataclass
class CampaignReport:
    """Everything a reliability summary needs, reconciled."""

    seed: int
    operations: int = 0
    injected: Counter = field(default_factory=Counter)  # model -> faults
    primary: dict[str, Counter] = field(default_factory=dict)  # model -> outcome
    due_rewrites: int = 0  # blocks software-repaired after a DUE
    reads: int = 0
    writes: int = 0
    sdc_total: int = 0
    cycles_spent: int = 0
    log_events: int = 0
    ce_total: int = 0
    due_total: int = 0
    retired_blocks: int = 0
    degraded_blocks: int = 0
    spares_remaining: int = 0
    capacity_blocks: int = 0
    log_summary: str = ""  # the error log's table before the final sweep
    ground_truth_mismatches: int = 0  # final sweep over every written block
    written_blocks: int = 0

    @property
    def injected_total(self) -> int:
        return sum(self.injected.values())

    @property
    def outcomes(self) -> Counter:
        """Primary outcome -> count, over every fault model."""
        return sum(self.primary.values(), Counter())

    @property
    def primary_total(self) -> int:
        return sum(self.outcomes.values())

    def observe(self, model: str, outcome: str) -> None:
        """Record one injected fault's primary outcome."""
        self.primary.setdefault(model, Counter())[outcome] += 1

    def reconciles(self) -> bool:
        """Every injected fault terminated in exactly one primary outcome."""
        return self.injected_total == self.primary_total

    @property
    def ok(self) -> bool:
        """Reconciled, no SDC, and the final sweep found no mismatch."""
        return self.reconciles() and not (
            self.sdc_total or self.ground_truth_mismatches
        )

    def _counters_json(self) -> dict:
        """The traffic, fault and quarantine counters every report of
        this family emits under the same keys."""
        return {
            "injected": dict(sorted(self.injected.items())),
            "injected_total": self.injected_total,
            "reads": self.reads,
            "writes": self.writes,
            "sdc_total": self.sdc_total,
            "retired_blocks": self.retired_blocks,
            "degraded_blocks": self.degraded_blocks,
            "spares_remaining": self.spares_remaining,
        }

    def to_json(self) -> dict:
        """JSON-ready form (the ``repro resilience --json-out`` artifact).

        Carries the seed so any emitted result can be re-run exactly.
        """
        return {
            **self._counters_json(),
            "operations": self.operations,
            "seed": self.seed,
            "primary": {
                model: dict(sorted(counts.items()))
                for model, counts in sorted(self.primary.items())
            },
            "primary_total": self.primary_total,
            "reconciles": self.reconciles(),
            "due_rewrites": self.due_rewrites,
            "cycles_spent": self.cycles_spent,
            "log_events": self.log_events,
            "ce_total": self.ce_total,
            "due_total": self.due_total,
            "capacity_blocks": self.capacity_blocks,
            "ground_truth_mismatches": self.ground_truth_mismatches,
            "sound": self.ok,
        }

    def format_summary(self) -> str:
        """Reliability summary tables (harness/reporting style), the
        error log's table, and the final sweep's verdict."""
        rows = []
        for model in sorted(self.injected):
            counts = self.primary.get(model, Counter())
            rows.append(
                [model, self.injected[model]]
                + [counts.get(label, 0) for label in PRIMARY_OUTCOMES]
            )
        outcomes = self.outcomes
        rows.append(
            ["TOTAL", self.injected_total]
            + [outcomes.get(label, 0) for label in PRIMARY_OUTCOMES]
        )
        matrix = format_table(
            f"Fault campaign -- primary outcome per injected fault "
            f"({self.operations} ops, seed {self.seed})",
            ["fault model", "injected", "CE retry", "CE mac", "CE f&c",
             "DUE", "SDC", "absorbed"],
            rows,
        )
        summary = format_series(
            "Reliability summary",
            {
                "operations": self.operations,
                "reads / writes": f"{self.reads} / {self.writes}",
                "log events": self.log_events,
                "CE total (incl. recurrences)": self.ce_total,
                "DUE total": self.due_total,
                "SDC total": self.sdc_total,
                "DUE blocks rewritten": self.due_rewrites,
                "blocks retired": self.retired_blocks,
                "blocks degraded": self.degraded_blocks,
                "spares remaining": self.spares_remaining,
                "recovery cycles spent": self.cycles_spent,
                "reconciles": "yes" if self.reconciles() else "NO",
            },
        )
        sweep = (
            f"final ground-truth sweep: {self.ground_truth_mismatches} "
            f"mismatches over {self.written_blocks} written blocks"
        )
        return "\n\n".join([matrix, summary, self.log_summary, sweep])


class FaultCampaign:
    """Drive seeded traffic + fault arrivals against a ResilientMemory.

    One operation draws the RNG in a fixed order: model arrivals, then
    each arrival's faults and demand reads, then the background block,
    write/read coin and payload.  The torture campaign adds its crash
    and checkpoint schedule around the same :meth:`_traffic_op`.
    """

    def __init__(
        self,
        memory: ResilientMemory,
        models: list[FaultModel],
        *,
        seed: int = 1,
        write_fraction: float = 0.25,
        scrub_interval: int = 0,
    ):
        if not 0 <= write_fraction <= 1:
            raise ValueError("write_fraction must be in [0, 1]")
        if scrub_interval < 0:
            raise ValueError("scrub_interval must be >= 0")
        self.memory = memory
        self.models = list(models)
        self.seed = seed
        self.rng = random.Random(seed)
        self.write_fraction = write_fraction
        self.scrub_interval = scrub_interval
        self.shadow = ShadowOracle(unacked=ZERO_BLOCK)
        self._next_fault_id = 0

    # -- memory access (the torture campaign batches and journals these) ----

    def _write(self, address: int, data: bytes) -> None:
        self.memory.write(address, data)
        self.shadow.ack([(address, data)])

    def _read(self, address: int, report, why: str):
        """One read: SDC detection against the shadow, DUE repair."""
        rec = self.memory.read(address)
        report.reads += 1
        if not rec.ok:
            self._repair_due(address, report)
        elif self.shadow.check(address, rec.data) == SDC:
            report.sdc_total += 1
            self._on_sdc(address, why)
        return rec

    def _on_sdc(self, address: int, why: str) -> None:
        self.memory.log.log(
            cycle=self.memory.cycle,
            address=self.memory.physical_address(address),
            logical_address=address,
            fault_class="campaign",
            outcome=EventOutcome.SDC,
            detail="recovered data disagrees with ground truth",
        )

    def _repair_due(self, address: int, report) -> None:
        """Software repair after a DUE: rewrite the lost block."""
        self.memory.write(address, self.shadow.expected(address))
        report.due_rewrites += 1

    # -- the traffic and fault loop -----------------------------------------

    def _inject_and_observe(
        self, model: FaultModel, spec: FaultSpec, report
    ) -> None:
        """Inject one fault spec, then issue the demand read that
        discovers it; classify the primary outcome."""
        address = spec.block * BLOCK_BYTES
        self.memory.inject_fault(
            address,
            data_bits=spec.data_bits,
            ecc_bits=spec.ecc_bits,
            persistence=spec.persistence,
            fault_class=model.fault_class,
            fault_id=self._next_fault_id,
        )
        self._next_fault_id += 1
        report.injected[model.name] += 1
        rec = self._read(address, report, "demand")
        report.observe(model.name, _STAGE_TO_PRIMARY[rec.stage])

    def _traffic_op(self, report) -> None:
        report.operations += 1
        capacity = self.memory.capacity_blocks
        for model in self.models:
            for _ in range(model.arrivals(self.rng)):
                for spec in model.draw(self.rng, capacity):
                    self._inject_and_observe(model, spec, report)
        address = self.rng.randrange(capacity) * BLOCK_BYTES
        if self.rng.random() < self.write_fraction:
            data = self.rng.getrandbits(BLOCK_BITS).to_bytes(
                BLOCK_BYTES, "little"
            )
            report.writes += 1
            self._write(address, data)
        else:
            self._read(address, report, "background")

    def run(self, operations: int) -> CampaignReport:
        """Run the campaign and its final ground-truth sweep; fully
        deterministic for a given seed."""
        report = CampaignReport(
            seed=self.seed, capacity_blocks=self.memory.capacity_blocks
        )
        for op in range(operations):
            self._traffic_op(report)
            if (
                self.scrub_interval
                and (op + 1) % self.scrub_interval == 0
                and self.memory.scrubber is not None
            ):
                self.memory.scrub(repair=True)
        log = self.memory.log
        report.log_events = len(log)
        report.ce_total = log.ce_total
        report.due_total = log.due_total
        report.cycles_spent = self.memory.cycle
        self._tally_quarantine(report)
        # The sweep re-reads every written block (and may retire a few
        # last blocks), so the log's table is taken before it.
        report.log_summary = log.format_summary()
        report.ground_truth_mismatches = self.verify_all()
        report.written_blocks = len(self.shadow.acked)
        return report

    def _tally_quarantine(self, report) -> None:
        quarantine = self.memory.quarantine
        report.retired_blocks = quarantine.retired_count
        report.degraded_blocks = quarantine.degraded_count
        report.spares_remaining = quarantine.spares_remaining

    def verify_all(self) -> int:
        """Final sweep: read every block ever written and count
        ground-truth mismatches (must be 0 for a sound run)."""
        observed = {}
        for address in self.shadow.sweep():
            rec = self.memory.read(address)
            observed[address] = rec.data if rec.ok else None
        return self.shadow.verify(observed)[SDC]


def run_campaign(spec: CampaignSpec) -> CampaignReport:
    """One campaign from its spec: a seed-keyed :class:`ResilientMemory`
    under the spec's fault mix, ending in the ground-truth sweep."""
    config = preset(
        spec.preset, protected_bytes=spec.region_kb * 1024,
        keystream_mode="splitmix",
    )
    # Key derived from the seed so the whole run is reproducible.
    key = bytes(random.Random(spec.seed).randrange(256) for _ in range(48))
    memory = ResilientMemory(
        config, key, spare_blocks=spec.spare_blocks,
        ce_threshold=spec.ce_threshold,
        retry_policy=RetryPolicy(max_retries=spec.max_retries),
    )
    return FaultCampaign(
        memory, spec.models(), seed=spec.seed,
        write_fraction=spec.write_fraction,
        scrub_interval=spec.scrub_interval if config.mac_in_ecc else 0,
    ).run(spec.operations)


__all__ = [
    "CampaignReport",
    "CampaignSpec",
    "FaultCampaign",
    "FaultModel",
    "FaultRates",
    "FaultSpec",
    "TransientSEU",
    "StuckAtBit",
    "RowBurst",
    "ScenarioFaultModel",
    "poisson_draw",
    "run_campaign",
    "PRIMARY_OUTCOMES",
]
