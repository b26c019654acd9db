"""Combined crash x fault torture: the harness behind ``repro torture``.

The crash matrix (:mod:`repro.persist.crashsim`) proves the journal
protocol against *every* crash point of a short deterministic workload;
the fault campaign (:mod:`repro.resilience.campaign`) proves the
recovery/quarantine machinery against sustained Poisson fault arrivals.
Each leaves the other's failure mode untested: a crash can land while
the quarantine map, error log and spare pool are mid-evolution, and a
fault can strike state that a recent recovery just rebuilt.

This module interleaves both: :class:`TortureCampaign` is the fault
campaign's traffic and fault loop plus a crash and checkpoint schedule.
One composed :class:`~repro.stack.EngineStack` (fast x durable x
resilient) runs over a single :class:`~repro.persist.store.DurableStore`
for the whole campaign, while the harness:

* drives seeded background traffic through the batched write path (each
  flush seals one group-commit transaction);
* injects Poisson fault arrivals -- transient SEUs, stuck-at cells, row
  bursts -- each followed by the demand read that discovers it (CE
  recovery, DUE accounting, quarantine retirement, spare remapping);
* crashes the stack at the end of every cycle (drop the volatile half,
  keep the store), runs full recovery via :meth:`EngineStack.recover`,
  and verifies the rebuilt state against the ground-truth
  :class:`~repro.harness.oracle.ShadowOracle` before traffic resumes.

Per-recovery verification (one violation string per breach):

* **no SDC** -- every acknowledged block reads back its acknowledged
  data (a detected-uncorrectable read is *not* a breach: the data was
  destroyed by injected physics, flagged, and is repaired from the
  shadow, exactly as the campaign engine does);
* **no replay** -- no encryption counter regresses below its value at
  the last acknowledgement;
* **quarantine consistency** -- the recovered logical->physical
  mapping, retired set, spare pool and degraded set equal the sealed
  state, which between operations is the crash-time state
  (retire/degrade records are journaled immediately); a block retired
  at any point in the campaign is never resurrected;
* **telemetry consistency** -- the recovered error-log accounting and
  CE/DUE health history equal the snapshot taken at the last explicit
  checkpoint (telemetry is checkpoint-cadence durable by design, so
  the harness checkpoints on a fixed cadence and keeps the shadow);
* **integrity** -- recovery verified the Bonsai root (it refuses to
  resume otherwise; the report records it).

Volatile fault state (registered stuck/in-flight masks) does *not*
survive a crash: a power cycle is modeled as a fresh power-on of the
memory parts.  What must survive -- and what the shadow oracle checks --
is the *durable* residue of every fault: the quarantine map that
retired blocks, the spare pool it consumed, and the error-log totals.

Everything is a pure function of ``TortureSpec.seed``: one
``random.Random`` drives traffic, fault arrivals and payloads, so any
reported violation replays bit-for-bit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any

from repro.core.engine.secure_memory import IntegrityError
from repro.harness.reporting import format_series, format_table
from repro.obs.metrics import MetricRegistry
from repro.persist.config import DurabilityConfig
from repro.persist.crashsim import StressSpec
from repro.persist.recovery import RecoveryError
from repro.persist.store import DurableStore
from repro.resilience.campaign import CampaignReport, FaultCampaign, FaultRates
from repro.stack import EngineStack


@dataclass(frozen=True)
class TortureSpec(StressSpec, FaultRates):
    """One deterministic torture scenario (pure function of ``seed``).

    The defaults run 100 crash-recovery cycles -- the acceptance bar --
    over a small region in a few seconds: tiny 2-bit deltas keep the
    counter paths (reset, re-encode, group/global re-encrypt) firing,
    ``ce_threshold=1`` retires on first corrected error so the 3-block
    spare pool both fills and exhausts (degraded blocks appear), and
    every cycle ends in a crash with whatever the batch queue holds.
    """

    batch: int = 4  # writes per group-commit flush
    spare_blocks: int = 3
    cycles: int = 100
    ops_per_cycle: int = 20
    kernel_mode: str = "fast"
    checkpoint_every: int = 5  # cycles between explicit checkpoints
    due_threshold: int = 2
    write_fraction: float = 0.45
    transient_rate: float = 0.04
    stuck_rate: float = 0.01
    burst_rate: float = 0.002

    def __post_init__(self) -> None:
        StressSpec.__post_init__(self)
        FaultRates.__post_init__(self)
        if self.cycles < 1 or self.ops_per_cycle < 1:
            raise ValueError("cycles and ops_per_cycle must be >= 1")
        if self.batch < 1:
            raise ValueError("batch must be >= 1")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if self.spare_blocks < 0:
            raise ValueError("spare_blocks must be >= 0")
        if not 0 <= self.write_fraction <= 1:
            raise ValueError("write_fraction must be in [0, 1]")

    def durability(self) -> DurabilityConfig:
        # Checkpoints fire only when the harness asks: the telemetry
        # shadow is snapshotted at the same instant, so "recovered
        # errlog == shadow" is an exact equality, not a window.
        return DurabilityConfig(
            checkpoint_interval=0,
            journal_capacity_records=0,
            checkpoint_on_global_reencrypt=False,
        )

    def resilience_kwargs(self) -> dict[str, Any]:
        return {
            "spare_blocks": self.spare_blocks,
            "ce_threshold": self.ce_threshold,
            "due_threshold": self.due_threshold,
        }


@dataclass
class TortureReport(CampaignReport):
    """Aggregate verdict over one torture campaign: the fault campaign's
    counters plus the crash schedule's."""

    spec: TortureSpec = field(default_factory=TortureSpec)
    cycles_run: int = 0
    recoveries: int = 0
    checkpoints: int = 0
    group_commits: int = 0
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations and self.sdc_total == 0

    def to_json(self) -> dict[str, Any]:
        return {
            **self._counters_json(),
            "spec": self.spec.to_json(),
            "cycles_run": self.cycles_run,
            "recoveries": self.recoveries,
            "checkpoints": self.checkpoints,
            "group_commits": self.group_commits,
            "primary": dict(sorted(self.outcomes.items())),
            "due_repairs": self.due_rewrites,
            "violations": list(self.violations),
            "ok": self.ok,
        }

    def format_summary(self) -> str:
        injected = format_table(
            f"Torture campaign -- fault arrivals "
            f"({self.cycles_run} crash cycles, seed {self.seed})",
            ["fault model", "injected"],
            [[name, count] for name, count in sorted(self.injected.items())]
            + [["TOTAL", self.injected_total]],
        )
        summary = format_series(
            "Crash x fault summary",
            {
                "crash-recovery cycles": self.recoveries,
                "explicit checkpoints": self.checkpoints,
                "writes / reads": f"{self.writes} / {self.reads}",
                "group commits sealed": self.group_commits,
                "primary outcomes": ", ".join(
                    f"{k}={v}" for k, v in sorted(self.outcomes.items())
                ) or "none",
                "DUE blocks repaired": self.due_rewrites,
                "blocks retired": self.retired_blocks,
                "blocks degraded": self.degraded_blocks,
                "spares remaining": self.spares_remaining,
                "SDC total": self.sdc_total,
                "violations": len(self.violations),
                "verdict": "OK" if self.ok else "FAIL",
            },
        )
        lines = [injected, "", summary]
        for violation in self.violations:
            lines.append(f"  FAIL {violation}")
        return "\n".join(lines)


class TortureCampaign(FaultCampaign):
    """The fault campaign's traffic and fault loop, plus a crash and
    checkpoint schedule: an explicit checkpoint every
    ``checkpoint_every`` cycles, a crash and verified recovery at the end
    of every cycle."""

    def __init__(self, spec: TortureSpec):
        self.spec = spec
        self.key = bytes(
            random.Random(spec.seed ^ 0x5EED).randrange(256)
            for _ in range(48)
        )
        self.registry = MetricRegistry()
        self.store = DurableStore()
        self.stack = EngineStack(
            spec.engine_config(),
            self.key,
            kernel_mode=spec.kernel_mode,
            durability=spec.durability(),
            store=self.store,
            resilience=spec.resilience_kwargs(),
            registry=self.registry,
        )
        super().__init__(
            self.stack.resilient,
            spec.models(),
            seed=spec.seed,
            write_fraction=spec.write_fraction,
        )
        self.report = TortureReport(seed=spec.seed, spec=spec)
        #: telemetry captured at the last explicit checkpoint
        self.checkpoint_errlog = self.stack.resilient.log.state_dict()
        self.checkpoint_health = self._health_state()
        #: writes held for the next group commit (not yet acknowledged)
        self.pending: list[tuple[int, bytes]] = []
        self.cycle = 0

    # -- memory access: batched writes, acknowledged at each flush ----------

    def _flush_ack(self) -> None:
        """Seal the pending write run (one group commit) and acknowledge."""
        if self.pending:
            self.stack.write_many(self.pending)
            self.report.group_commits += 1
            self.shadow.ack(self.pending)
            self.pending.clear()
        self.shadow.pin(self.stack)

    def _write(self, address: int, data: bytes) -> None:
        self.pending.append((address, data))
        if len(self.pending) >= self.spec.batch:
            self._flush_ack()

    def _read(self, address: int, report, why: str):
        self._flush_ack()  # reads observe only acknowledged state
        rec = super()._read(address, report, why)
        # Retirement/degrade side effects sealed inside the read; the
        # acknowledged floor moves with them.
        self.shadow.pin(self.stack)
        return rec

    def _on_sdc(self, address: int, why: str) -> None:
        self.report.violations.append(
            f"cycle {self.cycle}: SDC on {why} read of address "
            f"{address:#x} (data disagrees with ground truth)"
        )

    def _repair_due(self, address: int, report) -> None:
        # Detected-uncorrectable: data destroyed by injected physics,
        # flagged, software-repaired from the shadow -- the same
        # contract the fault campaign enforces.
        report.due_rewrites += 1
        report.writes += 1
        self._write(address, self.shadow.expected(address))
        self._flush_ack()

    # -- the crash and checkpoint schedule ----------------------------------

    def _health_state(self) -> dict[str, Any]:
        return self.stack.resilient.quarantine.state_dict()["health"]

    def _checkpoint(self) -> None:
        """Explicit checkpoint + the telemetry shadow snapshot."""
        self._flush_ack()
        self.stack.checkpoint()
        self.report.checkpoints += 1
        self.checkpoint_errlog = self.stack.resilient.log.state_dict()
        self.checkpoint_health = self._health_state()

    def _crash_and_recover(self) -> None:
        """Power-cut the volatile half, recover, verify vs the shadow."""
        # Nothing is in flight between operations: pending writes were
        # never handed to the stack, so they are not candidates.
        self.shadow.crash(self.stack)
        self.pending.clear()
        try:
            self.stack, recovery = EngineStack.recover(
                self.store,
                self.spec.engine_config(),
                self.key,
                kernel_mode=self.spec.kernel_mode,
                durability=self.spec.durability(),
                resilience=self.spec.resilience_kwargs(),
                registry=self.registry,
            )
        except RecoveryError as err:
            self.report.violations.append(
                f"cycle {self.cycle}: recovery failed: {err}"
            )
            raise
        self.memory = self.stack.resilient
        self.report.recoveries += 1
        self._verify_recovery(recovery)

    def _verify_recovery(self, recovery) -> None:
        bad = self.shadow.recovery_violations(self.stack)
        # Integrity: recovery must have verified the rebuilt root.
        if not recovery.root_verified:
            bad.append("tree root not verified by recovery")
        # Telemetry: checkpoint-cadence durable -- recovered accounting
        # equals the snapshot at the last explicit checkpoint, exactly.
        if self.stack.resilient.log.state_dict() != self.checkpoint_errlog:
            bad.append("error-log accounting diverged from the last "
                       "checkpoint snapshot")
        if self._health_state() != self.checkpoint_health:
            bad.append("CE/DUE health history diverged from the last "
                       "checkpoint snapshot")
        # No SDC: every acknowledged block reads back (DUEs repaired).
        for address in self.shadow.sweep():
            try:
                self._read(address, self.report, "verification")
            except IntegrityError as err:
                bad.append(f"verification read of address {address:#x} "
                           f"raised integrity error: {err}")
        self.report.violations.extend(
            f"cycle {self.cycle}: {violation}" for violation in bad
        )

    # -- entry point ---------------------------------------------------------

    def run(self, limit: int | None = None) -> TortureReport:
        """Run the campaign (optionally bounded to ``limit`` cycles)."""
        cycles = self.spec.cycles if limit is None else min(
            self.spec.cycles, limit
        )
        self.shadow.pin(self.stack)
        for self.cycle in range(cycles):
            if self.cycle % self.spec.checkpoint_every == 0:
                self._checkpoint()
            for _ in range(self.spec.ops_per_cycle):
                self._traffic_op(self.report)
            self.report.cycles_run = self.cycle + 1
            self._crash_and_recover()
        self._tally_quarantine(self.report)
        return self.report


def run_torture(
    spec: TortureSpec, limit: int | None = None
) -> TortureReport:
    """Convenience wrapper: one campaign, one report."""
    return TortureCampaign(spec).run(limit=limit)


__all__ = [
    "TortureCampaign",
    "TortureReport",
    "TortureSpec",
    "run_torture",
]
