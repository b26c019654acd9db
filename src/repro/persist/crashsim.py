"""Exhaustive crash-point injection: the harness behind ``repro crash``.

The engine above the :class:`~repro.persist.store.DurableStore` is
deterministic, and every durable mutation is a numbered step.  So the
crash matrix is *exhaustive*, not sampled:

1. run a recorded workload once with no crash armed (the **baseline**)
   and read back the store's step trace;
2. enumerate one ``skip`` crash point per step, plus one ``torn`` point
   per tearable step (multi-byte payload writes);
3. for each point, re-run the identical workload against a store armed
   at that step, let it crash, run full recovery
   (:meth:`repro.stack.EngineStack.recover`), and check the invariants
   through the :class:`~repro.harness.oracle.ShadowOracle` the run kept
   (acks pin values, the crash turns in-flight writes into candidates):

   * **durability** -- every *acknowledged* write reads back with its
     acknowledged data (work in flight at the crash may land or vanish,
     but nothing acknowledged may be lost or torn);
   * **atomicity** -- with ``batch > 0`` the in-flight *batch* is the
     unit in flight: its single group-commit frame either sealed (every
     batched write lands) or did not (none land) -- a crash can never
     split a batch;
   * **anti-replay** -- no encryption counter regresses below its value
     at the last acknowledgement (unless a global re-encryption epoch
     legitimately restarted the counter space);
   * **integrity** -- the recomputed Bonsai root equals the last
     acknowledged root digest (recovery itself refuses to resume
     otherwise), and the recovered engine stays live (a post-recovery
     write + read round-trips);
   * **quarantine consistency** (``resilient=True``) -- the recovered
     logical->physical mapping equals the mapping at the last sealed
     resilience record: either the last completed operation's state or,
     when the crash interrupted a read mid-retirement, the crash-time
     state -- and no retired block is ever resurrected.

The workload itself runs through the composed
:class:`~repro.stack.EngineStack`, so ``batch > 0`` exercises
group-commit journaling (one sealed frame per flushed write run --
including the *torn group-commit frame* points) and ``resilient=True``
interleaves stuck-fault injection, CE retirement (journaled), and a
spares-exhausted degrade into the same step trace.

``repro crash --point STEP:PHASE`` re-runs any single point with the
same arming, which reproduces the crash state bit-for-bit.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field
from typing import Any

from repro.core.engine.config import PRESETS, EngineConfig, preset
from repro.core.engine.secure_memory import IntegrityError
from repro.harness.oracle import SDC, ZERO_BLOCK, ShadowOracle
from repro.lint.contracts import BLOCK_BYTES
from repro.obs.metrics import MetricRegistry
from repro.persist.config import DurabilityConfig
from repro.persist.recovery import RecoveryError, RecoveryReport
from repro.persist.store import CrashPlan, DurableStore, SimulatedCrash
from repro.stack import EngineStack

_DEFAULT_SEED = 0xDAC2018

#: workload operations: ("write", address, data) / ("read", address) /
#: ("fault", address, data_bits)
WorkloadOp = tuple


@dataclass(frozen=True)
class StepRecord:
    """One durable mutation as seen by the crash matrix."""

    step: int
    label: str
    tearable: bool


@dataclass
class RecordingStore(DurableStore):
    """A :class:`DurableStore` that keeps every step it takes, in order.

    The crash matrix enumerates the baseline run's steps and labels each
    point with its step; a plain store keeps no trace, so a long-lived
    one (a service tenant's) does not grow with every write.
    """

    trace: list[StepRecord] = field(default_factory=list)

    def _mutate(self, label, tearable, apply_full, apply_torn=None):
        self.trace.append(StepRecord(self.step, label, tearable))
        super()._mutate(label, tearable, apply_full, apply_torn)


#: Small field widths per preset, so the crash and torture workloads
#: actually exercise the overflow paths (reset, re-encode, group/global
#: re-encrypt): 2-bit monolithic counters wrap within the default runs.
STRESS_SCHEME_KWARGS: dict[str, tuple[tuple[str, Any], ...]] = {
    "bmt_baseline": (("counter_bits", 2),),
    "mac_in_ecc": (("counter_bits", 2),),
    "delta_only": (("delta_bits", 2),),
    "combined": (("delta_bits", 2),),
    "combined_dual": (("base_delta_bits", 2), ("extension_bits", 2)),
    # The preset's own 2+2-bit widths: an empty tuple would wipe them.
    "endurance": tuple(PRESETS["endurance"].scheme_kwargs.items()),
}


@dataclass(frozen=True)
class StressSpec:
    """The engine a crash or torture scenario runs: a preset over a
    region of ``group_count`` counter block-groups, with stress widths.

    ``scheme_kwargs`` left ``None`` takes the preset's entry in
    :data:`STRESS_SCHEME_KWARGS`, so every preset overflows within the
    default workloads.
    """

    preset: str = "combined"
    scheme_kwargs: tuple[tuple[str, Any], ...] | None = None
    group_count: int = 2
    seed: int = _DEFAULT_SEED
    batch: int = 0  # writes per group-commit flush (0 = scalar)
    spare_blocks: int = 1
    ce_threshold: int = 1

    def __post_init__(self) -> None:
        if self.scheme_kwargs is None:
            if self.preset not in STRESS_SCHEME_KWARGS:
                raise ValueError(f"unknown preset {self.preset!r}")
            object.__setattr__(
                self, "scheme_kwargs", STRESS_SCHEME_KWARGS[self.preset]
            )
        if self.group_count < 1:
            raise ValueError("group_count must be >= 1")
        if self.batch < 0:
            raise ValueError("batch must be >= 0")

    def engine_config(self) -> EngineConfig:
        return preset(
            self.preset,
            protected_bytes=self.group_count * 64 * BLOCK_BYTES,
            scheme_kwargs=dict(self.scheme_kwargs),
            keystream_mode="splitmix",
        )

    def to_json(self) -> dict[str, Any]:
        return {**asdict(self), "scheme_kwargs": dict(self.scheme_kwargs)}


@dataclass(frozen=True)
class CrashSimSpec(StressSpec):
    """One deterministic crash-matrix scenario.

    The defaults are sized to finish an exhaustive matrix in seconds
    while still exercising every journal/checkpoint path: tiny 2-bit
    deltas overflow fast (reset, re-encode, *and* group re-encrypt all
    fire), and a short checkpoint interval interleaves checkpoint steps
    with journal steps.

    ``batch > 0`` runs the workload through the batched facade, flushing
    every ``batch`` writes -- each flush seals one group-commit journal
    frame.  ``resilient=True`` adds the resilience layer (addresses
    become logical) and splices deterministic stuck faults + reads into
    the workload: the first retires a block (journaled, consuming a
    spare), the second exhausts the pool and degrades.
    """

    workload_blocks: int = 4  # distinct addresses the workload touches
    ops: int = 20
    checkpoint_interval: int = 4
    journal_capacity_records: int = 64
    resilient: bool = False

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.ops < 1 or self.workload_blocks < 1:
            raise ValueError("ops and workload_blocks must be >= 1")

    def durability(self) -> DurabilityConfig:
        return DurabilityConfig(
            checkpoint_interval=self.checkpoint_interval,
            journal_capacity_records=self.journal_capacity_records,
        )

    def resilience_kwargs(self) -> dict[str, Any] | None:
        if not self.resilient:
            return None
        return {
            "spare_blocks": self.spare_blocks,
            "ce_threshold": self.ce_threshold,
        }


def build_workload(spec: CrashSimSpec) -> list[tuple[int, bytes]]:
    """The recorded (address, data) write sequence -- pure f(seed)."""
    rng = random.Random(spec.seed)
    ops: list[tuple[int, bytes]] = []
    for _ in range(spec.ops):
        block = rng.randrange(spec.workload_blocks)
        data = bytes(rng.randrange(256) for _ in range(BLOCK_BYTES))
        ops.append((block * BLOCK_BYTES, data))
    return ops


def build_ops(spec: CrashSimSpec) -> list[WorkloadOp]:
    """The full op sequence: writes, plus fault/read splices when
    resilient.  Pure f(seed), like :func:`build_workload`."""
    ops: list[WorkloadOp] = [
        ("write", address, data) for address, data in build_workload(spec)
    ]
    if spec.resilient:
        first, second = spec.ops // 3, (2 * spec.ops) // 3
        splices = [
            (first, ("fault", 0, (7,))),
            (first + 1, ("read", 0)),  # CE -> retire (journaled)
            (second, ("fault", BLOCK_BYTES, (11,))),
            (second + 1, ("read", BLOCK_BYTES)),  # spares dry -> degrade
            (len(ops), ("read", 0)),  # remapped block serves cleanly
        ]
        for offset, (position, op) in enumerate(splices):
            ops.insert(position + offset, op)
    return ops


@dataclass
class RunState:
    """Everything one (possibly crashed) workload run leaves behind."""

    store: RecordingStore
    #: acked values, counter floor and sealed quarantine mappings
    oracle: ShadowOracle
    inflight: list[tuple[int, bytes]]  # writes un-acked at the crash
    crash: SimulatedCrash | None


def run_workload(
    spec: CrashSimSpec, plan: CrashPlan | None = None
) -> RunState:
    """Run the spec's workload, optionally crashing at an armed step."""
    registry = MetricRegistry()
    store = RecordingStore(plan=plan)
    key = bytes(range(48))
    oracle = ShadowOracle(unacked=ZERO_BLOCK)
    state = RunState(store=store, oracle=oracle, inflight=[], crash=None)
    if spec.resilient:
        # The sealed floor before anything runs is the pristine map --
        # a crash during provisioning must recover exactly this.
        total = spec.engine_config().total_blocks
        oracle.mapping = {
            "map": {},
            "retired": {},
            "free_spares": list(range(total - spec.spare_blocks, total)),
            "degraded": [],
        }
    try:
        stack = EngineStack(
            spec.engine_config(),
            key,
            fast=spec.batch > 0,
            durability=spec.durability(),
            store=store,
            resilience=spec.resilience_kwargs(),
            registry=registry,
        )
    except SimulatedCrash as crash:
        state.crash = crash  # died during provisioning, before any ack
        return state
    oracle.pin(stack)
    pending: list[tuple[int, bytes]] = []

    def ack() -> None:
        oracle.ack(state.inflight)
        state.inflight = []
        oracle.pin(stack)

    def flush_pending() -> None:
        if not pending:
            return
        state.inflight = list(pending)
        pending.clear()
        stack.flush()
        ack()

    try:
        for op in build_ops(spec):
            if op[0] == "write":
                if spec.batch > 0:
                    stack.write(op[1], op[2])
                    pending.append((op[1], op[2]))
                    if len(pending) >= spec.batch:
                        flush_pending()
                else:
                    state.inflight = [(op[1], op[2])]
                    stack.write(op[1], op[2])
                    ack()
            elif op[0] == "read":
                flush_pending()
                stack.read(op[1])
                # Read side effects (retirement relocation + journaled
                # resilience records) acknowledged with the read's return.
                ack()
            else:  # fault injection: volatile, no durable steps
                assert stack.resilient is not None
                stack.resilient.inject_fault(
                    op[1],
                    data_bits=op[2],
                    persistence="stuck",
                    fault_class="crashsim",
                )
        flush_pending()
    except SimulatedCrash as crash:
        state.crash = crash
        oracle.crash(stack, state.inflight)
    return state


def enumerate_points(trace: list[StepRecord]) -> list[CrashPlan]:
    """The full matrix: skip every step, tear every tearable step."""
    points: list[CrashPlan] = []
    for record in trace:
        points.append(CrashPlan(record.step, "skip"))
        if record.tearable:
            points.append(CrashPlan(record.step, "torn"))
    return points


def point_id(plan: CrashPlan) -> str:
    return f"{plan.step}:{plan.phase}"


def parse_point(text: str) -> CrashPlan:
    """Parse ``STEP:PHASE`` (e.g. ``17:torn``) back into a plan."""
    step_text, _, phase = text.partition(":")
    try:
        return CrashPlan(int(step_text), phase or "skip")
    except (ValueError, TypeError) as err:
        raise ValueError(
            f"bad crash point {text!r}: expected STEP or STEP:PHASE "
            "with PHASE in {skip, torn}"
        ) from err


@dataclass
class CrashPointOutcome:
    """Verdict for one injected crash point."""

    point: str
    label: str  # the store step's label, e.g. "journal.seal[lsn=4]"
    acked_writes: int
    crashed: bool
    recovered: bool
    violations: list[str] = field(default_factory=list)
    recovery: RecoveryReport | None = None

    @property
    def clean(self) -> bool:
        return self.crashed and self.recovered and not self.violations

    def to_json(self) -> dict[str, Any]:
        return {
            "point": self.point,
            "label": self.label,
            "acked_writes": self.acked_writes,
            "crashed": self.crashed,
            "recovered": self.recovered,
            "violations": list(self.violations),
            "clean": self.clean,
            "recovery": (
                self.recovery.to_json() if self.recovery is not None else None
            ),
        }


def _read_back(stack: EngineStack, address: int) -> tuple[bytes | None, str]:
    """One post-recovery read: (data, "") or (None, why)."""
    try:
        result = stack.read(address)
    except IntegrityError as err:
        return None, str(err)
    if not getattr(result, "ok", True):
        return None, "resilient read failed (DUE)"
    return result.data, ""


def _check_invariants(
    state: RunState,
    stack: EngineStack,
    outcome: CrashPointOutcome,
) -> None:
    """The crash-consistency invariants, plus liveness."""
    oracle = state.oracle
    #: final value per in-flight address (a batch may hit one twice)
    inflight_final = dict(state.inflight)
    # (1) durability: every acked address reads back its acked value,
    # every in-flight one its acked or its in-flight value; and
    # (1b) atomicity: the in-flight batch lands whole or not at all --
    # one sealed group-commit frame is the all-or-nothing unit.
    landed: set[bool] = set()
    for address in oracle.sweep():
        got, why = _read_back(stack, address)
        if got is None:
            outcome.violations.append(
                f"address {address:#x} unreadable after recovery: {why}"
            )
        elif oracle.check(address, got) == SDC:
            outcome.violations.append(
                f"address {address:#x} recovered to neither its acked nor "
                "its in-flight value"
            )
        elif address in inflight_final and (
            inflight_final[address] != oracle.expected(address)
        ):
            landed.add(got == inflight_final[address])
    if len(landed) > 1:
        outcome.violations.append(
            "group commit split: crash landed part of an in-flight batch"
        )
    # (2) anti-replay and (4) quarantine consistency.
    outcome.violations.extend(oracle.recovery_violations(stack))
    # (3) integrity: recovery verified the root (recorded in the report).
    if outcome.recovery is not None and not outcome.recovery.root_verified:
        outcome.violations.append("tree root not verified by recovery")
    # Liveness: the resumed stack must accept and authenticate new writes.
    probe = b"\xa5" * BLOCK_BYTES
    try:
        stack.write(0, probe)
        stack.flush()
        got, why = _read_back(stack, 0)
        if got != probe:
            outcome.violations.append(
                f"post-recovery write did not stick ({why or 'stale data'})"
            )
    except (IntegrityError, RuntimeError) as err:
        outcome.violations.append(f"post-recovery liveness failed: {err}")


def run_point(spec: CrashSimSpec, plan: CrashPlan) -> CrashPointOutcome:
    """Inject one crash point, recover, and verify the invariants."""
    state = run_workload(spec, plan=plan)
    trace = state.store.trace
    label = (
        trace[plan.step].label if plan.step < len(trace) else "<never reached>"
    )
    outcome = CrashPointOutcome(
        point=point_id(plan),
        label=label,
        acked_writes=len(state.oracle.acked),
        crashed=state.crash is not None,
        recovered=False,
    )
    if state.crash is None:
        outcome.violations.append("armed step was never reached")
        return outcome
    state.store.plan = None  # the machine rebooted; nothing armed now
    registry = MetricRegistry()
    try:
        stack, report = EngineStack.recover(
            state.store,
            spec.engine_config(),
            bytes(range(48)),
            fast=spec.batch > 0,
            durability=spec.durability(),
            resilience=spec.resilience_kwargs(),
            registry=registry,
        )
    except RecoveryError as err:
        outcome.violations.append(f"recovery failed: {err}")
        return outcome
    outcome.recovered = True
    outcome.recovery = report
    _check_invariants(state, stack, outcome)
    return outcome


@dataclass
class CrashMatrixReport:
    """Aggregate verdict over the (possibly bounded) crash matrix."""

    spec: CrashSimSpec
    total_points: int  # full matrix size for this workload
    outcomes: list[CrashPointOutcome] = field(default_factory=list)

    @property
    def run_points(self) -> int:
        return len(self.outcomes)

    @property
    def clean_points(self) -> int:
        return sum(1 for o in self.outcomes if o.clean)

    @property
    def violations(self) -> list[CrashPointOutcome]:
        return [o for o in self.outcomes if not o.clean]

    @property
    def exhaustive(self) -> bool:
        return self.run_points == self.total_points

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict[str, Any]:
        return {
            "spec": self.spec.to_json(),
            "total_points": self.total_points,
            "run_points": self.run_points,
            "clean_points": self.clean_points,
            "exhaustive": self.exhaustive,
            "ok": self.ok,
            "outcomes": [o.to_json() for o in self.outcomes],
        }

    def format_summary(self) -> str:
        scope = "exhaustive" if self.exhaustive else "bounded"
        lines = [
            f"crash matrix ({scope}): {self.clean_points}/{self.run_points} "
            f"points clean ({self.total_points} total for this workload)"
        ]
        for bad in self.violations:
            lines.append(f"  FAIL {bad.point} [{bad.label}]")
            for violation in bad.violations:
                lines.append(f"       {violation}")
        return "\n".join(lines)


def run_matrix(
    spec: CrashSimSpec,
    limit: int | None = None,
    stride: int = 1,
) -> CrashMatrixReport:
    """Run the crash matrix: every point, or a bounded, evenly-spread
    subset (``stride``/``limit``, for CI smoke runs).

    The baseline run must complete without crashing -- it defines the
    step trace the matrix enumerates.
    """
    if stride < 1:
        raise ValueError("stride must be >= 1")
    baseline = run_workload(spec, plan=None)
    if baseline.crash is not None:
        raise RuntimeError("baseline run crashed with no plan armed")
    points = enumerate_points(baseline.store.trace)
    report = CrashMatrixReport(spec=spec, total_points=len(points))
    selected = points[::stride]
    if limit is not None:
        selected = selected[:limit]
    for plan in selected:
        report.outcomes.append(run_point(spec, plan))
    return report


__all__ = [
    "CrashMatrixReport",
    "CrashPointOutcome",
    "CrashSimSpec",
    "RecordingStore",
    "RunState",
    "STRESS_SCHEME_KWARGS",
    "StepRecord",
    "StressSpec",
    "build_ops",
    "build_workload",
    "enumerate_points",
    "parse_point",
    "point_id",
    "run_matrix",
    "run_point",
    "run_workload",
]
