"""The one shadow oracle every correctness harness checks against."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.harness.oracle import (
    AMBIGUOUS_OK,
    OK,
    SDC,
    SKIPPED,
    ZERO_BLOCK,
    ShadowOracle,
)

A = b"\x0a" * 64
B = b"\x0b" * 64
C = b"\x0c" * 64
ADDR = 0x40

#: (name, unacked default, transitions, value seen at ADDR, verdict)
CASES = [
    ("ack pins a value", None, [("ack", A)], A, OK),
    ("ack pins only that value", None, [("ack", A)], B, SDC),
    ("a later ack replaces the pin", None, [("ack", A), ("ack", B)], B, OK),
    ("refusal keeps the pinned value", None,
     [("ack", A), ("refuse", B)], A, AMBIGUOUS_OK),
    ("refusal adds the attempted value", None,
     [("ack", A), ("refuse", B)], B, AMBIGUOUS_OK),
    ("a third value is SDC", None, [("ack", A), ("refuse", B)], C, SDC),
    ("a later ack clears the candidates", None,
     [("ack", A), ("refuse", B), ("ack", C)], B, SDC),
    ("the acked value after candidates cleared", None,
     [("ack", A), ("refuse", B), ("ack", C)], C, OK),
    ("never acked is skipped through the service", None, [], C, SKIPPED),
    ("a refused first write is skipped through the service", None,
     [("refuse", B)], C, SKIPPED),
    ("never acked reads zero in the engine", ZERO_BLOCK, [], ZERO_BLOCK, OK),
    ("never acked must read zero in the engine", ZERO_BLOCK, [], C, SDC),
    ("in flight at a crash may land", ZERO_BLOCK,
     [("crash", B)], B, AMBIGUOUS_OK),
    ("in flight at a crash may vanish", ZERO_BLOCK,
     [("crash", B)], ZERO_BLOCK, AMBIGUOUS_OK),
    ("only a batch's final value is in flight", ZERO_BLOCK,
     [("crash_batch", (A, B))], A, SDC),
    ("unreadable is never acceptable", ZERO_BLOCK, [("ack", A)], None, SDC),
]

_STACK = SimpleNamespace(resilient=None)


def _apply(oracle: ShadowOracle, transitions) -> None:
    for kind, value in transitions:
        if kind == "ack":
            oracle.ack([(ADDR, value)])
        elif kind == "refuse":
            oracle.refuse_ambiguous([(ADDR, value)])
        elif kind == "crash":
            oracle.crash(_STACK, [(ADDR, value)])
        else:
            oracle.crash(_STACK, [(ADDR, data) for data in value])


@pytest.mark.parametrize(
    "unacked,transitions,seen,verdict",
    [case[1:] for case in CASES],
    ids=[case[0] for case in CASES],
)
def test_transition_table(unacked, transitions, seen, verdict):
    oracle = ShadowOracle(unacked=unacked)
    _apply(oracle, transitions)
    assert oracle.check(ADDR, seen) == verdict


def test_verify_sweeps_every_tracked_address():
    oracle = ShadowOracle()
    oracle.ack([(0, A), (64, A)])
    oracle.refuse_ambiguous([(64, B), (128, C)])
    # 128 was never acked: no ground truth, so it is not read back.
    assert oracle.sweep() == [0, 64]
    verdicts = oracle.verify({0: A, 64: B})
    assert verdicts == {OK: 1, AMBIGUOUS_OK: 1, SKIPPED: 1}
    assert oracle.verify({0: C, 64: A})[SDC] == 1


class _Scheme:
    def __init__(self, epoch: int = 0) -> None:
        self.epoch = epoch

    @staticmethod
    def decode_metadata(data: bytes) -> list[int]:
        return list(data)


def _stack(counters: dict[int, bytes], epoch: int = 0):
    engine = SimpleNamespace(
        counter_storage=dict(counters), scheme=_Scheme(epoch)
    )
    return SimpleNamespace(engine=engine, resilient=None)


#: (name, floor counters, recovered counters, recovered epoch, regressions)
FLOOR_CASES = [
    ("equal counters hold the floor", b"\x02\x03", b"\x02\x03", 0, 0),
    ("advanced counters hold the floor", b"\x02\x03", b"\x04\x03", 0, 0),
    ("a counter below the acked floor is a regression",
     b"\x02\x03", b"\x02\x01", 0, 1),
    ("every regressed slot is reported", b"\x02\x03", b"\x01\x01", 0, 2),
    ("a moved epoch restarts the counter space",
     b"\x02\x03", b"\x00\x00", 1, 0),
]


@pytest.mark.parametrize(
    "floor,recovered,epoch,regressions",
    [case[1:] for case in FLOOR_CASES],
    ids=[case[0] for case in FLOOR_CASES],
)
def test_counter_floor(floor, recovered, epoch, regressions):
    oracle = ShadowOracle(unacked=ZERO_BLOCK)
    oracle.pin(_stack({0: floor}))
    violations = oracle.recovery_violations(_stack({0: recovered}, epoch))
    assert len(violations) == regressions
    assert all("counter regression" in v for v in violations)


def test_missing_group_is_not_a_regression():
    oracle = ShadowOracle(unacked=ZERO_BLOCK)
    oracle.pin(_stack({0: b"\x05"}))
    assert oracle.recovery_violations(_stack({})) == []


class _Quarantine:
    def __init__(self, retired: dict[str, int]) -> None:
        self.retired = retired

    def state_dict(self) -> dict:
        return {
            "map": {}, "retired": dict(self.retired), "free_spares": [],
            "degraded": [], "health": {},
        }

    def is_retired(self, physical: int) -> bool:
        return str(physical) in self.retired


def _resilient_stack(retired: dict[str, int]):
    stack = _stack({})
    stack.resilient = SimpleNamespace(quarantine=_Quarantine(retired))
    return stack


def test_recovered_mapping_must_equal_a_sealed_one():
    oracle = ShadowOracle(unacked=ZERO_BLOCK)
    oracle.pin(_resilient_stack({"3": 7}))
    assert oracle.recovery_violations(_resilient_stack({"3": 7})) == []
    # The crash interrupted a read after its retirement record sealed.
    oracle.crash(_resilient_stack({"3": 7, "5": 8}))
    assert oracle.recovery_violations(
        _resilient_stack({"3": 7, "5": 8})
    ) == []
    violations = oracle.recovery_violations(_resilient_stack({}))
    assert "quarantine mapping diverged from every sealed state" in violations
    assert any("block 3 resurrected" in v for v in violations)
