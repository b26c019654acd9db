"""The exhaustive crash-point matrix: coverage, determinism, verdicts."""

import json

import pytest

from repro.persist.crashsim import (
    CrashSimSpec,
    build_ops,
    build_workload,
    enumerate_points,
    parse_point,
    point_id,
    run_matrix,
    run_point,
    run_workload,
)
from repro.persist.store import CrashPlan

#: Small enough for an exhaustive matrix in a unit test, big enough to
#: cross a checkpoint boundary and overflow the 2-bit deltas.
SMALL = CrashSimSpec(ops=8, checkpoint_interval=3)
#: Same workload through the batched facade: group-commit frames.
BATCHED = CrashSimSpec(ops=8, checkpoint_interval=3, batch=3)
#: Flushes of 4 writes over the default 20-op workload: its group
#: re-encryptions run batched inside open group-commit transactions.
REENCRYPTING = CrashSimSpec(ops=20, batch=4)
#: Full composition: batching + resilience (retire + degrade splices).
COMPOSED = CrashSimSpec(ops=9, checkpoint_interval=3, batch=3,
                        resilient=True)


class TestWorkloadDeterminism:
    def test_workload_is_pure_function_of_seed(self):
        assert build_workload(SMALL) == build_workload(SMALL)
        other = CrashSimSpec(ops=8, checkpoint_interval=3, seed=7)
        assert build_workload(other) != build_workload(SMALL)

    def test_baseline_trace_is_stable(self):
        first = run_workload(SMALL).trace
        second = run_workload(SMALL).trace
        assert first == second
        assert first[0].label.startswith("checkpoint.write")  # bootstrap


class TestPointEnumeration:
    def test_skip_everywhere_torn_on_tearable(self):
        trace = run_workload(SMALL).trace
        points = enumerate_points(trace)
        skips = [p for p in points if p.phase == "skip"]
        torns = [p for p in points if p.phase == "torn"]
        assert len(skips) == len(trace)
        assert len(torns) == sum(1 for r in trace if r.tearable)

    def test_point_id_round_trips(self):
        for plan in (CrashPlan(0), CrashPlan(17, "torn")):
            assert parse_point(point_id(plan)) == plan
        assert parse_point("5") == CrashPlan(5, "skip")

    @pytest.mark.parametrize("bad", ["", "x:skip", "3:melt", "-1:skip"])
    def test_bad_points_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_point(bad)


class TestSinglePoint:
    def test_point_reproduces_bit_for_bit(self):
        """`repro crash --point` twice must agree on everything -- the
        acceptance criterion for deterministic reproduction."""
        plan = enumerate_points(run_workload(SMALL).trace)[5]
        first = run_point(SMALL, plan)
        second = run_point(SMALL, plan)
        assert json.dumps(first.to_json(), sort_keys=True) == json.dumps(
            second.to_json(), sort_keys=True
        )

    def test_unreached_step_is_flagged(self):
        outcome = run_point(SMALL, CrashPlan(10_000, "skip"))
        assert not outcome.crashed
        assert not outcome.clean
        assert outcome.violations == ["armed step was never reached"]
        assert outcome.label == "<never reached>"

    def test_outcome_json_names_the_step(self):
        plan = CrashPlan(0, "torn")
        obj = run_point(SMALL, plan).to_json()
        assert obj["point"] == "0:torn"
        assert obj["label"].startswith("checkpoint.write")
        assert obj["crashed"] and obj["recovered"]


class TestMatrix:
    def test_exhaustive_matrix_is_clean(self):
        report = run_matrix(SMALL)
        assert report.exhaustive
        assert report.ok, report.format_summary()
        assert report.clean_points == report.total_points > 0

    def test_bounded_subset_spreads_evenly(self):
        report = run_matrix(SMALL, limit=5, stride=3)
        assert report.run_points == 5
        assert not report.exhaustive
        steps = [parse_point(o.point).step for o in report.outcomes]
        assert steps == sorted(steps)

    def test_summary_and_json_agree(self):
        report = run_matrix(SMALL, limit=3)
        obj = report.to_json()
        assert obj["run_points"] == 3
        assert obj["ok"] == report.ok
        assert "points clean" in report.format_summary()

    def test_stride_validation(self):
        with pytest.raises(ValueError):
            run_matrix(SMALL, stride=0)


class TestGroupCommitMatrix:
    """The batched workload: every flush seals one group-commit frame,
    and the matrix tears those frames like any other journal write."""

    def test_ops_are_pure_function_of_seed(self):
        assert build_ops(COMPOSED) == build_ops(COMPOSED)
        faults = [op for op in build_ops(COMPOSED) if op[0] == "fault"]
        assert len(faults) == 2  # one retire splice, one degrade splice

    def test_trace_contains_torn_group_commit_frames(self):
        trace = run_workload(BATCHED).trace
        frames = [r for r in trace if "group_commit=3" in r.label]
        assert frames, "no group-commit frame in the batched trace"
        torn_steps = {
            p.step for p in enumerate_points(trace) if p.phase == "torn"
        }
        tearable = {r.step for r in frames if r.tearable}
        assert tearable and tearable <= torn_steps

    def test_exhaustive_batched_matrix_is_clean(self):
        report = run_matrix(BATCHED)
        assert report.exhaustive
        assert report.ok, report.format_summary()

    def test_exhaustive_matrix_over_batched_reencryptions_is_clean(
        self, monkeypatch
    ):
        """A crash anywhere around a flush whose group re-encryption ran
        as one batch inside the open transaction recovers cleanly."""
        from repro.fast.batch_memory import BatchSecureMemory

        batched = []
        reencrypt = BatchSecureMemory._reencrypt

        def spy(self, blocks, old_nonces, new_nonces):
            ok = reencrypt(self, blocks, old_nonces, new_nonces)
            batched.append(ok and self.engine.persist.in_txn)
            return ok

        monkeypatch.setattr(BatchSecureMemory, "_reencrypt", spy)
        run_workload(REENCRYPTING)
        assert any(batched), "no re-encryption ran batched inside a txn"
        report = run_matrix(REENCRYPTING)
        assert report.exhaustive
        assert report.ok, report.format_summary()

    def test_exhaustive_composed_matrix_is_clean(self):
        """Batching + resilience: every step skipped, every tearable
        step torn -- including the journaled retire/degrade records."""
        trace = run_workload(COMPOSED).trace
        labels = [r.label for r in trace]
        assert any("res:retire" in label for label in labels)
        assert any("res:degrade" in label for label in labels)
        report = run_matrix(COMPOSED)
        assert report.exhaustive
        assert report.ok, report.format_summary()


class TestCrossSchemeSmoke:
    """One bounded pass per preset family: the matrix must stay clean
    regardless of the counter representation and MAC lane."""

    @pytest.mark.parametrize(
        "preset,kwargs",
        [
            ("bmt_baseline", (("counter_bits", 1),)),
            ("mac_in_ecc", (("counter_bits", 1),)),
            ("combined_dual",
             (("base_delta_bits", 2), ("extension_bits", 2))),
        ],
    )
    def test_bounded_matrix_clean(self, preset, kwargs):
        spec = CrashSimSpec(
            preset=preset, scheme_kwargs=kwargs, ops=6,
            checkpoint_interval=3,
        )
        if dict(kwargs).get("counter_bits"):
            # The recorded run takes a monolithic wrap: global
            # re-encryption is among the steps the matrix crashes.
            assert run_workload(spec).oracle.floor_epoch >= 1
        report = run_matrix(spec, stride=4)
        assert report.ok, report.format_summary()
