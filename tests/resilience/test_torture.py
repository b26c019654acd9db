"""The combined crash×fault torture campaign: determinism and verdicts.

The campaign itself is the heavyweight acceptance gate (``repro
torture``); these tests pin the harness contract on a small spec --
deterministic reports, per-cycle recovery accounting, actual fault
traffic, and spec validation -- so a full run's verdict is trustworthy.
"""

from __future__ import annotations

import json

import pytest

from repro.core.engine.config import PRESETS
from repro.persist.crashsim import STRESS_SCHEME_KWARGS
from repro.resilience.torture import TortureSpec, TortureCampaign, run_torture

#: Small but real: crosses several checkpoint boundaries, exhausts no
#: spare pool, still injects faults of every persistence class.
SMALL = TortureSpec(
    cycles=6,
    ops_per_cycle=10,
    checkpoint_every=3,
    stuck_rate=0.05,
    seed=0x5EED,
)


class TestSpecValidation:
    def test_defaults_are_valid(self):
        spec = TortureSpec()
        assert spec.cycles == 100 and spec.batch == 4

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"cycles": 0},
            {"ops_per_cycle": 0},
            {"batch": 0},
            {"checkpoint_every": 0},
            {"write_fraction": 1.5},
            {"spare_blocks": -1},
        ],
    )
    def test_bad_specs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TortureSpec(**kwargs)


class TestCampaign:
    def test_small_campaign_is_clean(self):
        report = run_torture(SMALL)
        assert report.ok, "\n".join(report.violations)
        assert report.sdc_total == 0
        assert report.cycles_run == SMALL.cycles
        # Every cycle ends in a crash and a verified recovery.
        assert report.recoveries == report.cycles_run
        assert report.checkpoints >= SMALL.cycles // SMALL.checkpoint_every
        # The campaign must have actually injected faults to prove
        # anything; the seeded rates guarantee traffic at this size.
        assert sum(report.injected.values()) > 0
        assert report.writes > 0 and report.reads > 0
        assert report.group_commits > 0

    def test_report_is_deterministic(self):
        first = run_torture(SMALL).to_json()
        second = run_torture(SMALL).to_json()
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )

    def test_different_seed_different_traffic(self):
        other = TortureSpec(
            cycles=6,
            ops_per_cycle=10,
            checkpoint_every=3,
            stuck_rate=0.05,
            seed=0x0DD,
        )
        assert run_torture(other).to_json() != run_torture(SMALL).to_json()

    def test_limit_bounds_the_cycles(self):
        report = run_torture(SMALL, limit=2)
        assert report.cycles_run == 2
        assert report.recoveries == 2

    def test_summary_contains_verdict_and_spec(self):
        report = run_torture(SMALL, limit=2)
        summary = report.format_summary()
        assert "verdict" in summary
        obj = report.to_json()
        assert obj["spec"]["seed"] == SMALL.seed
        assert obj["ok"] is True

    def test_campaign_exposes_shadow_invariants(self):
        """White-box: the shadow model tracks every acknowledged write
        and the retired-ever set only grows."""
        campaign = TortureCampaign(SMALL)
        report = campaign.run(limit=3)
        assert report.ok
        assert len(campaign.shadow.acked) > 0
        assert campaign.shadow.retired_ever == {
            int(k) for k in campaign.stack.resilient.quarantine.state_dict()[
                "retired"
            ]
        }


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_every_preset_runs_a_cycle_from_its_defaults(preset):
    spec = TortureSpec(preset=preset)
    assert spec.scheme_kwargs == STRESS_SCHEME_KWARGS[preset]
    report = run_torture(spec, limit=1)
    assert report.cycles_run == 1
    assert report.ok, report.format_summary()
