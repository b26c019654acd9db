"""Fault campaigns: Poisson models, determinism, reconciliation."""

import random

import pytest

from repro.analysis.faults import figure3_scenarios
from repro.core.engine.config import preset
from repro.resilience.campaign import (
    FaultCampaign,
    FaultRates,
    RowBurst,
    ScenarioFaultModel,
    StuckAtBit,
    TransientSEU,
    poisson_draw,
)
from repro.resilience.recovery import RetryPolicy
from repro.resilience.runtime import ResilientMemory


def _build(preset_name="mac_in_ecc", region=64 * 1024, key_seed=5, **kwargs):
    config = preset(
        preset_name, protected_bytes=region, keystream_mode="splitmix"
    )
    key = bytes(random.Random(key_seed).randrange(256) for _ in range(48))
    return ResilientMemory(config, key, **kwargs)


class TestPoisson:
    def test_zero_rate_never_fires(self):
        rng = random.Random(0)
        assert all(poisson_draw(rng, 0.0) == 0 for _ in range(100))

    def test_mean_roughly_matches_rate(self):
        rng = random.Random(1)
        n = 20_000
        total = sum(poisson_draw(rng, 0.1) for _ in range(n))
        assert 0.08 < total / n < 0.12

    def test_deterministic_for_seed(self):
        a = [poisson_draw(random.Random(7), 0.5) for _ in range(50)]
        b = [poisson_draw(random.Random(7), 0.5) for _ in range(50)]
        assert a == b


class TestFaultModels:
    def test_transient_draw_shape(self):
        model = TransientSEU(rate=0.1)
        [spec] = model.draw(random.Random(0), 100)
        assert spec.persistence == "inflight"
        assert 1 <= len(spec.data_bits) <= 1
        assert 0 <= spec.block < 100

    def test_row_burst_spans_adjacent_blocks(self):
        model = RowBurst(rate=0.1, row_blocks=4, max_bits_per_block=3)
        specs = model.draw(random.Random(3), 100)
        assert len(specs) == 4
        blocks = [s.block for s in specs]
        assert blocks == list(range(blocks[0], blocks[0] + 4))
        assert all(s.persistence == "cell" for s in specs)
        assert all(1 <= len(s.data_bits) <= 3 for s in specs)

    def test_scenario_adapter_reuses_figure3_patterns(self):
        triple = next(
            s for s in figure3_scenarios()
            if s.name == "triple-bit-same-word"
        )
        model = ScenarioFaultModel(triple, rate=0.1)
        [spec] = model.draw(random.Random(0), 64)
        assert len(spec.data_bits) == 3
        assert model.name == "scenario:triple-bit-same-word"

    def test_rate_validation(self):
        with pytest.raises(ValueError):
            TransientSEU(rate=-0.1)
        with pytest.raises(ValueError):
            RowBurst(rate=0.1, row_blocks=0)


class TestAcceptanceCampaign:
    """The ISSUE acceptance criterion: a seeded transient-SEU campaign of
    >=10k operations is deterministic and ends with zero silent data
    corruptions, every fault accounted for."""

    def _run(self):
        memory = _build(region=256 * 1024, spare_blocks=16)
        campaign = FaultCampaign(
            memory, [TransientSEU(rate=0.02)], seed=11,
        )
        return campaign, campaign.run(10_000)

    def test_transient_campaign_10k_zero_sdc(self):
        campaign, report = self._run()
        assert report.operations == 10_000
        assert report.injected_total >= 150  # ~200 expected at 0.02/op
        assert report.sdc_total == 0
        assert report.reconciles()
        # 1-bit in-flight transients are all cleared by re-read: no DUEs,
        # no flip-and-check, nothing silently wrong.
        counts = report.primary["transient_seu"]
        assert counts["ce_retry"] + counts["absorbed"] == report.injected_total
        assert report.due_total == 0
        # the error log agrees with the campaign's own accounting
        assert campaign.memory.log.sdc_total == 0
        assert campaign.memory.log.ce_total >= counts["ce_retry"]
        # final ground-truth sweep: every byte of every block intact
        assert campaign.verify_all() == 0

    def test_campaign_is_deterministic(self):
        _, first = self._run()
        _, second = self._run()
        assert first.format_summary() == second.format_summary()
        assert first.injected == second.injected
        assert first.primary == second.primary


class TestMixedCampaign:
    def test_quarantine_and_reconciliation_under_all_models(self):
        memory = _build(
            region=16 * 1024, spare_blocks=8, ce_threshold=3,
            retry_policy=RetryPolicy(max_retries=2),
        )
        campaign = FaultCampaign(
            memory,
            FaultRates(
                transient_rate=0.02, stuck_rate=0.005, burst_rate=0.001
            ).models(),
            seed=9,
            scrub_interval=500,
        )
        report = campaign.run(3000)
        assert report.sdc_total == 0
        assert report.reconciles()
        # stuck-at faults at this rate must have driven retirements
        assert report.retired_blocks >= 1
        assert report.spares_remaining < 8
        # row bursts (up to 3 flips per block) must have produced DUEs,
        # all of them repaired by rewrite
        assert report.due_total >= 1
        assert report.due_rewrites >= 1
        # after everything: ground truth fully intact
        assert campaign.verify_all() == 0
        assert campaign.memory.log.sdc_total == 0

    def test_scenario_model_campaign(self):
        memory = _build(region=16 * 1024, spare_blocks=8)
        triple = next(
            s for s in figure3_scenarios()
            if s.name == "triple-bit-same-word"
        )
        campaign = FaultCampaign(
            memory, [ScenarioFaultModel(triple, rate=0.01)], seed=2
        )
        report = campaign.run(1000)
        assert report.sdc_total == 0
        assert report.reconciles()
        # 3 flips exceed flip-and-check: every injection is a DUE,
        # detected -- never silently wrong (the Figure 3 claim, sustained)
        counts = report.primary.get("scenario:triple-bit-same-word", {})
        assert counts.get("due", 0) == report.injected_total > 0
        assert campaign.verify_all() == 0

    def test_delta_preset_campaign(self):
        """The paper's combined configuration survives a campaign too."""
        memory = _build(
            preset_name="combined", region=16 * 1024, spare_blocks=8
        )
        campaign = FaultCampaign(
            memory, [TransientSEU(rate=0.02)], seed=4
        )
        report = campaign.run(1500)
        assert report.sdc_total == 0
        assert report.reconciles()
        assert campaign.verify_all() == 0

    def test_report_format_mentions_everything(self):
        memory = _build(region=16 * 1024, spare_blocks=8)
        campaign = FaultCampaign(memory, [TransientSEU(rate=0.05)], seed=1)
        text = campaign.run(300).format_summary()
        assert "Fault campaign" in text
        assert "transient_seu" in text
        assert "Reliability summary" in text
        assert "reconciles" in text and "NO" not in text
