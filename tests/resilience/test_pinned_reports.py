"""The fault campaign and torture reports, byte for byte.

The files under ``golden/`` are the ``--json-out`` artifact and stdout of
``repro resilience --operations 1000 --region-kb 16 --stuck-rate 0.01
--burst-rate 0.005`` and ``repro torture --limit 5``, recorded before
``CampaignSpec``/``run_campaign`` took over the resilience command's
wiring and ``TortureReport`` became a ``CampaignReport``.  Both harnesses
are seeded and deterministic, so any change to a counter, a verdict or a
line of the summary shows up here.
"""

from __future__ import annotations

import json
import pathlib

from repro.cli import main
from repro.harness.reporting import render_json
from repro.resilience.campaign import CampaignSpec, run_campaign
from repro.resilience.torture import TortureSpec, run_torture

GOLDEN = pathlib.Path(__file__).parent / "golden"

CAMPAIGN_ARGS = [
    "resilience", "--operations", "1000", "--region-kb", "16",
    "--stuck-rate", "0.01", "--burst-rate", "0.005",
]
CAMPAIGN_SPEC = CampaignSpec(
    operations=1000, region_kb=16, stuck_rate=0.01, burst_rate=0.005
)


def _golden(name: str) -> str:
    return (GOLDEN / name).read_text()


def _cli(argv, tmp_path, capsys) -> tuple[int, str, str]:
    out = tmp_path / "report.json"
    status = main([*argv, "--json-out", str(out)])
    return status, capsys.readouterr().out, out.read_text()


def test_campaign_report_matches_the_pinned_run():
    report = run_campaign(CAMPAIGN_SPEC)
    assert report.ok
    assert render_json(report.to_json()) == _golden("campaign_small.json")
    assert report.format_summary() + "\n" == _golden("campaign_small.txt")


def test_resilience_command_matches_the_pinned_run(tmp_path, capsys):
    status, stdout, artifact = _cli(CAMPAIGN_ARGS, tmp_path, capsys)
    assert status == 0
    assert stdout == _golden("campaign_small.txt")
    assert artifact == _golden("campaign_small.json")


def test_torture_report_matches_the_pinned_run():
    report = run_torture(TortureSpec(), limit=5)
    assert report.ok
    assert render_json(report.to_json()) == _golden("torture_limit5.json")
    assert report.format_summary() + "\n" == _golden("torture_limit5.txt")


def test_torture_command_matches_the_pinned_run(tmp_path, capsys):
    status, stdout, artifact = _cli(
        ["torture", "--limit", "5"], tmp_path, capsys
    )
    assert status == 0
    assert stdout == _golden("torture_limit5.txt")
    assert artifact == _golden("torture_limit5.json")


def test_torture_report_shares_the_campaign_counters():
    """One set of counters: the torture JSON's outcome totals and DUE
    repairs are the campaign report's per-model tallies, summed."""
    report = run_torture(TortureSpec(), limit=5)
    payload = json.loads(_golden("torture_limit5.json"))
    assert payload["primary"] == dict(report.outcomes)
    assert payload["injected_total"] == report.primary_total
    assert payload["due_repairs"] == report.due_rewrites
