"""The shipped tree must lint clean -- this is the gate the ISSUE requires.

No baseline is checked in: every finding in ``src/repro`` is either fixed
or carries a documented inline suppression.  The suppression budget is
pinned *per code* so a new one cannot slip in unreviewed -- growing any
entry below is a review event, not a side effect.
"""

import collections
import pathlib

from repro.lint import run_lint
from repro.lint.diagnostics import Suppressions

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"

#: Documented suppressions at head, per code:
#:
#: RL001  the three SplitMix64 mixer shifts in crypto/prf.py (30/27/31
#:        are algorithm constants, not layout fields)
#: RL002  intentional wallclock: supervisor/client readiness + retry
#:        deadlines against real processes in service/server.py (5),
#:        and the service campaign's per-op latency + campaign
#:        wallclock in service/chaos.py (4, shared by loadgen)
#: RL006  recovery replay in resilience/runtime.py applies quarantine
#:        folds the journal already holds (2)
#: RL007  service/server.py teardown: CancelledError-as-hangup in the
#:        conn loop, suppress() on a half-closed transport, the
#:        startup/teardown socket-path unlinks (4), and reaping the
#:        just-cancelled dispatcher task in serve() (1)
EXPECTED_SUPPRESSIONS = {
    "RL001": 3,
    "RL002": 9,
    "RL006": 2,
    "RL007": 5,
}


def _scan_directives():
    """(code -> count) of every directive outside ``lint/`` itself."""
    counts = collections.Counter()
    for path in sorted(SRC.rglob("*.py")):
        if "lint" in path.relative_to(SRC).parts:
            continue
        supp = Suppressions.scan(path.read_text())
        for codes in supp.by_line.values():
            counts.update(codes)
        counts.update(supp.file_wide)
    return counts


def test_tree_is_clean():
    result = run_lint([SRC])
    messages = [d.format() for d in result.diagnostics + result.parse_errors]
    assert messages == []
    assert result.files_checked > 60


def test_suppression_budget_is_pinned():
    assert dict(_scan_directives()) == EXPECTED_SUPPRESSIONS
    result = run_lint([SRC])
    assert result.suppressed == sum(EXPECTED_SUPPRESSIONS.values())


def test_no_baseline_file_shipped():
    # Policy: the contracted packages stay clean at head; adopting a
    # baseline for src/repro would silently weaken the gate.
    repo_root = SRC.parents[1]
    assert not list(repo_root.glob("*lint-baseline*"))


def test_no_dead_suppressions():
    """Every directive outside ``lint/`` itself (whose docstrings carry
    example directives) must actually hide a finding: the scanned count
    must equal the count ``run_lint`` reports as suppressed.  A dead
    directive is a mute with nothing behind it -- delete it."""
    scanned = sum(_scan_directives().values())
    assert run_lint([SRC]).suppressed == scanned
