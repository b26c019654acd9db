"""Shared infrastructure for the reproduction benchmarks.

Every benchmark regenerates one of the paper's exhibits (a table or a
figure) and *prints* the reproduced rows/series next to the paper's
values, in addition to timing a representative unit of work through
pytest-benchmark.  The printed exhibits are also appended to
``benchmarks/results/`` so EXPERIMENTS.md can quote them.

Run with ``pytest benchmarks/ --benchmark-only`` (add ``-s`` to watch the
exhibits stream by).
"""

import pathlib

import pytest

from repro.harness.reporting import dump_json

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
REPO_ROOT = pathlib.Path(__file__).parent.parent
BENCH_SCHEMA = "repro.bench/1"


def pytest_collection_modifyitems(items):
    """Mark everything under benchmarks/ so ``-m "not bench"`` (or plain
    deselection) keeps the exhibits out of quick test runs."""
    for item in items:
        item.add_marker(pytest.mark.bench)


@pytest.fixture(scope="session")
def results_dir():
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def record_exhibit(results_dir):
    """Print an exhibit and persist it under benchmarks/results/."""

    def _record(name: str, text: str) -> None:
        print()
        print(text)
        (results_dir / f"{name}.txt").write_text(text + "\n")

    return _record


@pytest.fixture(scope="session")
def record_bench():
    """Write a machine-readable ``BENCH_<name>.json`` at the repo root.

    The payload couples the exhibit's headline numbers with the metrics
    snapshot of the run that produced them, so downstream tooling can
    reconcile results against the traffic/event accounting.
    """

    def _record(name: str, results: dict, registry) -> pathlib.Path:
        payload = {
            "schema": BENCH_SCHEMA,
            "bench": name,
            "results": results,
            "metrics": registry.snapshot().totals(),
        }
        path = dump_json(payload, REPO_ROOT / f"BENCH_{name}.json")
        print(f"\nwrote {path}")
        return path

    return _record
