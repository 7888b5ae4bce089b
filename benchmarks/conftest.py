"""Shared helpers for the benchmark/experiment-regeneration suite.

Each ``bench_eN_*.py`` file does two things:

1. regenerates the experiment's table (the paper has no empirical tables,
   so these are the theorem-shaped tables defined in DESIGN.md §4) and
   prints it through captured-output suppression so it lands in the bench
   log, also appending it to ``results/``;
2. benchmarks that experiment's computational kernel with
   ``pytest-benchmark`` (simulation loops, DP solves, samplers).

``BENCH_SCALE`` trades table fidelity against wall-clock; 0.4 keeps the
full suite in the low minutes while preserving every criterion.

Tables regenerate through the ``exp_cache`` fixture: one persistent
:class:`repro.core.store.ResultsStore` under ``results/bench-store``
serves every experiment's work units, so a second bench invocation
replays cached cells instead of recomputing the tables.  The per-run
cache accounting lands in ``BENCH_experiments.json`` at the repo root.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from pathlib import Path

import pytest

BENCH_SCALE = 0.4

ROOT = Path(__file__).resolve().parent.parent
RESULTS_DIR = ROOT / "results"
BENCH_STORE = RESULTS_DIR / "bench-store"
CACHE_REPORT = ROOT / "BENCH_experiments.json"


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


class _ExperimentCache:
    """Store-backed experiment runner with per-experiment cache stats."""

    def __init__(self, store) -> None:
        self.store = store
        self.stats: dict[str, dict[str, int]] = {}

    def run(self, eid: str, scale: float = BENCH_SCALE, seed: int = 0):
        from repro.experiments import run_all_detailed

        report = run_all_detailed([eid], scale=scale, seed=seed, store=self.store)
        self.stats[eid] = {"computed": report.computed, "cached": report.cached,
                           "skipped": report.skipped}
        return report.results[0]


@pytest.fixture(scope="session")
def exp_cache(results_dir):
    """Session store for experiment tables + BENCH_experiments.json report."""
    from repro.core.store import ResultsStore

    cache = _ExperimentCache(ResultsStore(BENCH_STORE))
    yield cache
    if not cache.stats:
        return
    payload = {
        "benchmark": "experiment-table-cache",
        "scale": BENCH_SCALE,
        "store": str(BENCH_STORE),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "experiments": cache.stats,
        "total_computed": sum(s["computed"] for s in cache.stats.values()),
        "total_cached": sum(s["cached"] for s in cache.stats.values()),
        "store_entries": len(cache.store),
    }
    if CACHE_REPORT.exists():
        # Hand-recorded sections (e.g. the E5 mega-batch migration
        # timings, cold before/after rows) survive regeneration of the
        # cache accounting: every key this fixture does not write is kept.
        try:
            previous = json.loads(CACHE_REPORT.read_text())
        except (OSError, ValueError):
            previous = {}
        for key, value in previous.items():
            payload.setdefault(key, value)
    CACHE_REPORT.write_text(json.dumps(payload, indent=2) + "\n")


@pytest.fixture
def emit(capsys, results_dir):
    """Print an experiment result to the live terminal and persist it."""

    def _emit(result) -> None:
        text = result.render()
        with capsys.disabled():
            print()
            print(text)
        out = results_dir / f"{result.experiment_id.lower()}.txt"
        out.write_text(text + "\n")
        (results_dir / f"{result.experiment_id.lower()}.csv").write_text(result.csv())

    return _emit
