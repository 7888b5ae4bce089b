"""E10 — Lemma 5: collapsing requests to their center costs ≤ 4α + 1.

For paired instances (original vs collapsed-to-centers) we measure MtC's
certified ratios α' (collapsed) and α (original) and check the lemma's
transfer inequality α ≤ 4α' + 1.  Run on 1-D workloads so both ratios are
certified against the exact DP.

Declared as an orchestrator sweep: one function cell per (workload, seed
index) point.  Each cell reports both certified ratios, the 4α+1 bound
and whether the transfer inequality held; ``finalize`` tabulates them.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from ..algorithms import MoveToCenter
from ..analysis import collapse_to_centers, measure_ratio
from ..api.reducers import reduce_cells
from ..workloads import ClusteredWorkload, DriftWorkload, RandomWalkWorkload
from .orchestrator import SweepSpec, WorkUnit
from .runner import ExperimentResult, scaled, sweep_seeds

__all__ = ["build_spec", "cell_collapse", "finalize"]

_MODULE = "repro.experiments.e10_lemma5"
WORKLOAD_NAMES = ["random-walk", "drift", "clustered"]
DELTA = 0.5


def _workload(name: str, T: int):
    if name == "random-walk":
        return RandomWalkWorkload(T, dim=1, D=2.0, m=1.0, sigma=0.3, spread=0.6,
                                  requests_per_step=6)
    if name == "drift":
        return DriftWorkload(T, dim=1, D=2.0, m=1.0, speed=0.8, spread=0.5,
                             requests_per_step=6)
    if name == "clustered":
        return ClusteredWorkload(T, dim=1, D=4.0, m=1.0, n_clusters=3,
                                 requests_per_step=6, arena=6.0)
    raise KeyError(f"unknown E10 workload {name!r}")


def cell_collapse(workload: str, s: int, cell_seed: int, T: int, delta: float) -> dict:
    """Certified ratios of one original/collapsed instance pair."""
    inst = _workload(workload, T).generate(np.random.default_rng(cell_seed))
    coll = collapse_to_centers(inst)
    orig = measure_ratio(inst, MoveToCenter(), delta=delta)
    simp = measure_ratio(coll, MoveToCenter(), delta=delta)
    # Conservative check: certified upper of the original vs the
    # certified *upper* of the collapsed (alpha in the lemma is the
    # collapsed guarantee, so its upper bound is the right input).
    bound = 4.0 * simp.ratio_upper + 1.0
    return {
        "ratio_collapsed": simp.ratio_upper,
        "ratio_original": orig.ratio_upper,
        "bound": bound,
        "ok": not orig.ratio_upper > bound + 1e-6,
    }


def _points(scale: float) -> list[tuple[str, dict[str, Any]]]:
    """``(unit key, axis coordinates)`` in table row order."""
    n_seeds = scaled(3, scale, minimum=2)
    return [(f"cell/workload={name}/s={s}", {"workload": name, "s": s})
            for name in WORKLOAD_NAMES for s in range(n_seeds)]


def build_spec(scale: float = 1.0, seed: int = 0) -> SweepSpec:
    T = scaled(250, scale, minimum=80)
    seeds = sweep_seeds(seed, scaled(3, scale, minimum=2))
    units = tuple(
        WorkUnit(key, f"{_MODULE}:cell_collapse",
                 {**point, "T": T, "delta": DELTA, "cell_seed": seeds[point["s"]]})
        for key, point in _points(scale)
    )
    return SweepSpec("E10", units, finalize=f"{_MODULE}:finalize", scale=scale, seed=seed)


def finalize(results: Mapping[str, Any], scale: float, seed: int) -> ExperimentResult:
    points = _points(scale)
    return ExperimentResult(
        experiment_id="E10",
        title="Lemma 5: collapsing each batch to its center loses at most 4*alpha+1",
        headers=["workload", "seed", "ratio(collapsed)", "ratio(original)", "4a+1 bound"],
        rows=reduce_cells(results, points, ["ratio_collapsed", "ratio_original", "bound"]),
        notes=[
            "criterion: ratio(original) <= 4 * ratio(collapsed) + 1 on every "
            "paired instance (Lemma 5)",
            "ratios are certified upper bounds against the exact 1-D DP optimum",
        ],
        passed=all(results[key]["ok"] for key, _ in points),
    )
