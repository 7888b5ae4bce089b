"""E10 — Lemma 5: collapsing requests to their center costs ≤ 4α + 1.

For paired instances (original vs collapsed-to-centers) we measure MtC's
certified ratios α' (collapsed) and α (original) and check the lemma's
transfer inequality α ≤ 4α' + 1.  Run on 1-D workloads so both ratios are
certified against the exact DP.

Declared as an :class:`~repro.api.ExperimentSpec`: one function cell per
(workload, seed index) grid point, folded by the generic ``table``
reducer — each cell reports both certified ratios, the 4α+1 bound and
whether the transfer inequality held.
"""

from __future__ import annotations


import numpy as np

from ..algorithms import MoveToCenter
from ..analysis import collapse_to_centers, measure_ratio
from ..api import ExperimentSpec, cell_grid
from ..workloads import ClusteredWorkload, DriftWorkload, RandomWalkWorkload
from .runner import scaled, sweep_seeds

__all__ = ["build_spec", "cell_collapse", "spec"]

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


def spec(scale: float = 1.0, seed: int = 0) -> ExperimentSpec:
    T = scaled(250, scale, minimum=80)
    n_seeds = scaled(3, scale, minimum=2)
    seeds = sweep_seeds(seed, n_seeds)
    return ExperimentSpec(
        experiment_id="E10",
        title="Lemma 5: collapsing each batch to its center loses at most 4*alpha+1",
        headers=["workload", "seed", "ratio(collapsed)", "ratio(original)", "4a+1 bound"],
        reducer="table",
        cells=cell_grid(f"{_MODULE}:cell_collapse",
                        axes={"workload": WORKLOAD_NAMES, "s": range(n_seeds)},
                        common={"T": T, "delta": DELTA},
                        derive={"cell_seed": lambda p: seeds[p["s"]]}),
        config={
            "columns": ["ratio_collapsed", "ratio_original", "bound"],
            "ok": "ok",
            "notes": [
                "criterion: ratio(original) <= 4 * ratio(collapsed) + 1 on every "
                "paired instance (Lemma 5)",
                "ratios are certified upper bounds against the exact 1-D DP optimum",
            ],
        },
        scale=scale, seed=seed,
    )


def build_spec(scale: float = 1.0, seed: int = 0):
    return spec(scale, seed).to_sweep()
