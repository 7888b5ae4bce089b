"""E17 — the claims hold "in the Euclidean space of arbitrary dimension".

The paper states its model and lower bounds for arbitrary dimension and
proves the plane upper bound (the line gets a better constant).  This
experiment sweeps the dimension:

* MtC certified ratios (against the convex bracket) on random-walk
  workloads for d ∈ {1, 2, 3, 5, 8} — bounded and essentially flat in d;
* the Theorem-1 construction embedded in each dimension — the lower bound
  is dimension-independent (the construction lives on a line through the
  space), so measured ratios must match across d.

Declared as an orchestrator sweep: one walk cell and one Thm-1 cell per
dimension, all independent, so the dimension sweep fans out across
workers (the high-d convex bracket solves dominate the cost).
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from ..adversaries import build_thm1
from ..analysis import (
    measure_adversarial_ratio_batch,
    measure_ratio_batch,
    measures_from_payload,
    measures_to_payload,
)
from ..workloads import RandomWalkWorkload
from .orchestrator import SweepSpec, WorkUnit
from .runner import ExperimentResult, scaled, seeded_instances, sweep_seeds

__all__ = ["build_spec", "finalize"]

_MODULE = "repro.experiments.e17_dimension"
DIMS = [1, 2, 3, 5, 8]
_DELTA = 0.5


# -- cells -----------------------------------------------------------------


def cell_walk(dim: int, T: int, n_seeds: int, seed: int) -> dict:
    wl = RandomWalkWorkload(T, dim=dim, D=2.0, m=1.0, sigma=0.3,
                            spread=0.4, requests_per_step=4)
    measures = measure_ratio_batch(seeded_instances(wl, n_seeds, seed), "mtc",
                                   delta=_DELTA)
    return {"measures": measures_to_payload(measures)}


def cell_thm1(dim: int, n_seeds: int, seed: int) -> dict:
    mean_adv, per_seed = measure_adversarial_ratio_batch(
        lambda rng: build_thm1(1024, dim=dim, rng=rng), "mtc", 0.0,
        sweep_seeds(seed, n_seeds),
    )
    return {"mean": mean_adv, "per_seed": per_seed}


# -- spec ------------------------------------------------------------------


def build_spec(scale: float = 1.0, seed: int = 0) -> SweepSpec:
    T = scaled(200, scale, minimum=60)
    n_seeds = scaled(3, scale, minimum=2)
    units: list[WorkUnit] = []
    for dim in DIMS:
        units.append(WorkUnit(
            key=f"walk/dim={dim}",
            fn=f"{_MODULE}:cell_walk",
            params={"dim": dim, "T": T, "n_seeds": n_seeds, "seed": seed},
        ))
        units.append(WorkUnit(
            key=f"thm1/dim={dim}",
            fn=f"{_MODULE}:cell_thm1",
            params={"dim": dim, "n_seeds": n_seeds, "seed": seed},
        ))
    return SweepSpec("E17", tuple(units), finalize=f"{_MODULE}:finalize",
                     scale=scale, seed=seed)


def finalize(results: Mapping[str, Any], scale: float, seed: int) -> ExperimentResult:
    rows = []
    walk_ratios = {}
    thm1_ratios = {}
    for dim in DIMS:
        walk_measures = measures_from_payload(results[f"walk/dim={dim}"]["measures"])
        walk_ratios[dim] = float(np.mean([m.ratio_upper for m in walk_measures]))
        thm1_ratios[dim] = results[f"thm1/dim={dim}"]["mean"]
        rows.append([dim, walk_ratios[dim], thm1_ratios[dim]])

    walk_spread = max(walk_ratios.values()) / min(walk_ratios.values())
    thm1_spread = max(thm1_ratios.values()) / min(thm1_ratios.values())
    notes = [
        "criterion: certified MtC ratios bounded and near-flat across dimensions; "
        "the Thm-1 construction is dimension-invariant (it lives on one line)",
        f"walk-ratio spread across d: x{walk_spread:.2f}; thm1 spread: x{thm1_spread:.2f}",
    ]
    ok = walk_spread <= 2.0 and thm1_spread <= 1.05 and max(walk_ratios.values()) <= 10.0
    return ExperimentResult(
        experiment_id="E17",
        title="Arbitrary dimension: MtC ratios flat in d; Thm-1 bound dimension-invariant",
        headers=["dim", "MtC ratio (walk, certified)", "Thm-1 ratio (T=1024)"],
        rows=rows,
        notes=notes,
        passed=ok,
    )
