"""E17 — the claims hold "in the Euclidean space of arbitrary dimension".

The paper states its model and lower bounds for arbitrary dimension and
proves the plane upper bound (the line gets a better constant).  This
experiment sweeps the dimension:

* MtC certified ratios (against the convex bracket) on random-walk
  workloads for d ∈ {1, 2, 3, 5, 8} — bounded and essentially flat in d;
* the Theorem-1 construction embedded in each dimension — the lower bound
  is dimension-independent (the construction lives on a line through the
  space), so measured ratios must match across d.

Declared as an orchestrator sweep of generic scenario cells
(:func:`repro.api.runtime.scenario_units`): one ``random-walk`` and one
``thm1`` scenario per dimension, all independent, so the dimension sweep
fans out across workers (the high-d convex bracket solves dominate the
cost).
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from ..api.runtime import scenario_units
from ..api.scenario import Scenario
from .orchestrator import SweepSpec
from .runner import ExperimentResult, scaled, sweep_seeds, unconverged_notes

__all__ = ["build_spec", "finalize"]

_MODULE = "repro.experiments.e17_dimension"
DIMS = [1, 2, 3, 5, 8]
_DELTA = 0.5


def _scenarios(scale: float, seed: int) -> tuple[list[str], list[Scenario]]:
    """Per dimension: MtC on a certified random walk and on Thm 1's construction."""
    T = scaled(200, scale, minimum=60)
    seeds = sweep_seeds(seed, scaled(3, scale, minimum=2))
    keys: list[str] = []
    scenarios: list[Scenario] = []
    for dim in DIMS:
        walk, thm1 = f"walk/dim={dim}", f"thm1/dim={dim}"
        keys += [walk, thm1]
        scenarios += [
            Scenario.workload(
                "random-walk", "mtc",
                params={"T": T, "dim": dim, "D": 2.0, "m": 1.0, "sigma": 0.3,
                        "spread": 0.4, "requests_per_step": 4},
                seeds=seeds, delta=_DELTA, ratio="bracket", name=walk,
            ),
            Scenario.adversary("thm1", "mtc", params={"T": 1024, "dim": dim},
                               seeds=seeds, name=thm1),
        ]
    return keys, scenarios


def build_spec(scale: float = 1.0, seed: int = 0) -> SweepSpec:
    keys, scenarios = _scenarios(scale, seed)
    return SweepSpec("E17", tuple(scenario_units(scenarios, keys=keys)),
                     finalize=f"{_MODULE}:finalize", scale=scale, seed=seed)


def finalize(results: Mapping[str, Any], scale: float, seed: int) -> ExperimentResult:
    rows = []
    walk_ratios = {}
    thm1_ratios = {}
    for dim in DIMS:
        walk_ratios[dim] = float(np.mean(results[f"walk/dim={dim}"]["measures"]["ratio_upper"]))
        thm1_ratios[dim] = float(np.mean(results[f"thm1/dim={dim}"]["ratios"]))
        rows.append([dim, walk_ratios[dim], thm1_ratios[dim]])

    walk_spread = max(walk_ratios.values()) / min(walk_ratios.values())
    thm1_spread = max(thm1_ratios.values()) / min(thm1_ratios.values())
    notes = [
        "criterion: certified MtC ratios bounded and near-flat across dimensions; "
        "the Thm-1 construction is dimension-invariant (it lives on one line)",
        f"walk-ratio spread across d: x{walk_spread:.2f}; thm1 spread: x{thm1_spread:.2f}",
        *unconverged_notes({f"walk/dim={dim}": results[f"walk/dim={dim}"]["measures"]
                            for dim in DIMS}),
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
