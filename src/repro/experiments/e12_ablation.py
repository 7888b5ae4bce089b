"""E12 — ablating MtC's design choices.

Three knobs, each motivated by a specific line of the algorithm's
definition:

* the damping factor ``min{1, r/D}`` (replaced by always-full-speed 1.0
  and by a fixed 0.25) — the proof's Section 4.2 cases rely on it when
  moving is expensive;
* the tie-break "closest minimizer to the server" (replaced by the
  midpoint of the minimizing segment) — matters for even collinear
  batches;
* the cap fraction (does MtC actually need the full ``(1+δ)m``? —
  using only ``1/(1+δ)`` of it removes the augmentation and Thm 1 bites).

Each (workload | thm2, variant) point is one :class:`~repro.api.Scenario`
cell: the variant is expressed as ``algorithm_params`` on the registered
``mtc`` entry, the benign workloads certify against the bracketed DP
optimum (``ratio="bracket"``), the adversarial cells against the thm2
construction's own cost.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from ..api import Scenario, scenario_unit
from .orchestrator import SweepSpec
from .runner import ExperimentResult, scaled, sweep_seeds

__all__ = ["build_spec", "finalize"]

_MODULE = "repro.experiments.e12_ablation"
DELTA = 0.5

#: Variant name → MoveToCenter constructor parameters.
VARIANTS: dict[str, dict[str, Any]] = {
    "paper": {},
    "undamped(scale=1)": {"step_scale": 1.0},
    "overdamped(scale=.25)": {"step_scale": 0.25},
    "tie=midpoint": {"tie_break": "midpoint"},
    "no-augmentation": {"cap_fraction": 1.0 / (1.0 + DELTA)},
}

_WORKLOAD_PARAMS: dict[str, dict[str, Any]] = {
    "random-walk": {"sigma": 0.3, "spread": 0.4, "requests_per_step": 2},
    "drift": {"speed": 0.8, "spread": 0.2, "requests_per_step": 2},
}


def _benign(workload: str, variant: str, T: int, n_seeds: int, seed: int) -> Scenario:
    return Scenario.workload(
        workload,
        algorithm="mtc",
        params={"T": T, "dim": 1, "D": 4.0, "m": 1.0, **_WORKLOAD_PARAMS[workload]},
        algorithm_params=VARIANTS[variant],
        seeds=sweep_seeds(seed, n_seeds),
        delta=DELTA,
        ratio="bracket",
        name=f"E12/{workload}/{variant}",
    )


def _adversarial(variant: str, n_seeds: int, seed: int) -> Scenario:
    return Scenario.adversary(
        "thm2",
        algorithm="mtc",
        params={"delta": DELTA, "cycles": 4},
        algorithm_params=VARIANTS[variant],
        seeds=sweep_seeds(seed, n_seeds),
        delta=DELTA,
        ratio="adversary",
        name=f"E12/thm2/{variant}",
    )


def build_spec(scale: float = 1.0, seed: int = 0) -> SweepSpec:
    T = scaled(300, scale, minimum=100)
    n_seeds = scaled(3, scale, minimum=2)
    units = []
    for workload in _WORKLOAD_PARAMS:
        for variant in VARIANTS:
            units.append(scenario_unit(
                f"benign/{workload}/{variant}",
                _benign(workload, variant, T, n_seeds, seed),
            ))
    for variant in VARIANTS:
        units.append(scenario_unit(f"adversarial/{variant}", _adversarial(variant, n_seeds, seed)))
    return SweepSpec("E12", tuple(units), finalize=f"{_MODULE}:finalize",
                     scale=scale, seed=seed)


def finalize(results: Mapping[str, Any], scale: float, seed: int) -> ExperimentResult:
    rows = []
    table: dict[tuple[str, str], float] = {}
    for workload in _WORKLOAD_PARAMS:
        for variant in VARIANTS:
            payload = results[f"benign/{workload}/{variant}"]
            mean = float(np.mean(payload["measures"]["ratio_upper"]))
            table[(workload, variant)] = mean
            rows.append([workload, variant, mean])
    for variant in VARIANTS:
        mean = float(np.mean(np.asarray(results[f"adversarial/{variant}"]["ratios"])))
        table[("thm2", variant)] = mean
        rows.append(["thm2-adversarial", variant, mean])

    ok = True
    notes = ["criterion: the paper's choices are never dominated; removing augmentation "
             "or damping hurts where the theory says it must"]
    # Undamped must hurt on the expensive-movement random walk (D=4 > r=2).
    if table[("random-walk", "undamped(scale=1)")] < table[("random-walk", "paper")] * 0.95:
        ok = False
        notes.append("UNEXPECTED: undamped variant beat the paper's damping on random-walk")
    else:
        notes.append(
            f"damping helps when D>r: undamped {table[('random-walk', 'undamped(scale=1)')]:.2f} "
            f"vs paper {table[('random-walk', 'paper')]:.2f} on random-walk"
        )
    # Removing augmentation must hurt on the adversarial instance.
    if table[("thm2", "no-augmentation")] <= table[("thm2", "paper")]:
        ok = False
        notes.append("UNEXPECTED: removing augmentation did not hurt on thm2")
    else:
        notes.append(
            f"augmentation is load-bearing: no-aug {table[('thm2', 'no-augmentation')]:.2f} "
            f"vs paper {table[('thm2', 'paper')]:.2f} on thm2"
        )
    return ExperimentResult(
        experiment_id="E12",
        title="Ablations of MtC: damping factor, tie-break, augmentation usage",
        headers=["workload", "variant", "ratio"],
        rows=rows,
        notes=notes,
        passed=ok,
    )
