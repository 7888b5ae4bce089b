"""E6 — Theorem 7: MtC in the Answer-First variant.

Theorem 7's proof relates the answer-first cost of MtC to its move-first
cost on the same sequence: the extra term per step is ``r * a1`` versus
``D * a1`` already paid, so the total inflates by at most a factor
``2 * max(1, r/D)`` (and the optimum changes by at most ``r * m`` via the
dummy-request argument).  We run identical sequences under both cost
models and measure the inflation factor across an ``r/D`` sweep.

Each ``r`` is one orchestrator cell; inside, the two cost models are two
:class:`~repro.api.Scenario` views of the *same* drift workload (the
answer-first one via the scenario's ``cost_model`` override), executed
through :func:`repro.api.run`, plus the exact 1-D DP on the answer-first
instances for the certified ratio column.

Reproduction criterion: measured inflation ≤ 2·max(1, r/D) + slack on
every instance, and the answer-first certified ratio stays bounded in T.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from ..api import Scenario, build_instances, run as run_scenario
from ..core.costs import CostModel
from ..offline import solve_line
from .orchestrator import SweepSpec, WorkUnit
from .runner import ExperimentResult, scaled, sweep_seeds

__all__ = ["build_spec", "cell_inflation", "finalize"]

_MODULE = "repro.experiments.e6_answer_first"
RS = [1, 2, 4, 8, 16]
DELTA = 0.5
D = 4.0


def _scenario(r: int, T: int, n_seeds: int, seed: int, cost_model: str | None) -> Scenario:
    return Scenario.workload(
        "drift",
        algorithm="mtc",
        params={"T": T, "dim": 1, "D": D, "m": 1.0, "speed": 0.8, "spread": 0.2,
                "requests_per_step": r},
        seeds=sweep_seeds(seed, n_seeds),
        delta=DELTA,
        cost_model=cost_model,
        name=f"E6/r={r}/{cost_model or 'move-first'}",
    )


def cell_inflation(r: int, T: int, n_seeds: int, seed: int) -> dict:
    """Both cost models on identical sequences, plus the exact AF ratio."""
    sc_mf = _scenario(r, T, n_seeds, seed, None)
    sc_af = _scenario(r, T, n_seeds, seed, "answer-first")
    # One materialisation serves both runs and the DP column.
    instances_mf, _ = build_instances(sc_mf)
    instances_af = [inst.with_cost_model(CostModel.ANSWER_FIRST) for inst in instances_mf]
    cost_mf = run_scenario(sc_mf, instances=instances_mf, keep_traces=False).costs
    cost_af = run_scenario(sc_af, instances=instances_af, keep_traces=False).costs
    dp_lower = np.array([solve_line(inst).lower_bound for inst in instances_af])
    return {"cost_mf": cost_mf, "cost_af": cost_af, "dp_lower": dp_lower}


def build_spec(scale: float = 1.0, seed: int = 0) -> SweepSpec:
    T = scaled(300, scale, minimum=100)
    n_seeds = scaled(4, scale, minimum=2)
    units = [
        WorkUnit(
            key=f"inflation/r={r}",
            fn=f"{_MODULE}:cell_inflation",
            params={"r": r, "T": T, "n_seeds": n_seeds, "seed": seed},
        )
        for r in RS
    ]
    return SweepSpec("E6", tuple(units), finalize=f"{_MODULE}:finalize",
                     scale=scale, seed=seed)


def finalize(results: Mapping[str, Any], scale: float, seed: int) -> ExperimentResult:
    rows = []
    ok = True
    for r in RS:
        cell = results[f"inflation/r={r}"]
        inflations = cell["cost_af"] / cell["cost_mf"]
        af_ratios = cell["cost_af"] / np.maximum(cell["dp_lower"], 1e-12)
        bound = 2.0 * max(1.0, r / D)
        infl = float(np.mean(inflations))
        worst = float(np.max(inflations))
        rows.append([r, r / D, infl, worst, bound, float(np.mean(af_ratios))])
        if worst > bound + 0.25:
            ok = False
    notes = [
        "criterion: answer-first/move-first cost inflation of MtC <= 2*max(1, r/D) (Thm 7)",
        "the last column certifies the answer-first ratio stays bounded (vs exact DP lower bound)",
    ]
    return ExperimentResult(
        experiment_id="E6",
        title="Thm 7: MtC in the Answer-First variant — bounded inflation and ratio",
        headers=["r", "r/D", "inflation(mean)", "inflation(max)", "bound 2*max(1,r/D)", "AF ratio (cert.)"],
        rows=rows,
        notes=notes,
        passed=ok,
    )
