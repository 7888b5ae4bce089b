"""E8 — Theorem 10 / Corollary 9: MtC is O(1) for m_s ≥ m_a, no augmentation.

Runs the moving-client MtC on random-waypoint patrol agents for a sweep of
``T`` in two regimes:

* ``m_s = m_a`` (Theorem 10): certified ratio must stay *flat* in T;
* ``m_a = 2 m_s`` (contrast, Theorem 8's regime): on the adversarial
  construction the ratio diverges — shown side by side.

OPT comes from the exact 1-D solver (agents patrol a line here, so the
bracket is rounding-sized); a 2-D spot row uses the primal–dual bracket.

Declared as an orchestrator sweep: the Thm-8 contrast is one generic
``thm8`` scenario cell per T (:func:`repro.api.runtime.scenario_units`,
keyed by the unscaled T — at small scales two T values share one scaled
horizon, and with it one content address, so they cannot be a
``Scenario.grid``), and the 2-D spot row is a ``ratio="bracket"``
scenario cell.  The patrol rows divide by the line bracket's lower end
and stay function cells.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from ..api.runtime import scenario_units
from ..api.scenario import Scenario
from ..core.engine import simulate_batch
from ..offline import bracket_optimum
from ..workloads import PatrolAgentWorkload
from .orchestrator import SweepSpec, WorkUnit
from .runner import ExperimentResult, scaled, sweep_seeds, unconverged_notes

__all__ = ["build_spec", "finalize"]

_MODULE = "repro.experiments.e8_moving_client_mtc"
TS = [200, 400, 800]
D = 4.0


# -- cells -----------------------------------------------------------------


def cell_patrol(T_wl: int, n_seeds: int, seed: int) -> dict:
    """The O(1) regime: equal speeds, certified against the exact 1-D optimum."""
    wl = PatrolAgentWorkload(T_wl, dim=1, D=D, m_server=1.0, m_agent=1.0, arena=20.0)
    insts = [wl.generate(np.random.default_rng(s)).as_msp()
             for s in sweep_seeds(seed, n_seeds)]
    costs = simulate_batch(insts, "mtc-moving-client", delta=0.0).total_costs
    ratios = [
        float(cost) / max(bracket_optimum(inst).lower, 1e-12)
        for inst, cost in zip(insts, costs)
    ]
    return {"ratios": np.array(ratios, dtype=np.float64)}


# -- spec ------------------------------------------------------------------


def build_spec(scale: float = 1.0, seed: int = 0) -> SweepSpec:
    n_seeds = scaled(4, scale, minimum=2)
    units: list[WorkUnit] = []
    for T in TS:
        units.append(WorkUnit(
            key=f"patrol/T={T}",
            fn=f"{_MODULE}:cell_patrol",
            params={"T_wl": scaled(T, scale, minimum=50), "n_seeds": n_seeds, "seed": seed},
        ))
    keys = [f"thm8/T={T}" for T in TS]
    scenarios = [
        Scenario.adversary(
            "thm8", "mtc-moving-client",
            params={"T": scaled(T, scale, minimum=64) * 4, "epsilon": 1.0},
            seeds=sweep_seeds(seed, n_seeds), name=key,
        )
        for T, key in zip(TS, keys)
    ]
    # 2-D spot check of the O(1) regime.
    keys.append("spot-2d")
    scenarios.append(Scenario.workload(
        "patrol-agent", "mtc-moving-client",
        params={"T": scaled(200, scale, minimum=50), "dim": 2, "D": D,
                "m_server": 1.0, "m_agent": 1.0, "arena": 15.0},
        seeds=[seed], delta=0.0, ratio="bracket", name="spot-2d",
    ))
    units.extend(scenario_units(scenarios, keys=keys))
    return SweepSpec("E8", tuple(units), finalize=f"{_MODULE}:finalize",
                     scale=scale, seed=seed)


def finalize(results: Mapping[str, Any], scale: float, seed: int) -> ExperimentResult:
    rows = []
    flat_ratios = []
    for T in TS:
        mean = float(np.mean(results[f"patrol/T={T}"]["ratios"]))
        rows.append(["patrol (ms=ma)", T, mean])
        flat_ratios.append(mean)
    for T in TS:
        rows.append(["thm8 (ma=2ms)", T * 4, float(np.mean(results[f"thm8/T={T}"]["ratios"]))])
    spot = results["spot-2d"]
    rows.append(["patrol-2d (ms=ma)", spot["scenario"]["source_params"]["T"],
                 float(spot["measures"]["ratio_upper"][0])])

    spread = max(flat_ratios) / max(min(flat_ratios), 1e-12)
    notes = [
        "criterion: with m_s >= m_a the certified ratio is O(1) and flat in T, "
        "no augmentation needed (Thm 10 / Cor 9); with a faster agent it diverges (Thm 8)",
        f"flatness of the ms=ma rows: max/min ratio across T = {spread:.2f}",
        *unconverged_notes({"spot-2d": spot["measures"]}),
    ]
    ok = spread <= 2.0 and max(flat_ratios) <= 40.0
    return ExperimentResult(
        experiment_id="E8",
        title="Thm 10: moving-client MtC is O(1)-competitive when the server is as fast",
        headers=["regime", "T", "certified ratio"],
        rows=rows,
        notes=notes,
        passed=ok,
    )
