"""E14 (extension) — multiple moving clients (Section 5's remark).

Generates ``k`` independent random-waypoint agents, runs the generalised
multi-agent MtC without augmentation in the ``m_server = m_agent`` regime,
and certifies the ratio against the 1-D DP (agents patrol a line).  The
Theorem-10 dichotomy should survive:

* flat, O(1)-looking certified ratios across ``T`` for every ``k``;
* divergence the moment one agent is faster (Theorem-8 construction with
  ``k - 1`` idle extra agents at the origin).

Declared as an orchestrator sweep: a (k, T, seed) patrol grid plus two
sprint-contrast cells; ``finalize`` takes per-(k, T) means, checks
flatness and appends the contrast rows.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from ..adversaries import build_thm8
from ..core.simulator import simulate
from ..extensions import MultiAgentInstance, MultiAgentMtC
from ..offline import solve_line
from ..workloads import random_waypoint_path
from .orchestrator import SweepSpec, WorkUnit
from .runner import ExperimentResult, scaled, sweep_seeds

__all__ = ["build_spec", "cell_patrol", "cell_sprint", "finalize"]

_MODULE = "repro.experiments.e14_multi_agent"
D = 4.0
KS = [1, 2, 4]
TS = [150, 300, 600]
SPRINT_TS = [512, 4096]


def _patrol_instance(T: int, k: int, D: float, rng: np.random.Generator) -> MultiAgentInstance:
    paths = np.stack(
        [random_waypoint_path(T, dim=1, speed=1.0, rng=rng, arena=15.0) for _ in range(k)],
        axis=1,
    )
    return MultiAgentInstance(agent_paths=paths, start=np.zeros(1), D=D,
                              m_server=1.0, m_agent=1.0)


def cell_patrol(k: int, T: int, T_eff: int, cell_seed: int) -> dict:
    """Certified ratio of one k-agent patrol instance."""
    ma = _patrol_instance(T_eff, k, D, np.random.default_rng(cell_seed))
    inst = ma.as_msp()
    tr = simulate(inst, MultiAgentMtC(n_agents=k), delta=0.0)
    dp = solve_line(inst)
    return {"ratio": tr.total_cost / max(dp.lower_bound, 1e-12)}


def cell_sprint(T: int, T_eff: int, seed: int, epsilon: float) -> dict:
    """Faster-agent contrast: Thm-8 sprint with k-1 idle agents."""
    adv = build_thm8(T_eff, epsilon=epsilon, rng=np.random.default_rng(seed))
    tr = simulate(adv.instance, MultiAgentMtC(n_agents=1), delta=0.0)
    return {"T_adv": adv.params["T"], "ratio": adv.ratio_of(tr.total_cost)}


def _patrol_points(scale: float, seed: int) -> list[tuple[str, dict[str, Any]]]:
    """``(unit key, cell coordinates)`` of the patrol cells, k- then T-major."""
    seeds = sweep_seeds(seed, scaled(3, scale, minimum=2))
    return [(f"patrol/k={k}/T={T}/cell_seed={cell_seed}",
             {"k": k, "T": T, "cell_seed": cell_seed})
            for k in KS for T in TS for cell_seed in seeds]


def _sprint_points() -> list[tuple[str, dict[str, Any]]]:
    """``(unit key, cell coordinates)`` of the sprint cells."""
    return [(f"sprint/T={T}", {"T": T}) for T in SPRINT_TS]


def build_spec(scale: float = 1.0, seed: int = 0) -> SweepSpec:
    units = [
        WorkUnit(key, f"{_MODULE}:cell_patrol",
                 {**point, "T_eff": scaled(point["T"], scale, minimum=50)})
        for key, point in _patrol_points(scale, seed)
    ]
    units += [
        WorkUnit(key, f"{_MODULE}:cell_sprint",
                 {**point, "seed": seed, "epsilon": 1.0,
                  "T_eff": scaled(point["T"], scale, minimum=64)})
        for key, point in _sprint_points()
    ]
    return SweepSpec("E14", tuple(units), finalize=f"{_MODULE}:finalize",
                     scale=scale, seed=seed)


def finalize(results: Mapping[str, Any], scale: float, seed: int) -> ExperimentResult:
    ratios: dict[tuple[int, int], list[float]] = {}
    for key, point in _patrol_points(scale, seed):
        ratios.setdefault((point["k"], point["T"]), []).append(results[key]["ratio"])
    rows: list[list[Any]] = []
    ok = True
    flat = {}
    for k in KS:
        means = [float(np.mean(ratios[k, T])) for T in TS]
        rows += [[k, T, mean] for T, mean in zip(TS, means)]
        flat[k] = max(means) / max(min(means), 1e-12)
        if flat[k] > 2.0 or max(means) > 40.0:
            ok = False
    for key, _ in _sprint_points():
        sprint = results[key]
        rows.append(["1 (eps=1 sprint)", sprint["T_adv"], sprint["ratio"]])
    notes = [
        "criterion: with m_server >= m_agent the multi-agent MtC keeps flat O(1) certified "
        "ratios for every k, without augmentation (Section 5, multiple agents)",
    ] + [f"k={k}: max/min ratio across T = {v:.2f}" for k, v in flat.items()]
    return ExperimentResult(
        experiment_id="E14",
        title="Extension: multiple moving clients — Thm 10's dichotomy survives k agents",
        headers=["k agents", "T", "certified ratio"],
        rows=rows,
        notes=notes,
        passed=ok,
    )
