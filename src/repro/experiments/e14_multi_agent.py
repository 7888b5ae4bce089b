"""E14 (extension) — multiple moving clients (Section 5's remark).

Generates ``k`` independent random-waypoint agents, runs the generalised
multi-agent MtC without augmentation in the ``m_server = m_agent`` regime,
and certifies the ratio against the 1-D DP (agents patrol a line).  The
Theorem-10 dichotomy should survive:

* flat, O(1)-looking certified ratios across ``T`` for every ``k``;
* divergence the moment one agent is faster (Theorem-8 construction with
  ``k - 1`` idle extra agents at the origin).

Declared as an :class:`~repro.api.ExperimentSpec`: a (k, T, seed) patrol
grid plus two sprint-contrast cells, folded by the ``e14/multi-agent``
reducer (per-(k, T) means, flatness check, contrast rows).
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from ..adversaries import build_thm8
from ..api import ExperimentSpec, Reduction, cell_grid, register_reducer
from ..core.simulator import simulate
from ..extensions import MultiAgentInstance, MultiAgentMtC
from ..offline import solve_line
from ..workloads import random_waypoint_path
from .runner import scaled, sweep_seeds

__all__ = ["build_spec", "cell_patrol", "cell_sprint", "spec"]

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


@register_reducer("e14/multi-agent", "per-(k, T) mean ratios + flatness check + sprint contrast")
def _reduce(cells: Mapping[str, Any], *, points, config, scale: float,
            seed: int) -> Reduction:
    patrol: dict[tuple, list[float]] = {}
    sprints: list[str] = []
    for key, point in points:
        if key.startswith("sprint/"):
            sprints.append(key)
        else:
            patrol.setdefault((point["k"], point["T"]), []).append(cells[key]["ratio"])
    rows: list[list[Any]] = []
    ok = True
    flat = {}
    for k in KS:
        means = []
        for T in TS:
            mean = float(np.mean(patrol[(k, T)]))
            means.append(mean)
            rows.append([k, T, mean])
        flat[k] = max(means) / max(min(means), 1e-12)
        if flat[k] > 2.0 or max(means) > 40.0:
            ok = False
    for key in sprints:
        rows.append(["1 (eps=1 sprint)", cells[key]["T_adv"], cells[key]["ratio"]])
    notes = [
        "criterion: with m_server >= m_agent the multi-agent MtC keeps flat O(1) certified "
        "ratios for every k, without augmentation (Section 5, multiple agents)",
    ] + [f"k={k}: max/min ratio across T = {v:.2f}" for k, v in flat.items()]
    return Reduction(rows=rows, notes=notes, passed=ok)


def spec(scale: float = 1.0, seed: int = 0) -> ExperimentSpec:
    n_seeds = scaled(3, scale, minimum=2)
    cells = cell_grid(
        f"{_MODULE}:cell_patrol",
        axes={"k": KS, "T": TS, "cell_seed": sweep_seeds(seed, n_seeds)},
        derive={"T_eff": lambda p: scaled(p["T"], scale, minimum=50)},
        prefix="patrol",
    ) + cell_grid(
        f"{_MODULE}:cell_sprint",
        axes={"T": SPRINT_TS},
        common={"seed": seed, "epsilon": 1.0},
        derive={"T_eff": lambda p: scaled(p["T"], scale, minimum=64)},
        prefix="sprint",
    )
    return ExperimentSpec(
        experiment_id="E14",
        title="Extension: multiple moving clients — Thm 10's dichotomy survives k agents",
        headers=["k agents", "T", "certified ratio"],
        reducer="e14/multi-agent",
        cells=cells,
        scale=scale, seed=seed,
    )


def build_spec(scale: float = 1.0, seed: int = 0):
    return spec(scale, seed).to_sweep()
