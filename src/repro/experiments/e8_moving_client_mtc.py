"""E8 — Theorem 10 / Corollary 9: MtC is O(1) for m_s ≥ m_a, no augmentation.

Runs the moving-client MtC on random-waypoint patrol agents for a sweep of
``T`` in two regimes:

* ``m_s = m_a`` (Theorem 10): certified ratio must stay *flat* in T;
* ``m_a = 2 m_s`` (contrast, Theorem 8's regime): on the adversarial
  construction the ratio diverges — shown side by side.

OPT is bracketed by the exact 1-D DP (agents patrol a line here so the
certificate is tight); a 2-D spot row uses the convex bracket.

Declared as an :class:`~repro.api.ExperimentSpec` with hand-built
function cells — one per (regime, T) plus the 2-D spot check, all
independent, so the T sweep parallelizes across workers.  The cells take
pre-scaled horizons (``T_wl``/``T_steps``) rather than axis values, which
:func:`~repro.api.cell_grid` would forward verbatim; the
``e8/moving-client`` reducer folds the payloads into the table.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from ..adversaries import build_thm8
from ..algorithms import MovingClientMtC
from ..analysis import measure_adversarial_ratio_batch
from ..api import CellSpec, ExperimentSpec, Reduction, register_reducer
from ..core.engine import simulate_batch
from ..core.simulator import simulate
from ..offline import bracket_optimum
from ..workloads import PatrolAgentWorkload
from .runner import scaled, seeded_instances, sweep_seeds

__all__ = ["build_spec", "spec"]

_MODULE = "repro.experiments.e8_moving_client_mtc"
TS = [200, 400, 800]
D = 4.0


# -- cells -----------------------------------------------------------------


def cell_patrol(T_wl: int, n_seeds: int, seed: int) -> dict:
    """The O(1) regime: equal speeds, certified against the 1-D DP."""
    wl = PatrolAgentWorkload(T_wl, dim=1, D=D, m_server=1.0, m_agent=1.0, arena=20.0)
    insts = [mc.as_msp() for mc in seeded_instances(wl, n_seeds, seed)]
    costs = simulate_batch(insts, "mtc-moving-client", delta=0.0).total_costs
    ratios = [
        float(cost) / max(bracket_optimum(inst, grid_size=768).lower, 1e-12)
        for inst, cost in zip(insts, costs)
    ]
    return {"ratios": np.array(ratios, dtype=np.float64)}


def cell_thm8(T_steps: int, n_seeds: int, seed: int) -> dict:
    """Contrast: the faster-agent adversarial regime diverges."""
    mean_adv, per_seed = measure_adversarial_ratio_batch(
        lambda rng: build_thm8(T_steps, epsilon=1.0, rng=rng),
        "mtc-moving-client", 0.0, sweep_seeds(seed, n_seeds),
    )
    return {"mean": mean_adv, "per_seed": per_seed}


def cell_spot_2d(T_wl: int, seed: int) -> dict:
    """2-D spot check of the O(1) regime."""
    wl2 = PatrolAgentWorkload(T_wl, dim=2, D=D, m_server=1.0, m_agent=1.0, arena=15.0)
    mc2 = wl2.generate(np.random.default_rng(seed))
    inst2 = mc2.as_msp()
    tr2 = simulate(inst2, MovingClientMtC(), delta=0.0)
    br2 = bracket_optimum(inst2)
    return {"ratio": tr2.total_cost / max(br2.lower, 1e-12), "T": wl2.T}


# -- reducer ---------------------------------------------------------------


@register_reducer("e8/moving-client",
                  "patrol-vs-thm8 ratio table + flatness-in-T criterion")
def _reduce(cells: Mapping[str, Any], *, points, config, scale: float,
            seed: int) -> Reduction:
    rows = []
    flat_ratios = []
    for T in TS:
        mean = float(np.mean(cells[f"patrol/T={T}"]["ratios"]))
        rows.append(["patrol (ms=ma)", T, mean])
        flat_ratios.append(mean)
    for T in TS:
        rows.append(["thm8 (ma=2ms)", T * 4, cells[f"thm8/T={T}"]["mean"]])
    spot = cells["spot-2d"]
    rows.append(["patrol-2d (ms=ma)", spot["T"], spot["ratio"]])

    spread = max(flat_ratios) / max(min(flat_ratios), 1e-12)
    notes = [
        "criterion: with m_s >= m_a the certified ratio is O(1) and flat in T, "
        "no augmentation needed (Thm 10 / Cor 9); with a faster agent it diverges (Thm 8)",
        f"flatness of the ms=ma rows: max/min ratio across T = {spread:.2f}",
    ]
    ok = spread <= 2.0 and max(flat_ratios) <= 40.0
    return Reduction(rows=rows, notes=notes, passed=ok)


# -- spec ------------------------------------------------------------------


def spec(scale: float = 1.0, seed: int = 0) -> ExperimentSpec:
    n_seeds = scaled(4, scale, minimum=2)
    cells: list[CellSpec] = []
    for T in TS:
        cells.append(CellSpec(
            key=f"patrol/T={T}",
            fn=f"{_MODULE}:cell_patrol",
            params={"T_wl": scaled(T, scale, minimum=50), "n_seeds": n_seeds, "seed": seed},
            point={"T": T},
        ))
    for T in TS:
        cells.append(CellSpec(
            key=f"thm8/T={T}",
            fn=f"{_MODULE}:cell_thm8",
            params={"T_steps": scaled(T, scale, minimum=64) * 4, "n_seeds": n_seeds,
                    "seed": seed},
            point={"T": T},
        ))
    cells.append(CellSpec(
        key="spot-2d",
        fn=f"{_MODULE}:cell_spot_2d",
        params={"T_wl": scaled(200, scale, minimum=50), "seed": seed},
    ))
    return ExperimentSpec(
        experiment_id="E8",
        title="Thm 10: moving-client MtC is O(1)-competitive when the server is as fast",
        headers=["regime", "T", "certified ratio"],
        reducer="e8/moving-client",
        cells=tuple(cells),
        scale=scale, seed=seed,
    )


def build_spec(scale: float = 1.0, seed: int = 0):
    return spec(scale, seed).to_sweep()
