"""E2 — Theorem 2: with (1+δ)m augmentation the ratio is Ω((1/δ)·Rmax/Rmin).

Sweeps δ (and the request-count skew) on the Theorem-2 construction and
fits the growth in ``1/δ``.  Each (skew, δ) point is one
:class:`~repro.api.Scenario` cell over the registered ``thm2``
construction.

Reproduction criterion: ratio grows ~ linearly in 1/δ (fitted log–log
exponent of ratio vs 1/δ in [0.7, 1.3]) and increases with Rmax/Rmin.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from ..analysis import fit_power_law
from ..api import Scenario, scenario_unit
from .orchestrator import SweepSpec
from .runner import ExperimentResult, scaled, sweep_seeds

__all__ = ["build_spec", "finalize"]

_MODULE = "repro.experiments.e2_thm2"
SKEWS = [(1, 1), (1, 4)]


def _axes(scale: float) -> tuple[list[float], int, int]:
    deltas = [1.0, 0.5, 0.25, 0.125]
    if scale > 1.5:
        deltas.append(0.0625)
    n_seeds = scaled(6, scale, minimum=3)
    cycles = scaled(4, scale, minimum=2)
    return deltas, n_seeds, cycles


def _scenario(delta: float, r_min: int, r_max: int, cycles: int,
              n_seeds: int, seed: int) -> Scenario:
    return Scenario.adversary(
        "thm2",
        algorithm="mtc",
        params={"delta": delta, "cycles": cycles, "r_min": r_min, "r_max": r_max},
        seeds=sweep_seeds(seed, n_seeds, stride=1000),
        delta=delta,
        ratio="adversary",
        name=f"E2/skew={r_min}:{r_max}/delta={delta:g}",
    )


def build_spec(scale: float = 1.0, seed: int = 0) -> SweepSpec:
    deltas, n_seeds, cycles = _axes(scale)
    units = [
        scenario_unit(
            f"ratio/skew={r_min}-{r_max}/delta={delta:g}",
            _scenario(delta, r_min, r_max, cycles, n_seeds, seed),
        )
        for r_min, r_max in SKEWS
        for delta in deltas
    ]
    return SweepSpec("E2", tuple(units), finalize=f"{_MODULE}:finalize",
                     scale=scale, seed=seed)


def finalize(results: Mapping[str, Any], scale: float, seed: int) -> ExperimentResult:
    deltas, _, _ = _axes(scale)
    rows = []
    fits = {}
    for r_min, r_max in SKEWS:
        means = []
        for delta in deltas:
            mean = float(np.asarray(
                results[f"ratio/skew={r_min}-{r_max}/delta={delta:g}"]["ratios"]
            ).mean())
            rows.append([r_min, r_max, delta, 1.0 / delta, mean])
            means.append(mean)
        fits[(r_min, r_max)] = fit_power_law(1.0 / np.array(deltas), np.array(means))
    notes = [
        "criterion: ratio lower bound ~ (1/delta) * Rmax/Rmin under (1+delta)m augmentation (Thm 2)",
    ]
    ok = True
    for (r_min, r_max), fit in fits.items():
        notes.append(
            f"Rmax/Rmin={r_max}/{r_min}: exponent of ratio in 1/delta = {fit.exponent:.3f} "
            f"(R^2={fit.r_squared:.3f}); predicted 1.0"
        )
        if not (0.6 <= fit.exponent <= 1.4):
            ok = False
    # Skew effect at the smallest delta.
    small = deltas[-1]
    base = [r for r in rows if r[:3] == [1, 1, small]][0][4]
    skewed = [r for r in rows if r[:3] == [1, 4, small]][0][4]
    notes.append(f"skew effect at delta={small:g}: ratio {skewed:.2f} vs {base:.2f} (x{skewed / base:.2f}; predicted ~x4)")
    if skewed <= base:
        ok = False
    return ExperimentResult(
        experiment_id="E2",
        title="Thm 2 lower bound: ratio ~ (1/delta) * Rmax/Rmin despite augmentation",
        headers=["Rmin", "Rmax", "delta", "1/delta", "ratio(MtC)"],
        rows=rows,
        notes=notes,
        passed=ok,
    )
