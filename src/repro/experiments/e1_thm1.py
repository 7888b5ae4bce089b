"""E1 — Theorem 1: no augmentation ⇒ ratio grows like √(T/D).

Runs MtC (the best algorithm we have) and the full-speed greedy baseline
against the Theorem-1 construction for a geometric sweep of ``T`` and
several ``D``; reports mean certified ratio lower bounds and the fitted
growth exponent in ``T``.

Declared as an orchestrator sweep of :class:`~repro.api.Scenario` cells:
each (D, T, algorithm) point is one scenario over the registered
``thm1`` construction, executed through :func:`repro.api.run` (the
batched engine plays all seeds of a cell in lock-step, bit-identical to
the old scalar loop).

Reproduction criterion: fitted exponent ≈ 0.5 (we accept [0.35, 0.65]),
and ratios decrease with ``D`` at fixed ``T``.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from ..analysis import fit_power_law
from ..api import Scenario, scenario_unit
from .orchestrator import SweepSpec
from .runner import ExperimentResult, scaled, sweep_seeds

__all__ = ["build_spec", "finalize"]

_MODULE = "repro.experiments.e1_thm1"
ALGORITHMS = ["mtc", "greedy-center"]


def _axes(scale: float) -> tuple[list[int], list[float], int]:
    Ts = [256, 1024, 4096]
    if scale > 1.5:
        Ts.append(16384)
    Ds = [1.0, 4.0]
    n_seeds = scaled(6, scale, minimum=3)
    return Ts, Ds, n_seeds


def _scenario(alg: str, T: int, D: float, n_seeds: int, seed: int) -> Scenario:
    return Scenario.adversary(
        "thm1",
        algorithm=alg,
        params={"T": T, "D": D},
        seeds=sweep_seeds(seed, n_seeds, stride=1000),
        delta=0.0,
        ratio="adversary",
        name=f"E1/{alg}/D={D:g}/T={T}",
    )


def build_spec(scale: float = 1.0, seed: int = 0) -> SweepSpec:
    Ts, Ds, n_seeds = _axes(scale)
    units = [
        scenario_unit(f"ratio/D={D:g}/T={T}/{alg}", _scenario(alg, T, D, n_seeds, seed))
        for D in Ds
        for T in Ts
        for alg in ALGORITHMS
    ]
    return SweepSpec("E1", tuple(units), finalize=f"{_MODULE}:finalize",
                     scale=scale, seed=seed)


def finalize(results: Mapping[str, Any], scale: float, seed: int) -> ExperimentResult:
    Ts, Ds, _ = _axes(scale)
    rows = []
    exponents = {}
    for D in Ds:
        means = []
        for T in Ts:
            mean_by_alg = {
                alg: float(np.asarray(results[f"ratio/D={D:g}/T={T}/{alg}"]["ratios"]).mean())
                for alg in ALGORITHMS
            }
            rows.append([D, T, mean_by_alg["mtc"], mean_by_alg["greedy-center"],
                         float(np.sqrt(T / D))])
            means.append(mean_by_alg["mtc"])
        exponents[D] = fit_power_law(np.array(Ts, dtype=float), np.array(means))
    notes = [
        "criterion: ratio lower bound grows ~ sqrt(T/D) for every online algorithm (Thm 1)",
    ]
    ok = True
    for D, fit in exponents.items():
        notes.append(
            f"MtC exponent in T at D={D:g}: {fit.exponent:.3f} (R^2={fit.r_squared:.3f}); predicted 0.5"
        )
        if not (0.35 <= fit.exponent <= 0.65):
            ok = False
    return ExperimentResult(
        experiment_id="E1",
        title="Thm 1 lower bound: ratio ~ sqrt(T/D) without augmentation",
        headers=["D", "T", "ratio(MtC)", "ratio(greedy)", "sqrt(T/D)"],
        rows=rows,
        notes=notes,
        passed=ok,
    )
