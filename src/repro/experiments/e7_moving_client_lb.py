"""E7 — Theorem 8: a faster agent forces ratio Ω(√T · ε/(1+ε)).

Sweeps ``T`` and ε on the Theorem-8 moving-client construction, measuring
the moving-client MtC (which is optimal-in-spirit here: full-speed chase
once behind) and fitting the growth exponent in ``T``.  Each (ε, T) point
is one :class:`~repro.api.Scenario` cell over the registered ``thm8``
construction (tagged moving-client, which is what licenses the
``mtc-moving-client`` algorithm).

Reproduction criterion: fitted exponent ≈ 0.5 at each ε, and at fixed T
the ratio grows with ε/(1+ε).
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from ..analysis import fit_power_law
from ..api import Scenario, scenario_unit
from .orchestrator import SweepSpec
from .runner import ExperimentResult, scaled, sweep_seeds

__all__ = ["build_spec", "finalize"]

_MODULE = "repro.experiments.e7_moving_client_lb"
EPSILONS = [0.25, 1.0]


def _axes(scale: float) -> tuple[list[int], int]:
    Ts = [256, 1024, 4096]
    if scale > 1.5:
        Ts.append(16384)
    return Ts, scaled(6, scale, minimum=3)


def _scenario(T: int, eps: float, n_seeds: int, seed: int) -> Scenario:
    return Scenario.adversary(
        "thm8",
        algorithm="mtc-moving-client",
        params={"T": T, "epsilon": eps},
        seeds=sweep_seeds(seed, n_seeds, stride=1000),
        delta=0.0,
        ratio="adversary",
        name=f"E7/eps={eps:g}/T={T}",
    )


def build_spec(scale: float = 1.0, seed: int = 0) -> SweepSpec:
    Ts, n_seeds = _axes(scale)
    units = [
        scenario_unit(f"ratio/eps={eps:g}/T={T}", _scenario(T, eps, n_seeds, seed))
        for eps in EPSILONS
        for T in Ts
    ]
    return SweepSpec("E7", tuple(units), finalize=f"{_MODULE}:finalize",
                     scale=scale, seed=seed)


def finalize(results: Mapping[str, Any], scale: float, seed: int) -> ExperimentResult:
    Ts, _ = _axes(scale)
    rows = []
    fits = {}
    for eps in EPSILONS:
        means = []
        for T in Ts:
            mean = float(np.asarray(results[f"ratio/eps={eps:g}/T={T}"]["ratios"]).mean())
            rows.append([eps, T, mean, float(np.sqrt(T) * eps / (1 + eps))])
            means.append(mean)
        fits[eps] = fit_power_law(np.array(Ts, dtype=float), np.array(means))
    notes = [
        "criterion: moving-client ratio ~ sqrt(T) * eps/(1+eps) when m_a=(1+eps)m_s (Thm 8)",
    ]
    ok = True
    for eps, fit in fits.items():
        notes.append(
            f"eps={eps:g}: exponent in T = {fit.exponent:.3f} (R^2={fit.r_squared:.3f}); predicted 0.5"
        )
        if not (0.3 <= fit.exponent <= 0.7):
            ok = False
    # Monotonicity in eps at the largest T.
    T_big = Ts[-1]
    r_small = [r[2] for r in rows if r[0] == EPSILONS[0] and r[1] == T_big][0]
    r_big = [r[2] for r in rows if r[0] == EPSILONS[-1] and r[1] == T_big][0]
    notes.append(f"eps effect at T={T_big}: ratio {r_small:.2f} (eps={EPSILONS[0]}) vs {r_big:.2f} (eps={EPSILONS[-1]})")
    if r_big <= r_small:
        ok = False
    return ExperimentResult(
        experiment_id="E7",
        title="Thm 8: moving-client lower bound ~ sqrt(T)*eps/(1+eps) for a faster agent",
        headers=["eps", "T", "ratio(MtC-mc)", "sqrt(T)*eps/(1+eps)"],
        rows=rows,
        notes=notes,
        passed=ok,
    )
