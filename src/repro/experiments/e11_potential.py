"""E11 — the potential-function argument of Sections 4.1/4.2, per step.

Runs MtC on co-located-request instances (the regime the per-step proof
addresses after Lemma 5), computes the exact DP trajectory as the
reference, and evaluates the paper's potential φ along both: every step's
amortised cost :math:`C_{Alg} + \\Delta\\phi` is divided by that step's
:math:`C_{Opt}`.

Reproduction criteria:

* zero steps with positive amortised cost but zero OPT cost;
* the max per-step constant ``K`` stays bounded, and its growth across the
  δ sweep is compatible with the O(1/δ) (line) envelope;
* both ``r > D`` and ``r <= D`` branches of the potential are exercised.

Declared as an orchestrator sweep: one function cell per (regime, δ,
seed) point; ``finalize`` takes per-(regime, δ) means and checks the
envelope.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from ..algorithms import MoveToCenter
from ..analysis import collapse_to_centers, verify_potential_argument
from ..core.simulator import simulate
from ..offline import solve_line
from ..workloads import DriftWorkload
from .orchestrator import SweepSpec, WorkUnit
from .runner import ExperimentResult, scaled, sweep_seeds

__all__ = ["build_spec", "cell_potential", "finalize"]

_MODULE = "repro.experiments.e11_potential"
DELTAS = [1.0, 0.5, 0.25]
#: regime label → (requests per step, D)
REGIMES = {"r>D": (6, 2.0), "r<=D": (2, 6.0)}


def cell_potential(regime: str, delta: float, cell_seed: int, T: int) -> dict:
    """Potential trace of one MtC run against the exact DP trajectory."""
    r, D = REGIMES[regime]
    wl = DriftWorkload(T, dim=1, D=D, m=1.0, speed=0.75, spread=0.3,
                       requests_per_step=r)
    inst = collapse_to_centers(wl.generate(np.random.default_rng(cell_seed)))
    tr = simulate(inst, MoveToCenter(), delta=delta)
    dp = solve_line(inst)
    rep = verify_potential_argument(inst, tr, dp.positions, delta)
    return {
        "max_k": rep.max_k,
        "q95": rep.k_quantile(0.95),
        "violations": len(rep.violations),
        "amort": rep.amortised_ratio,
    }


def _points(scale: float, seed: int) -> list[tuple[str, dict[str, Any]]]:
    """``(unit key, cell coordinates)``, regime- then δ-major."""
    seeds = sweep_seeds(seed, scaled(3, scale, minimum=2))
    return [(f"cell/regime={regime}/delta={delta}/cell_seed={cell_seed}",
             {"regime": regime, "delta": delta, "cell_seed": cell_seed})
            for regime in REGIMES for delta in DELTAS for cell_seed in seeds]


def build_spec(scale: float = 1.0, seed: int = 0) -> SweepSpec:
    T = scaled(250, scale, minimum=80)
    units = tuple(WorkUnit(key, f"{_MODULE}:cell_potential", {**point, "T": T})
                  for key, point in _points(scale, seed))
    return SweepSpec("E11", units, finalize=f"{_MODULE}:finalize", scale=scale, seed=seed)


def finalize(results: Mapping[str, Any], scale: float, seed: int) -> ExperimentResult:
    cells: dict[tuple[str, float], list[dict]] = {}
    for key, point in _points(scale, seed):
        cells.setdefault((point["regime"], point["delta"]), []).append(results[key])
    rows = []
    ok = True
    for (regime, delta), payloads in cells.items():
        violations = sum(c["violations"] for c in payloads)
        rows.append([regime, delta,
                     float(np.mean([c["max_k"] for c in payloads])),
                     float(np.mean([c["q95"] for c in payloads])),
                     violations,
                     float(np.mean([c["amort"] for c in payloads]))])
        if violations:
            ok = False
    notes = [
        "criterion: no steps with positive amortised cost at zero OPT cost; "
        "per-step K bounded with an O(1/delta)-compatible envelope (Sections 4.1/4.2)",
        "amortised_ratio = (C_Alg + phi_T - phi_0) / C_Opt — the telescoped Theorem-4 bound",
    ]
    # Envelope sanity: K at the smallest delta should not exceed ~(1/delta) x K at delta=1.
    for regime in REGIMES:
        k1 = [row[2] for row in rows if row[0] == regime and row[1] == 1.0][0]
        ks = [row[2] for row in rows if row[0] == regime and row[1] == DELTAS[-1]][0]
        limit = (1.0 / DELTAS[-1]) * max(k1, 1.0) * 4.0
        notes.append(f"{regime}: max K grows {k1:.2f} -> {ks:.2f} over delta 1 -> {DELTAS[-1]:g} "
                     f"(envelope limit {limit:.1f})")
        if ks > limit:
            ok = False
    return ExperimentResult(
        experiment_id="E11",
        title="Potential argument: per-step C_Alg + dPhi <= K * C_Opt along MtC vs DP-OPT",
        headers=["regime", "delta", "max K", "K q95", "violations", "amortised ratio"],
        rows=rows,
        notes=notes,
        passed=ok,
    )
