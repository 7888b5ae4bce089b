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

Declared as an :class:`~repro.api.ExperimentSpec`: one function cell per
(regime, δ, seed) grid point, folded by the ``e11/potential`` reducer
(per-(regime, δ) means plus the envelope check).
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from ..algorithms import MoveToCenter
from ..analysis import collapse_to_centers, verify_potential_argument
from ..api import ExperimentSpec, Reduction, cell_grid, register_reducer
from ..core.simulator import simulate
from ..offline import solve_line
from ..workloads import DriftWorkload
from .runner import scaled, sweep_seeds

__all__ = ["build_spec", "cell_potential", "spec"]

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


@register_reducer("e11/potential", "per-(regime, delta) potential summary + O(1/delta) envelope")
def _reduce(cells: Mapping[str, Any], *, points, config, scale: float,
            seed: int) -> Reduction:
    # Group the per-seed cells by (regime, delta), preserving grid order.
    groups: dict[tuple, list[Any]] = {}
    for key, point in points:
        groups.setdefault((point["regime"], point["delta"]), []).append(cells[key])
    rows = []
    ok = True
    for (regime, delta), payloads in groups.items():
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
    return Reduction(rows=rows, notes=notes, passed=ok)


def spec(scale: float = 1.0, seed: int = 0) -> ExperimentSpec:
    T = scaled(250, scale, minimum=80)
    n_seeds = scaled(3, scale, minimum=2)
    return ExperimentSpec(
        experiment_id="E11",
        title="Potential argument: per-step C_Alg + dPhi <= K * C_Opt along MtC vs DP-OPT",
        headers=["regime", "delta", "max K", "K q95", "violations", "amortised ratio"],
        reducer="e11/potential",
        cells=cell_grid(f"{_MODULE}:cell_potential",
                        axes={"regime": list(REGIMES), "delta": DELTAS,
                              "cell_seed": sweep_seeds(seed, n_seeds)},
                        common={"T": T}),
        scale=scale, seed=seed,
    )


def build_spec(scale: float = 1.0, seed: int = 0):
    return spec(scale, seed).to_sweep()
