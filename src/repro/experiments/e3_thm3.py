"""E3 — Theorem 3: the Answer-First variant costs Ω(r/D).

Runs MtC on the Theorem-3 two-step cycles in *both* cost models.  In the
answer-first model the ratio must grow linearly in ``r/D``; in the
move-first model the same sequences are harmless (the server hops onto the
requests before serving), which is the model-separation the paper's
Section 2 highlights.

Each (D, r, cost model) point is one :class:`~repro.api.Scenario` cell:
the ``thm3`` registry construction parameterises the cost model, and the
algorithm is the registered ``mtc-answer-first`` / ``mtc`` respectively.

Reproduction criterion: answer-first ratio ≈ linear in r/D (slope fit),
move-first ratio stays O(1) on the same sequences.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from ..analysis import fit_linear
from ..api import Scenario, scenario_unit
from .orchestrator import SweepSpec
from .runner import ExperimentResult, scaled, sweep_seeds

__all__ = ["build_spec", "finalize"]

_MODULE = "repro.experiments.e3_thm3"
RS = [1, 4, 16, 64]
DS = [1.0, 4.0]
DELTA = 0.5


def _axes(scale: float) -> tuple[int, int]:
    return scaled(6, scale, minimum=3), scaled(40, scale, minimum=10)


def _scenario(model: str, r: int, D: float, cycles: int, n_seeds: int, seed: int) -> Scenario:
    params = {"cycles": cycles, "r": r, "D": D}
    if model == "move-first":
        params["cost_model"] = "move-first"
    return Scenario.adversary(
        "thm3",
        algorithm="mtc-answer-first" if model == "answer-first" else "mtc",
        params=params,
        seeds=sweep_seeds(seed, n_seeds, stride=1000),
        delta=DELTA,
        ratio="adversary",
        name=f"E3/{model}/D={D:g}/r={r}",
    )


def build_spec(scale: float = 1.0, seed: int = 0) -> SweepSpec:
    n_seeds, cycles = _axes(scale)
    units = [
        scenario_unit(f"ratio/{model}/D={D:g}/r={r}",
                      _scenario(model, r, D, cycles, n_seeds, seed))
        for D in DS
        for r in RS
        for model in ("answer-first", "move-first")
    ]
    return SweepSpec("E3", tuple(units), finalize=f"{_MODULE}:finalize",
                     scale=scale, seed=seed)


def finalize(results: Mapping[str, Any], scale: float, seed: int) -> ExperimentResult:
    rows = []
    fits = {}
    for D in DS:
        af_means = []
        for r in RS:
            af = float(np.asarray(results[f"ratio/answer-first/D={D:g}/r={r}"]["ratios"]).mean())
            mf = float(np.asarray(results[f"ratio/move-first/D={D:g}/r={r}"]["ratios"]).mean())
            rows.append([D, r, r / D, af, mf])
            af_means.append(af)
        fits[D] = fit_linear(np.array(RS, dtype=float) / D, np.array(af_means))
    notes = [
        "criterion: answer-first ratio grows linearly in r/D; move-first stays O(1) (Thm 3)",
    ]
    ok = True
    for D, fit in fits.items():
        notes.append(
            f"D={D:g}: answer-first ratio slope vs r/D = {fit.slope:.3f} (R^2={fit.r_squared:.3f})"
        )
        if fit.slope <= 0.3 or fit.r_squared < 0.9:
            ok = False
    worst_mf = max(row[4] for row in rows)
    notes.append(f"move-first ratio on the same sequences stays <= {worst_mf:.2f}")
    if worst_mf > 10.0:
        ok = False
    return ExperimentResult(
        experiment_id="E3",
        title="Thm 3: answer-first ratio ~ r/D; move-first immune to the same sequences",
        headers=["D", "r", "r/D", "ratio(answer-first)", "ratio(move-first)"],
        rows=rows,
        notes=notes,
        passed=ok,
    )
