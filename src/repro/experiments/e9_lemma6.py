"""E9 — Lemma 6 / Figures 1–2: the geometric inequality, numerically.

Three verification modes per δ (see :mod:`repro.analysis.lemma6`):

* ``paper/acute`` — the stated premise over the proof's configuration
  family (angle between s₂ and a₂ at most 90°): **zero violations**
  expected — this is Lemma 6 as proved;
* ``paper/all`` — the stated premise over *all* angles: exhibits the
  reproduction finding — marginal (≈δ²-relative) violations in the obtuse
  small-a₁ regime, where the true worst factor is √(1−ε²) rather than the
  proof's 1/√(1+ε²);
* ``repaired/all`` — the premise coefficient tightened to √δ/(1+δ):
  **zero violations** over all angles; this repair costs only constants
  inside Theorem 4's O(·).

The pass criterion covers the two zero-violation modes; the middle mode's
worst slack is reported as the finding.

Declared as an :class:`~repro.api.ExperimentSpec`: one function cell per
(δ, dim) grid point, folded by the ``e9/lemma6`` reducer.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from ..analysis import figure2_worst_case, sample_lemma6
from ..api import ExperimentSpec, Reduction, cell_grid, register_reducer
from .runner import scaled

__all__ = ["build_spec", "cell_modes", "spec"]

_MODULE = "repro.experiments.e9_lemma6"
DELTAS = [1.0, 0.5, 0.25, 0.125, 0.0625]
DIMS = [1, 2, 3]


def cell_modes(delta: float, dim: int, n: int, seed: int) -> dict:
    """All three premise readings plus the Figure-2 frontier at one point."""
    acute = sample_lemma6(delta, n_samples=n, dim=dim, premise="paper",
                          acute_only=True, rng=np.random.default_rng(seed + dim))
    allang = sample_lemma6(delta, n_samples=n, dim=dim, premise="paper",
                           acute_only=False, rng=np.random.default_rng(seed + dim))
    repaired = sample_lemma6(delta, n_samples=n, dim=dim, premise="repaired",
                             acute_only=False, rng=np.random.default_rng(seed + dim))
    wc = figure2_worst_case(delta)
    return {
        "viol_acute": acute.violations,
        "viol_all": allang.violations,
        "min_rel_slack": allang.min_slack_relative,
        "viol_repaired": repaired.violations,
        "fig2_slack": wc.slack,
    }


@register_reducer("e9/lemma6", "Lemma 6 mode table + worst-finding note")
def _reduce(cells: Mapping[str, Any], *, points, config, scale: float,
            seed: int) -> Reduction:
    rows = []
    ok = True
    worst_finding = 0.0
    for key, point in points:
        c = cells[key]
        rows.append([point["delta"], point["dim"], c["viol_acute"], c["viol_all"],
                     c["min_rel_slack"], c["viol_repaired"], c["fig2_slack"]])
        if c["viol_acute"] or c["viol_repaired"]:
            ok = False
        worst_finding = min(worst_finding, c["min_rel_slack"])
    notes = [
        "criterion: zero violations for paper/acute (the lemma as proved) and repaired/all modes",
        "finding: the literal all-angle reading of Lemma 6 admits marginal violations "
        f"(worst relative slack {worst_finding:.2e}); premise sqrt(d)/(1+d) repairs it "
        "(slack 3/4 d^2 in the squared comparison), constants-only impact on Thm 4",
        "fig2_slack -> 0 confirms the 90-degree construction is the tight frontier",
    ]
    return Reduction(rows=rows, notes=notes, passed=ok)


def spec(scale: float = 1.0, seed: int = 0) -> ExperimentSpec:
    return ExperimentSpec(
        experiment_id="E9",
        title="Lemma 6 (Figs 1-2): premise => h-q >= (1+d/2)/(1+d) a1, three readings",
        headers=["delta", "dim", "viol(acute)", "viol(all)", "min_rel_slack(all)",
                 "viol(repaired)", "fig2_slack"],
        reducer="e9/lemma6",
        cells=cell_grid(f"{_MODULE}:cell_modes",
                        axes={"delta": DELTAS, "dim": DIMS},
                        common={"n": scaled(20000, scale, minimum=2000), "seed": seed}),
        scale=scale, seed=seed,
    )


def build_spec(scale: float = 1.0, seed: int = 0):
    return spec(scale, seed).to_sweep()
