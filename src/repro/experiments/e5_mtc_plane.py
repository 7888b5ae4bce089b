"""E5 — Theorem 4 (plane): MtC is O(1/δ^{3/2})-competitive on ℝ².

Same design as E4 but in the plane: certified ratios against the convex
bracket on benign workloads, adversarial ratios against the planar Thm-2
construction, envelope check on ``ratio * δ^{3/2}``, plus one exact
grid-DP spot check: both brackets contain the optimum, so they must
overlap.

Declared as an orchestrator sweep of generic *scenario cells*
(:func:`repro.api.runtime.scenario_units`): the convex bracket solves —
which dominate the cost and do not depend on δ — are factored into one
shared ephemeral cell per workload, and the simulation cells themselves
are mega-batch compatible (same algorithm, same instance shape), so the
inline executor packs the whole δ sweep of a workload into a single wide
batched-engine pass (see :mod:`repro.api.runtime`).  Payloads are
bit-identical to the former experiment-specific cells' measurements.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from ..api.runtime import scenario_units
from ..api.scenario import Scenario
from ..offline import bracket_optimum
from ..workloads import RandomWalkWorkload
from .orchestrator import SweepSpec, WorkUnit
from .runner import ExperimentResult, scaled, sweep_seeds, unconverged_notes

__all__ = ["build_spec", "finalize"]

_MODULE = "repro.experiments.e5_mtc_plane"
DELTAS = [1.0, 0.5, 0.25, 0.125]
WORKLOADS = ["random-walk-2d", "drift-2d"]

#: Registry source + extra parameters behind each E5 workload label
#: (geometry ``T``/``dim``/``D``/``m`` joins per spec scale).
_SOURCES = {
    "random-walk-2d": ("random-walk",
                       {"sigma": 0.3, "spread": 0.4, "requests_per_step": 4}),
    "drift-2d": ("drift",
                 {"speed": 0.8, "rotate": 0.02, "spread": 0.2, "requests_per_step": 4}),
}


# -- cells -----------------------------------------------------------------


def cell_spot_check(T: int, seed: int) -> dict:
    """Convex bracket vs exact grid DP on a short instance."""
    wl = RandomWalkWorkload(T, dim=2, D=2.0, m=1.0, sigma=0.3, spread=0.3,
                            requests_per_step=2)
    inst = wl.generate(np.random.default_rng(seed))
    convex = bracket_optimum(inst, prefer="convex")
    dp = bracket_optimum(inst, prefer="dp-grid", grid_shape=(24, 24))
    return {"convex": convex.as_payload(), "grid": dp.as_payload()}


# -- spec ------------------------------------------------------------------


def _scenarios(scale: float, seed: int) -> tuple[list[str], list[Scenario]]:
    """Keyed scenario list: the benign δ×workload grid plus the adversarial sweep."""
    T = scaled(250, scale, minimum=80)
    n_seeds = scaled(3, scale, minimum=2)
    seeds = sweep_seeds(seed, n_seeds)
    keys: list[str] = []
    scenarios: list[Scenario] = []
    for delta in DELTAS:
        for workload in WORKLOADS:
            source, extra = _SOURCES[workload]
            key = f"benign/{workload}/delta={delta}"
            keys.append(key)
            scenarios.append(Scenario.workload(
                source, "mtc",
                params={"T": T, "dim": 2, "D": 2.0, "m": 1.0, **extra},
                seeds=seeds, delta=delta, ratio="bracket", name=key,
            ))
    for delta in DELTAS:
        key = f"adversarial/delta={delta}"
        keys.append(key)
        scenarios.append(Scenario.adversary(
            "thm2", "mtc", params={"delta": delta, "cycles": 3, "dim": 2},
            seeds=seeds, delta=delta, name=key,
        ))
    return keys, scenarios


def build_spec(scale: float = 1.0, seed: int = 0) -> SweepSpec:
    keys, scenarios = _scenarios(scale, seed)
    units = list(scenario_units(scenarios, keys=keys))
    units.append(WorkUnit(
        key="spot-check",
        fn=f"{_MODULE}:cell_spot_check",
        params={"T": scaled(40, scale, minimum=20), "seed": seed},
    ))
    return SweepSpec("E5", tuple(units), finalize=f"{_MODULE}:finalize",
                     scale=scale, seed=seed)


def finalize(results: Mapping[str, Any], scale: float, seed: int) -> ExperimentResult:
    from ..analysis import measures_from_payload
    from ..offline.bounds import OptBracket

    rows = []
    envelope = []
    for delta in DELTAS:
        for workload in WORKLOADS:
            measures = measures_from_payload(results[f"benign/{workload}/delta={delta}"]["measures"])
            ratios = [m.ratio_upper for m in measures]
            rows.append([workload, delta, float(np.mean(ratios)),
                         float(np.mean(ratios)) * delta ** 1.5])
        mean_adv = float(np.mean(results[f"adversarial/delta={delta}"]["ratios"]))
        rows.append(["thm2-adversarial-2d", delta, mean_adv, mean_adv * delta ** 1.5])
        envelope.append(mean_adv * delta ** 1.5)

    spot = results["spot-check"]
    convex = OptBracket.from_payload(spot["convex"])
    dp = OptBracket.from_payload(spot["grid"])
    agree = convex.lower <= dp.upper and dp.lower <= convex.upper
    notes = [
        "criterion: MtC ratio bounded in T; ratio * delta^{3/2} bounded over delta sweep (Thm 4, plane)",
        f"envelope ratio*delta^1.5 over deltas: min {min(envelope):.2f}, max {max(envelope):.2f}",
        f"OPT-bracket cross-check: convex [{convex.lower:.2f},{convex.upper:.2f}] vs "
        f"grid DP [{dp.lower:.2f},{dp.upper:.2f}] ({'consistent' if agree else 'INCONSISTENT'})",
        *unconverged_notes({key: payload["measures"] for key, payload in results.items()
                            if key.startswith("benign/")}),
    ]
    ok = agree and max(envelope) <= 10.0 * max(min(envelope), 0.1)
    return ExperimentResult(
        experiment_id="E5",
        title="Thm 4 (plane): MtC O(1/delta^{3/2})-competitive with augmentation",
        headers=["workload", "delta", "ratio(MtC)", "ratio*delta^1.5"],
        rows=rows,
        notes=notes,
        passed=ok,
    )
