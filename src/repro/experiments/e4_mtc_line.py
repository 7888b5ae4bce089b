"""E4 — Theorem 4 (line): MtC is O(1/δ)-competitive on ℝ¹.

Measures MtC's certified ratio (against the exact 1-D DP optimum) on
benign and adversarial line workloads across a δ sweep, and checks two
shapes:

* ratios are *bounded in T* (re-running with doubled T does not grow the
  ratio) — the qualitative content of Theorem 4;
* ``ratio * δ`` stays bounded across the δ sweep on the adversarial
  workload — the O(1/δ) envelope.

Declared, like E5, as an orchestrator sweep of generic scenario cells
(:func:`repro.api.runtime.scenario_units`): the benign δ×workload grid
shares one ephemeral DP-bracket cell per workload, the Thm-2 sweep
certifies against the construction's own cost, and the T-doubling pair
is two one-seed drift scenarios.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from ..api.runtime import scenario_units
from ..api.scenario import Scenario
from .orchestrator import SweepSpec
from .runner import ExperimentResult, scaled, sweep_seeds

__all__ = ["build_spec", "finalize"]

_MODULE = "repro.experiments.e4_mtc_line"
DELTAS = [1.0, 0.5, 0.25, 0.125]
WORKLOADS = ["random-walk", "drift"]
DELTA0 = 0.25

#: Registry parameters of each benign line workload beyond ``T``.
_PARAMS = {
    "random-walk": {"dim": 1, "D": 2.0, "m": 1.0, "sigma": 0.3, "spread": 0.4,
                    "requests_per_step": 4},
    "drift": {"dim": 1, "D": 2.0, "m": 1.0, "speed": 0.8, "spread": 0.2,
              "requests_per_step": 4},
}


def _scenarios(scale: float, seed: int) -> tuple[list[str], list[Scenario]]:
    """Keyed scenarios: benign δ×workload grid, Thm-2 sweep, T-doubling pair."""
    T = scaled(400, scale, minimum=100)
    seeds = sweep_seeds(seed, scaled(4, scale, minimum=2))
    keys: list[str] = []
    scenarios: list[Scenario] = []
    for delta in DELTAS:
        for workload in WORKLOADS:
            key = f"benign/{workload}/delta={delta}"
            keys.append(key)
            scenarios.append(Scenario.workload(
                workload, "mtc", params={"T": T, **_PARAMS[workload]},
                seeds=seeds, delta=delta, ratio="bracket", name=key,
            ))
    for delta in DELTAS:
        key = f"adversarial/delta={delta}"
        keys.append(key)
        scenarios.append(Scenario.adversary(
            "thm2", "mtc", params={"delta": delta, "cycles": 3},
            seeds=seeds, delta=delta, name=key,
        ))
    for horizon in (T, 2 * T):
        key = f"t-doubling/T={horizon}"
        keys.append(key)
        scenarios.append(Scenario.workload(
            "drift", "mtc", params={"T": horizon, **_PARAMS["drift"]},
            seeds=(seed,), delta=DELTA0, ratio="bracket", name=key,
        ))
    return keys, scenarios


def build_spec(scale: float = 1.0, seed: int = 0) -> SweepSpec:
    keys, scenarios = _scenarios(scale, seed)
    return SweepSpec("E4", tuple(scenario_units(scenarios, keys=keys)),
                     finalize=f"{_MODULE}:finalize", scale=scale, seed=seed)


def finalize(results: Mapping[str, Any], scale: float, seed: int) -> ExperimentResult:
    T = scaled(400, scale, minimum=100)
    rows = []
    envelope = []
    for delta in DELTAS:
        for workload in WORKLOADS:
            ratio = float(np.mean(results[f"benign/{workload}/delta={delta}"]["measures"]["ratio_upper"]))
            rows.append([workload, delta, ratio, ratio * delta])
        mean_adv = float(np.mean(results[f"adversarial/delta={delta}"]["ratios"]))
        rows.append(["thm2-adversarial", delta, mean_adv, mean_adv * delta])
        envelope.append(mean_adv * delta)

    r_small = float(results[f"t-doubling/T={T}"]["measures"]["ratio_upper"][0])
    r_large = float(results[f"t-doubling/T={2 * T}"]["measures"]["ratio_upper"][0])
    notes = [
        "criterion: MtC ratio bounded independent of T; ratio * delta bounded over delta sweep (Thm 4, line)",
        f"T-independence at delta={DELTA0}: ratio(T={T}) = {r_small:.2f} vs ratio(T={2 * T}) = {r_large:.2f}",
        f"adversarial envelope ratio*delta over deltas: min {min(envelope):.2f}, max {max(envelope):.2f}",
    ]
    ok = r_large <= r_small * 1.5 + 0.5 and max(envelope) <= 10.0 * max(min(envelope), 0.1)
    return ExperimentResult(
        experiment_id="E4",
        title="Thm 4 (line): MtC O(1/delta)-competitive with (1+delta)m augmentation",
        headers=["workload", "delta", "ratio(MtC)", "ratio*delta"],
        rows=rows,
        notes=notes,
        passed=ok,
    )
