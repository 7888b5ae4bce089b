"""E16 (extension) — mobile Online Facility Location (conclusion's hint).

Compares classical Meyerson (static facilities) with the mobile variant
(same opening rule + capped MtC drift) on:

* a drifting workload — mobility must reduce total cost (facilities follow
  the demand instead of strewing a trail of stale ones);
* a stationary clustered workload — mobility must not lose (the drift is
  damped, so facilities settle onto the cluster medians).

Both are averaged over seeds; the reported ratio is
``cost(static) / cost(mobile)`` (> 1 means mobility wins).

Declared as an orchestrator sweep: one function cell per (workload, seed
index) point — each runs the static/mobile pair on identical batches —
folded by the module ``finalize``.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from ..extensions import MeyersonStatic, MobileMeyerson, simulate_facilities
from .orchestrator import SweepSpec, WorkUnit
from .runner import ExperimentResult, scaled, sweep_seeds

__all__ = ["build_spec", "cell_pair", "finalize"]

_MODULE = "repro.experiments.e16_facility"
WORKLOAD_NAMES = ["drift", "stationary"]
F = 30.0
D = 1.0


def _drift_batches(T: int, rng: np.random.Generator) -> list[np.ndarray]:
    pos = np.zeros(2)
    u = rng.normal(size=2)
    u /= np.linalg.norm(u)
    out = []
    for _ in range(T):
        pos = pos + 0.6 * u
        out.append(pos[None, :] + rng.normal(scale=0.4, size=(3, 2)))
    return out


def _stationary_batches(T: int, rng: np.random.Generator) -> list[np.ndarray]:
    centers = rng.uniform(-8, 8, size=(3, 2))
    out = []
    for _ in range(T):
        c = centers[rng.integers(0, 3)]
        out.append(c[None, :] + rng.normal(scale=0.4, size=(3, 2)))
    return out


_GENERATORS = {"drift": _drift_batches, "stationary": _stationary_batches}


def cell_pair(workload: str, s: int, cell_seed: int, T: int) -> dict:
    """Static and mobile Meyerson on one workload's identical batches."""
    batches = _GENERATORS[workload](T, np.random.default_rng(cell_seed))
    st = simulate_facilities(batches, MeyersonStatic(np.random.default_rng(s)),
                             f=F, D=D, m=1.0)
    mo = simulate_facilities(batches, MobileMeyerson(np.random.default_rng(s)),
                             f=F, D=D, m=1.0)
    return {"static_cost": st.total_cost, "mobile_cost": mo.total_cost,
            "static_n": st.n_facilities, "mobile_n": mo.n_facilities}


def _n_seeds(scale: float) -> int:
    return scaled(5, scale, minimum=3)


def _points(scale: float) -> list[tuple[str, dict[str, Any]]]:
    """``(unit key, cell coordinates)``, workload-major."""
    return [(f"cell/workload={name}/s={s}", {"workload": name, "s": s})
            for name in WORKLOAD_NAMES for s in range(_n_seeds(scale))]


def build_spec(scale: float = 1.0, seed: int = 0) -> SweepSpec:
    T = scaled(250, scale, minimum=80)
    seeds = sweep_seeds(seed, _n_seeds(scale))
    units = tuple(
        WorkUnit(key, f"{_MODULE}:cell_pair", {**point, "T": T, "cell_seed": seeds[point["s"]]})
        for key, point in _points(scale)
    )
    return SweepSpec("E16", units, finalize=f"{_MODULE}:finalize", scale=scale, seed=seed)


def finalize(results: Mapping[str, Any], scale: float, seed: int) -> ExperimentResult:
    cells: dict[str, list[dict]] = {}
    for key, point in _points(scale):
        cells.setdefault(point["workload"], []).append(results[key])
    rows: list[list[Any]] = []
    wins: dict[str, float] = {}
    for wl_name, payloads in cells.items():
        static_costs = [c["static_cost"] for c in payloads]
        mobile_costs = [c["mobile_cost"] for c in payloads]
        advantage = float(np.mean(static_costs) / np.mean(mobile_costs))
        wins[wl_name] = advantage
        rows.append([wl_name, float(np.mean(static_costs)),
                     float(np.mean([c["static_n"] for c in payloads])),
                     float(np.mean(mobile_costs)),
                     float(np.mean([c["mobile_n"] for c in payloads])), advantage])
    ok = wins["drift"] > 1.1 and wins["stationary"] > 0.9
    notes = [
        "criterion: facility mobility wins clearly on drift (advantage > 1.1) and does "
        "not lose on stationary demand (advantage > 0.9) — the conclusion's conjecture",
        f"drift advantage x{wins['drift']:.2f}; stationary advantage x{wins['stationary']:.2f}",
    ]
    return ExperimentResult(
        experiment_id="E16",
        title="Extension: mobile Online Facility Location (Meyerson + capped drift)",
        headers=["workload", "static cost", "static #fac", "mobile cost", "mobile #fac",
                 "static/mobile"],
        rows=rows,
        notes=notes,
        passed=ok,
    )
