"""E16 (extension) — mobile Online Facility Location (conclusion's hint).

Compares classical Meyerson (static facilities) with the mobile variant
(same opening rule + capped MtC drift) on:

* a drifting workload — mobility must reduce total cost (facilities follow
  the demand instead of strewing a trail of stale ones);
* a stationary clustered workload — mobility must not lose (the drift is
  damped, so facilities settle onto the cluster medians).

Both are averaged over seeds; the reported ratio is
``cost(static) / cost(mobile)`` (> 1 means mobility wins).

Declared as an :class:`~repro.api.ExperimentSpec`: one function cell per
(workload, seed index) grid point — each runs the static/mobile pair on
identical batches — folded by the ``e16/facility`` reducer.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from ..api import ExperimentSpec, Reduction, cell_grid, register_reducer
from ..extensions import MeyersonStatic, MobileMeyerson, simulate_facilities
from .runner import scaled, sweep_seeds

__all__ = ["build_spec", "cell_pair", "spec"]

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


@register_reducer("e16/facility", "per-workload static/mobile means + mobility-advantage verdict")
def _reduce(cells: Mapping[str, Any], *, points, config, scale: float,
            seed: int) -> Reduction:
    groups: dict[str, list[Any]] = {}
    for key, point in points:
        groups.setdefault(point["workload"], []).append(cells[key])
    rows: list[list[Any]] = []
    wins: dict[str, float] = {}
    for wl_name, payloads in groups.items():
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
    return Reduction(rows=rows, notes=notes, passed=ok)


def spec(scale: float = 1.0, seed: int = 0) -> ExperimentSpec:
    T = scaled(250, scale, minimum=80)
    n_seeds = scaled(5, scale, minimum=3)
    seeds = sweep_seeds(seed, n_seeds)
    return ExperimentSpec(
        experiment_id="E16",
        title="Extension: mobile Online Facility Location (Meyerson + capped drift)",
        headers=["workload", "static cost", "static #fac", "mobile cost", "mobile #fac",
                 "static/mobile"],
        reducer="e16/facility",
        cells=cell_grid(f"{_MODULE}:cell_pair",
                        axes={"workload": WORKLOAD_NAMES, "s": range(n_seeds)},
                        common={"T": T},
                        derive={"cell_seed": lambda p: seeds[p["s"]]}),
        scale=scale, seed=seed,
    )


def build_spec(scale: float = 1.0, seed: int = 0):
    return spec(scale, seed).to_sweep()
