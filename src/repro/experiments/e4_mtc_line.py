"""E4 — Theorem 4 (line): MtC is O(1/δ)-competitive on ℝ¹.

Measures MtC's certified ratio (against the exact 1-D DP optimum) on
benign and adversarial line workloads across a δ sweep, and checks two
shapes:

* ratios are *bounded in T* (re-running with doubled T does not grow the
  ratio) — the qualitative content of Theorem 4;
* ``ratio * δ`` stays bounded across the δ sweep on the adversarial
  workload — the O(1/δ) envelope.

Declared as an :class:`~repro.api.ExperimentSpec` with hand-built
function cells (the δ sweep shares the offline DP brackets through
explicit cell deps, which :func:`~repro.api.cell_grid` does not express):
the brackets are computed once per benign workload and consumed by all
four δ simulation cells, instead of being re-solved per δ as the old
sequential loop did.  The ``e4/mtc-line`` reducer folds the payloads
into the table.
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from ..adversaries import build_thm2
from ..algorithms import MoveToCenter
from ..analysis import (
    measure_adversarial_ratio_batch,
    measure_ratio,
    measure_ratio_batch,
    measures_from_payload,
    measures_to_payload,
)
from ..api import CellSpec, ExperimentSpec, Reduction, register_reducer
from ..offline import bracket_optimum
from ..workloads import DriftWorkload, RandomWalkWorkload
from .runner import scaled, seeded_instances, sweep_seeds

__all__ = ["build_spec", "spec"]

_MODULE = "repro.experiments.e4_mtc_line"
DELTAS = [1.0, 0.5, 0.25, 0.125]
WORKLOADS = ["random-walk", "drift"]
DELTA0 = 0.25


def _workload(name: str, T: int):
    if name == "random-walk":
        return RandomWalkWorkload(T, dim=1, D=2.0, m=1.0, sigma=0.3,
                                  spread=0.4, requests_per_step=4)
    if name == "drift":
        return DriftWorkload(T, dim=1, D=2.0, m=1.0, speed=0.8, spread=0.2,
                             requests_per_step=4)
    raise KeyError(f"unknown E4 workload {name!r}")


# -- cells -----------------------------------------------------------------


def cell_brackets(workload: str, T: int, n_seeds: int, seed: int) -> dict:
    """Exact DP brackets of the benign instances, shared across the δ sweep."""
    instances = seeded_instances(_workload(workload, T), n_seeds, seed)
    return {"brackets": [bracket_optimum(inst).as_payload() for inst in instances]}


def cell_benign(workload: str, delta: float, T: int, n_seeds: int, seed: int,
                deps: Mapping[str, Any]) -> dict:
    from ..offline.bounds import OptBracket

    instances = seeded_instances(_workload(workload, T), n_seeds, seed)
    brackets = [OptBracket.from_payload(p) for p in deps[f"brackets/{workload}"]["brackets"]]
    measures = measure_ratio_batch(instances, "mtc", delta=delta, brackets=brackets)
    return {"measures": measures_to_payload(measures)}


def cell_adversarial(delta: float, n_seeds: int, seed: int) -> dict:
    mean_adv, per_seed = measure_adversarial_ratio_batch(
        lambda rng: build_thm2(delta, cycles=3, rng=rng), "mtc", delta,
        sweep_seeds(seed, n_seeds),
    )
    return {"mean": mean_adv, "per_seed": per_seed}


def cell_t_doubling(T: int, delta0: float, seed: int) -> dict:
    """Boundedness in T: double T at the middle delta."""
    wl_s = DriftWorkload(T, dim=1, D=2.0, m=1.0, speed=0.8, spread=0.2, requests_per_step=4)
    wl_l = DriftWorkload(2 * T, dim=1, D=2.0, m=1.0, speed=0.8, spread=0.2, requests_per_step=4)
    r_small = measure_ratio(wl_s.generate(np.random.default_rng(seed)), MoveToCenter(),
                            delta=delta0).ratio_upper
    r_large = measure_ratio(wl_l.generate(np.random.default_rng(seed)), MoveToCenter(),
                            delta=delta0).ratio_upper
    return {"r_small": r_small, "r_large": r_large}


# -- reducer ---------------------------------------------------------------


@register_reducer("e4/mtc-line",
                  "benign + adversarial ratio table, O(1/delta) envelope, T-doubling check")
def _reduce(cells: Mapping[str, Any], *, points, config, scale: float,
            seed: int) -> Reduction:
    T = scaled(400, scale, minimum=100)
    rows = []
    envelope = []
    for delta in DELTAS:
        for workload in WORKLOADS:
            measures = measures_from_payload(cells[f"benign/{workload}/delta={delta}"]["measures"])
            ratios = [m.ratio_upper for m in measures]
            rows.append([workload, delta, float(np.mean(ratios)), float(np.mean(ratios)) * delta])
        mean_adv = cells[f"adversarial/delta={delta}"]["mean"]
        rows.append(["thm2-adversarial", delta, mean_adv, mean_adv * delta])
        envelope.append(mean_adv * delta)

    doubling = cells["t-doubling"]
    r_small, r_large = doubling["r_small"], doubling["r_large"]
    notes = [
        "criterion: MtC ratio bounded independent of T; ratio * delta bounded over delta sweep (Thm 4, line)",
        f"T-independence at delta={DELTA0}: ratio(T={T}) = {r_small:.2f} vs ratio(T={2 * T}) = {r_large:.2f}",
        f"adversarial envelope ratio*delta over deltas: min {min(envelope):.2f}, max {max(envelope):.2f}",
    ]
    ok = r_large <= r_small * 1.5 + 0.5 and max(envelope) <= 10.0 * max(min(envelope), 0.1)
    return Reduction(rows=rows, notes=notes, passed=ok)


# -- spec ------------------------------------------------------------------


def spec(scale: float = 1.0, seed: int = 0) -> ExperimentSpec:
    T = scaled(400, scale, minimum=100)
    n_seeds = scaled(4, scale, minimum=2)
    cells: list[CellSpec] = []
    for workload in WORKLOADS:
        cells.append(CellSpec(
            key=f"brackets/{workload}",
            fn=f"{_MODULE}:cell_brackets",
            params={"workload": workload, "T": T, "n_seeds": n_seeds, "seed": seed},
        ))
    for delta in DELTAS:
        for workload in WORKLOADS:
            cells.append(CellSpec(
                key=f"benign/{workload}/delta={delta}",
                fn=f"{_MODULE}:cell_benign",
                params={"workload": workload, "delta": delta, "T": T,
                        "n_seeds": n_seeds, "seed": seed},
                point={"workload": workload, "delta": delta},
                deps=(f"brackets/{workload}",),
            ))
    for delta in DELTAS:
        cells.append(CellSpec(
            key=f"adversarial/delta={delta}",
            fn=f"{_MODULE}:cell_adversarial",
            params={"delta": delta, "n_seeds": n_seeds, "seed": seed},
            point={"delta": delta},
        ))
    cells.append(CellSpec(
        key="t-doubling",
        fn=f"{_MODULE}:cell_t_doubling",
        params={"T": T, "delta0": DELTA0, "seed": seed},
    ))
    return ExperimentSpec(
        experiment_id="E4",
        title="Thm 4 (line): MtC O(1/delta)-competitive with (1+delta)m augmentation",
        headers=["workload", "delta", "ratio(MtC)", "ratio*delta"],
        reducer="e4/mtc-line",
        cells=tuple(cells),
        scale=scale, seed=seed,
    )


def build_spec(scale: float = 1.0, seed: int = 0):
    return spec(scale, seed).to_sweep()
