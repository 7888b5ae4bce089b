"""Competitive-ratio measurement against a bracketed offline optimum.

:class:`RatioMeasurement` quotes a ratio as a certified interval
``[cost/upper, cost/lower]`` over an :class:`~repro.offline.bounds.OptBracket`;
:meth:`RatioMeasurement.certify` is the one place that interval is
computed, shared by :func:`measure_ratio` (one instance, one scalar
simulation — E10's collapsed instances and the examples) and the
scenario runtime (:mod:`repro.api.runtime`), which measures every
experiment sweep: seed-batched, mega-batched across cells, with its
brackets shared across δ cells.  Certification against an adversary
construction (``cost / adversary cost``, a ratio lower bound) is a
scenario's ``ratio="adversary"`` mode.

Also here: the Lemma-5 pairing helper (:func:`collapse_to_centers`), which
replaces each batch by ``r`` copies of its tie-broken center — the
simplified instances on which the paper's per-step analysis operates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..algorithms.base import OnlineAlgorithm
from ..core.instance import MSPInstance
from ..core.requests import RequestSequence
from ..core.simulator import simulate
from ..median import request_center
from ..offline.bounds import OptBracket, bracket_optimum

__all__ = [
    "RatioMeasurement",
    "measure_ratio",
    "measures_from_payload",
    "measures_to_payload",
    "collapse_to_centers",
]


@dataclass(frozen=True)
class RatioMeasurement:
    """A measured competitive ratio with certification bounds.

    Attributes
    ----------
    cost:
        Online algorithm's total cost.
    opt_lower, opt_upper:
        Certified bracket of the offline optimum.
    ratio_lower, ratio_upper:
        ``cost/opt_upper`` and ``cost/opt_lower``.
    opt_gap, opt_converged:
        The bracket's relative gap and whether its solver reached its
        gap tolerance; an unconverged bracket is valid but wide, and
        :class:`~repro.api.runtime.RunResult` flags it.
    algorithm:
        Name of the measured algorithm.
    """

    cost: float
    opt_lower: float
    opt_upper: float
    ratio_lower: float
    ratio_upper: float
    opt_gap: float
    opt_converged: bool
    algorithm: str = ""

    @classmethod
    def certify(cls, cost: float, bracket: OptBracket, algorithm: str = "") -> "RatioMeasurement":
        """Divide an online cost by a certified bracket of the optimum."""
        cost = float(cost)
        return cls(
            cost=cost,
            opt_lower=bracket.lower,
            opt_upper=bracket.upper,
            ratio_lower=cost / max(bracket.upper, 1e-300),
            ratio_upper=cost / max(bracket.lower, 1e-300),
            opt_gap=float(bracket.gap),
            opt_converged=bool(bracket.converged),
            algorithm=algorithm,
        )

    @property
    def ratio(self) -> float:
        """Point estimate: cost over the bracket midpoint."""
        mid = 0.5 * (self.opt_lower + self.opt_upper)
        return self.cost / mid if mid > 0 else float("inf")


def measure_ratio(
    instance: MSPInstance,
    algorithm: OnlineAlgorithm,
    delta: float = 0.0,
    bracket: OptBracket | None = None,
    **bracket_kwargs,
) -> RatioMeasurement:
    """Simulate and divide by a bracketed offline optimum."""
    trace = simulate(instance, algorithm, delta=delta)
    if bracket is None:
        bracket = bracket_optimum(instance, **bracket_kwargs)
    return RatioMeasurement.certify(trace.total_cost, bracket, algorithm.name)


def measures_to_payload(measures: Sequence[RatioMeasurement]) -> dict:
    """Pack measurements for the orchestrator's results store (exact).

    All float fields travel as float64 arrays, so a measurement loaded
    back via :func:`measures_from_payload` is bit-identical to the one
    that was computed.
    """
    return {
        "algorithm": [m.algorithm for m in measures],
        "cost": np.array([m.cost for m in measures], dtype=np.float64),
        "opt_lower": np.array([m.opt_lower for m in measures], dtype=np.float64),
        "opt_upper": np.array([m.opt_upper for m in measures], dtype=np.float64),
        "ratio_lower": np.array([m.ratio_lower for m in measures], dtype=np.float64),
        "ratio_upper": np.array([m.ratio_upper for m in measures], dtype=np.float64),
        "opt_gap": np.array([m.opt_gap for m in measures], dtype=np.float64),
        "opt_converged": [m.opt_converged for m in measures],
    }


def measures_from_payload(payload: dict) -> list[RatioMeasurement]:
    """Inverse of :func:`measures_to_payload`."""
    return [
        RatioMeasurement(
            cost=float(payload["cost"][i]),
            opt_lower=float(payload["opt_lower"][i]),
            opt_upper=float(payload["opt_upper"][i]),
            ratio_lower=float(payload["ratio_lower"][i]),
            ratio_upper=float(payload["ratio_upper"][i]),
            opt_gap=float(payload["opt_gap"][i]),
            opt_converged=bool(payload["opt_converged"][i]),
            algorithm=payload["algorithm"][i],
        )
        for i in range(len(payload["algorithm"]))
    ]


def collapse_to_centers(instance: MSPInstance, server_hint: np.ndarray | None = None) -> MSPInstance:
    """Lemma 5's simplification: each batch becomes ``r`` copies of its center.

    The center is the tie-broken geometric median; since the true tie-break
    depends on the online server's position (unknown offline), the hint
    defaults to the instance start — for batches with unique medians (the
    typical case) the hint is irrelevant.
    """
    hint = np.asarray(server_hint if server_hint is not None else instance.start, dtype=np.float64)
    batches = []
    for t in range(instance.length):
        batch = instance.requests[t]
        if batch.count == 0:
            batches.append(np.empty((0, instance.dim)))
            continue
        c = request_center(batch.points, hint)
        batches.append(np.tile(c, (batch.count, 1)))
    seq = RequestSequence(batches, dim=instance.dim)
    return MSPInstance(
        seq,
        start=instance.start,
        D=instance.D,
        m=instance.m,
        cost_model=instance.cost_model,
        name=f"collapsed({instance.name})",
    )
