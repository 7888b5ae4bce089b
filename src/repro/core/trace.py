"""Simulation traces.

A :class:`Trace` records everything about one run of an algorithm on an
instance: the server trajectory, per-step cost breakdowns and request
counts.  Analysis modules (potential-function verification, competitive
ratio curves, regression fits) consume traces rather than re-simulating.

Arrays are pre-allocated to the sequence length and filled in place — the
simulator never appends to Python lists in its inner loop.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .validation import recorded_step_limit

__all__ = ["Trace"]


@dataclass
class Trace:
    """Complete record of one simulation run.

    Attributes
    ----------
    positions:
        ``(T + 1, d)`` server positions; row 0 is :math:`P_0`.
    movement_costs, service_costs:
        ``(T,)`` weighted movement cost and service cost per step.
    distances_moved:
        ``(T,)`` raw per-step movement distances.
    request_counts:
        ``(T,)`` request counts :math:`r_t`.
    algorithm:
        Name of the algorithm that produced the trace.
    """

    positions: np.ndarray
    movement_costs: np.ndarray
    service_costs: np.ndarray
    distances_moved: np.ndarray
    request_counts: np.ndarray
    algorithm: str = ""

    @classmethod
    def allocate(cls, T: int, dim: int, algorithm: str = "") -> "Trace":
        """Pre-allocate a trace for a ``T``-step run in ``dim`` dimensions."""
        return cls(
            positions=np.zeros((T + 1, dim)),
            movement_costs=np.zeros(T),
            service_costs=np.zeros(T),
            distances_moved=np.zeros(T),
            request_counts=np.zeros(T, dtype=np.int64),
            algorithm=algorithm,
        )

    @property
    def length(self) -> int:
        return int(self.movement_costs.shape[0])

    @property
    def dim(self) -> int:
        return int(self.positions.shape[1])

    @property
    def step_costs(self) -> np.ndarray:
        """``(T,)`` total cost per step."""
        return self.movement_costs + self.service_costs

    @property
    def total_cost(self) -> float:
        return float(self.movement_costs.sum() + self.service_costs.sum())

    @property
    def total_movement_cost(self) -> float:
        return float(self.movement_costs.sum())

    @property
    def total_service_cost(self) -> float:
        return float(self.service_costs.sum())

    @property
    def total_distance_moved(self) -> float:
        return float(self.distances_moved.sum())

    def cumulative_costs(self) -> np.ndarray:
        """``(T,)`` prefix sums of total step cost."""
        return np.cumsum(self.step_costs)

    def prefix_cost(self, t: int) -> float:
        """Total cost of the first ``t`` steps."""
        if t <= 0:
            return 0.0
        return float(self.step_costs[:t].sum())

    def max_step_distance(self) -> float:
        """Largest single-step movement — used to check cap compliance."""
        return float(self.distances_moved.max()) if self.length else 0.0

    def validate_against_cap(self, cap: float) -> None:
        """Raise ``ValueError`` if any step moved further than ``cap``
        (beyond :func:`repro.core.validation.recorded_step_limit`)."""
        if self.length == 0:
            return
        limit = recorded_step_limit(cap, self.positions)
        bad = np.nonzero(self.distances_moved > limit)[0]
        if bad.size:
            t = int(bad[0])
            raise ValueError(
                f"trace violates movement cap at step {t}: "
                f"moved {self.distances_moved[t]:.6g} > cap {cap:.6g}"
            )

    def summary(self) -> dict[str, float]:
        return {
            "total": self.total_cost,
            "movement": self.total_movement_cost,
            "service": self.total_service_cost,
            "distance_moved": self.total_distance_moved,
            "steps": float(self.length),
            "max_step_distance": self.max_step_distance(),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Trace(alg={self.algorithm!r}, T={self.length}, dim={self.dim}, "
            f"total={self.total_cost:.4g})"
        )
