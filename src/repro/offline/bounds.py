"""Unified offline-optimum brackets.

Experiments need a number for :math:`C_{Opt}`; this module picks the best
available method per instance:

* dimension 1 → the exact slope-merge solver (:mod:`repro.offline.dp_line`);
  the primal–dual solver converges slowly on the line;
* dimension 2, tiny arena → exact grid DP (:mod:`repro.offline.dp_grid`),
  opt-in (E5's cross-check);
* otherwise → the capped program's primal–dual certificate
  (:mod:`repro.offline.convex`).

The returned :class:`OptBracket` carries ``(lower, upper)`` with
``lower <= OPT <= upper`` so ratio computations can quote certified
ranges: ``C_Alg / upper <= ratio <= C_Alg / lower``.  It also carries the
certificate's health: ``gap`` (``(upper − lower)/upper``), ``converged``
(whether the solver reached its gap tolerance; always true for the exact
solvers: ``dp-line``'s gap is its stated rounding slack, ``dp-grid``'s
its grid resolution) and ``iterations``.  A bracket
that did not converge is still a valid bracket, only a wider one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.instance import MSPInstance
from .convex import convex_bracket
from .dp_grid import solve_grid
from .dp_line import solve_line

__all__ = ["OptBracket", "bracket_optimum"]


@dataclass(frozen=True)
class OptBracket:
    """A certified sandwich of the offline optimum.

    Attributes
    ----------
    lower, upper:
        ``lower <= OPT <= upper``.
    method:
        Which solver produced the bracket (``"dp-line"``, ``"dp-grid"``,
        ``"convex"``).
    positions:
        A feasible trajectory achieving ``upper`` (``(T + 1, d)``).
    gap:
        ``(upper - lower) / upper`` (``0`` when ``upper`` is ``0``).
    converged:
        Whether the solver reached its gap tolerance (``True`` for the
        exact DPs).
    iterations:
        Solver iterations (``0`` for the exact DPs).
    """

    lower: float
    upper: float
    method: str
    positions: np.ndarray
    gap: float
    converged: bool = True
    iterations: int = 0

    @classmethod
    def exact(cls, lower: float, upper: float, method: str,
              positions: np.ndarray) -> "OptBracket":
        """A bracket from an exact solver (``dp-line``, ``dp-grid``): converged
        by construction, gap from its ends (rounding-sized for ``dp-line``,
        the grid resolution for ``dp-grid``)."""
        gap = (upper - lower) / upper if upper > 0 else 0.0
        return cls(lower, upper, method, positions, gap)

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lower + self.upper)

    def as_payload(self) -> dict:
        """Store-compatible payload (exact; arrays kept bit-for-bit)."""
        return {
            "lower": float(self.lower),
            "upper": float(self.upper),
            "method": self.method,
            "positions": np.asarray(self.positions),
            "gap": float(self.gap),
            "converged": bool(self.converged),
            "iterations": int(self.iterations),
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "OptBracket":
        return cls(
            lower=payload["lower"],
            upper=payload["upper"],
            method=payload["method"],
            positions=payload["positions"],
            gap=payload["gap"],
            converged=payload["converged"],
            iterations=payload["iterations"],
        )


def bracket_optimum(
    instance: MSPInstance,
    grid_shape: tuple[int, int] = (32, 32),
    prefer: str | None = None,
) -> OptBracket:
    """Bracket the offline optimum of ``instance``.

    Parameters
    ----------
    prefer:
        Force a method: ``"dp-line"``, ``"dp-grid"`` or ``"convex"``.
        Defaults to the best method for the dimension (the exact line
        solver for 1-D, the primal–dual certificate otherwise; ``"dp-grid"``
        is opt-in because of its :math:`O(S^2)` transition).
    grid_shape:
        ``dp-grid``'s grid.
    """
    method = prefer
    if method is None:
        method = "dp-line" if instance.dim == 1 else "convex"

    if method == "dp-line":
        res = solve_line(instance)
        return OptBracket.exact(res.lower_bound, res.cost, "dp-line", res.positions)
    if method == "dp-grid":
        res2 = solve_grid(instance, grid_shape=grid_shape)
        return OptBracket.exact(res2.lower_bound, res2.cost, "dp-grid", res2.positions)
    if method == "convex":
        cb = convex_bracket(instance)
        return OptBracket(cb.lower, cb.upper, "convex", cb.feasible_positions,
                          gap=cb.gap, converged=cb.converged, iterations=cb.iterations)
    raise ValueError(f"unknown method {method!r}")
