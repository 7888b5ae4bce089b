"""Offline-optimum solvers and brackets.

* :func:`solve_line` — exact 1-D optimum by a slope-merge dynamic program
  (bracket of rounding size);
* :func:`solve_grid` — exact small 2-D grid DP;
* :func:`convex_bracket` — certified bracket of the capped program by a
  primal–dual (PDHG) solve: the dual value below, the replayed cost of
  the cap-repaired primal above, with its ``gap`` and ``converged`` flag;
  any dimension, used from 2-D up (the line stays on :func:`solve_line`);
* :func:`bracket_optimum` — method dispatch returning an
  :class:`OptBracket`.
"""

from .bounds import OptBracket, bracket_optimum
from .convex import ConvexBound, convex_bracket, project_to_cap, relaxed_lower_bound
from .dp_grid import GridDPResult, solve_grid
from .dp_line import LineDPResult, solve_line

__all__ = [
    "ConvexBound",
    "GridDPResult",
    "LineDPResult",
    "OptBracket",
    "bracket_optimum",
    "convex_bracket",
    "project_to_cap",
    "relaxed_lower_bound",
    "solve_grid",
    "solve_line",
]
