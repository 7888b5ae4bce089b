"""Exact offline optimum on the line by a slope-merge dynamic program.

In dimension 1 the capped offline program

.. math:: \\min \\sum_t D|P_t - P_{t-1}| + \\sum_{t,i} |P_{a(t)} - v_{t,i}|
          \\quad \\text{s.t.} \\; |P_t - P_{t-1}| \\le m

(step ``t`` served at ``P_t`` under move-first, at ``P_{t-1}`` under
answer-first; no service terms under movement-only) has a convex,
piecewise-linear cost-to-come ``f_t``.  Carrying its breakpoints solves
the program exactly — the fused-lasso dynamic program of N. Johnson, "A
dynamic programming algorithm for the fused lasso and L0-segmentation",
JCGS 22(2), 2013, also known as the "slope trick":

* a request at ``v`` adds ``|x − v|``: one breakpoint of weight 2;
* the capped move is the inf-convolution of ``f`` with ``D|u|`` on
  ``[−m, m]``.  Every breakpoint splits by its left/right slopes
  ``σ−, σ+`` against ``∓D`` into a piece at ``x − m`` of weight
  ``min(σ+, −D) − σ−``, one at ``x`` of weight
  ``min(σ+, D) − max(σ−, −D)`` and one at ``x + m`` of weight
  ``σ+ − max(σ−, D)``; only positive pieces exist.

The breakpoints live in three stacks: ``L`` (slopes at most ``−D``, all
shifted by ``−m`` per move through one lazy offset), ``R`` (slopes at
least ``D``, shifted by ``+m``) and a short middle run between them.  A
move rebalances the stacks at their two boundaries, splits the (at most
two) straddling breakpoints and bumps the offsets, so a step does a
bisection and a list insert per request and touches only the boundary
breakpoints, never all ``n``.  The domain ``[a, b]`` is held as two
breakpoints of weight :data:`_STEEP`, so its edges obey the same rules
with no infinite slopes.

Slopes are exact: every slope is ``k + e·D`` with integers ``k`` and
``e ∈ {−1, 0, 1}``, kept as the integer pair, so every comparison with
``±D`` is exact.  Positions and the value are floats; see
:func:`_rounding_slack` for the stated bound on their rounding.

Backtracking records, per step, the first point ``y_lo`` whose right
slope is at least ``−D`` and the last point ``y_hi`` whose left slope is
at most ``D``; from ``P_t`` the best predecessor is
``clip(clip(P_t, y_lo, y_hi), P_t − m, P_t + m)``.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from ..core.instance import MSPInstance
from ..core.simulator import replay_cost

__all__ = ["LineDPResult", "solve_line"]

#: Weight of the two domain-edge breakpoints: an integer slope step far
#: beyond any real slope (at most ``N + D``), so the edges always split.
_STEEP = 1 << 62

_EPS = 2.0 ** -53


@dataclass(frozen=True)
class LineDPResult:
    """Outcome of the exact 1-D solve.

    Attributes
    ----------
    cost:
        Replayed cost of ``positions``, a cap-feasible optimal trajectory
        (upper end of the bracket).
    lower_bound:
        The computed minimum minus :func:`_rounding_slack` (lower end).
    positions:
        ``(T + 1, 1)`` trajectory achieving ``cost``; ``positions[0]`` is
        the start exactly.
    """

    cost: float
    lower_bound: float
    positions: np.ndarray

    @property
    def bracket(self) -> tuple[float, float]:
        """``(lower_bound, cost)`` sandwich of the continuous optimum."""
        return (self.lower_bound, self.cost)


class _Slopes:
    """The breakpoint stacks of one cost-to-come ``f_t``.

    ``lx`` holds ``L``'s positions in ascending order minus the lazy
    offset ``off_l``; ``rq`` holds ``R``'s as ``off_r − x``, ascending, so
    that both stacks keep their boundary element last.  Weights are
    ``(k, e)`` pairs meaning ``k + e·D``.  ``sl`` is the slope just right
    of ``L``'s top, ``sr`` the slope just left of ``R``'s top.
    """

    def __init__(self, start: float, D: float, m: float) -> None:
        self.D, self.m = D, m
        self.lx, self.lw, self.off_l = [start], [(_STEEP, 0)], 0.0
        self.rq, self.rw, self.off_r = [-start], [(_STEEP, 0)], 0.0
        self.mx: list[float] = []
        self.mw: list[tuple[int, int]] = []
        self.sl = (0, 0)
        self.sr = (0, 0)
        # Rounding bookkeeping for _rounding_slack: the weight of the real
        # breakpoints converted between stored and actual positions, and
        # how often a domain edge was.
        self.moved = 0.0
        self.edge_moves = 0

    def _vs(self, s: tuple[int, int], c: int) -> int:
        """Exact sign of slope ``s`` minus ``c·D`` (``c = ±1``): ``e``
        is at most 1 in size, so ``(c − e)·D`` is exact, and Python
        compares an integer with a float exactly."""
        x = (c - s[1]) * self.D
        return (s[0] > x) - (s[0] < x)

    def _converted(self, w: tuple[int, int]) -> None:
        """Count a breakpoint of weight ``w`` moved between a stack and
        the middle run (its position rounds once each way)."""
        if abs(w[0]) >= _STEEP >> 1:
            self.edge_moves += 1
        else:
            self.moved += w[0] + w[1] * self.D

    def serve(self, v: float) -> float:
        """Add ``|x − v|``; returns ``|a − v|``, the change of ``f(a)``."""
        a = self.lx[0] + self.off_l
        b = self.off_r - self.rq[0]
        sl, sr = self.sl, self.sr
        if v <= a:
            self.sl, self.sr = (sl[0] + 1, sl[1]), (sr[0] + 1, sr[1])
        elif v >= b:
            self.sl, self.sr = (sl[0] - 1, sl[1]), (sr[0] - 1, sr[1])
        elif v < self.lx[-1] + self.off_l:
            _insert(self.lx, self.lw, v - self.off_l)
            self.moved += 2.0
            self.sl, self.sr = (sl[0] + 1, sl[1]), (sr[0] + 1, sr[1])
        elif v > self.off_r - self.rq[-1]:
            _insert(self.rq, self.rw, self.off_r - v)
            self.moved += 2.0
            self.sl, self.sr = (sl[0] - 1, sl[1]), (sr[0] - 1, sr[1])
        else:
            _insert(self.mx, self.mw, v)
            self.sl, self.sr = (sl[0] - 1, sl[1]), (sr[0] + 1, sr[1])
        return abs(a - v)

    def move(self) -> tuple[float, float]:
        """Inf-convolve with the capped ``D|u|``; returns ``(y_lo, y_hi)``
        of the function before the move."""
        lx, lw, rq, rw, mx, mw = self.lx, self.lw, self.rq, self.rw, self.mx, self.mw
        sl, sr = self.sl, self.sr
        # Pull the breakpoints whose slopes left their stack into the middle
        # run, then push the middle's clear ones out; the middle ends
        # non-empty, from slope sl <= -D to slope sr >= D.
        while lx and self._vs(sl, -1) > 0:
            w = lw.pop()
            mx.insert(0, lx.pop() + self.off_l)
            mw.insert(0, w)
            self._converted(w)
            sl = (sl[0] - w[0], sl[1] - w[1])
        while rq and self._vs(sr, 1) < 0:
            w = rw.pop()
            mx.append(self.off_r - rq.pop())
            mw.append(w)
            self._converted(w)
            sr = (sr[0] + w[0], sr[1] + w[1])
        while True:
            w = mw[0]
            up = (sl[0] + w[0], sl[1] + w[1])
            if self._vs(up, -1) > 0:
                break
            lx.append(mx.pop(0) - self.off_l)
            lw.append(mw.pop(0))
            self._converted(w)
            sl = up
        while True:
            w = mw[-1]
            down = (sr[0] - w[0], sr[1] - w[1])
            if self._vs(down, 1) < 0:
                break
            rq.append(self.off_r - mx.pop())
            rw.append(mw.pop())
            self._converted(w)
            sr = down
        y_lo = lx[-1] + self.off_l if self._vs(sl, -1) == 0 else mx[0]
        y_hi = self.off_r - rq[-1] if self._vs(sr, 1) == 0 else mx[-1]
        # Split the straddlers: the part of a slope step below -D moves
        # left with L, the part above D moves right with R.
        if self._vs(sl, -1) < 0:
            piece = (-sl[0], -1 - sl[1])
            lx.append(mx[0] - self.off_l)
            lw.append(piece)
            self._converted(piece)
            w = mw[0]
            mw[0] = (w[0] - piece[0], w[1] - piece[1])
        if self._vs(sr, 1) > 0:
            piece = (sr[0], sr[1] - 1)
            rq.append(self.off_r - mx[-1])
            rw.append(piece)
            self._converted(piece)
            w = mw[-1]
            mw[-1] = (w[0] - piece[0], w[1] - piece[1])
        self.sl, self.sr = (0, -1), (0, 1)
        self.off_l -= self.m
        self.off_r += self.m
        return y_lo, y_hi

    def minimum(self, anchor: list[float]) -> tuple[float, float]:
        """``(argmin, min)`` of ``f``; ``anchor`` holds the terms of
        ``f(a)``, summed here with :func:`math.fsum`."""
        xs = [x + self.off_l for x in self.lx] + self.mx + [self.off_r - q for q in reversed(self.rq)]
        ws = self.lw + self.mw + self.rw[::-1]
        D = self.D
        # The slope left of a: sl less every weight of L.
        k, e = self.sl
        for wk, we in self.lw:
            k, e = k - wk, e - we
        terms = list(anchor)
        for j, (wk, we) in enumerate(ws):
            k, e = k + wk, e + we
            if k >= -e * D:  # right slope >= 0: the minimum
                return xs[j], math.fsum(terms)
            terms.append((k + e * D) * (xs[j + 1] - xs[j]))
        raise ArithmeticError("cost-to-come has no minimum")  # pragma: no cover


def _insert(keys: list[float], weights: list[tuple[int, int]], x: float) -> None:
    """Insert a weight-2 breakpoint at ``x``, merging an equal position."""
    i = bisect_right(keys, x)
    if i and keys[i - 1] == x:
        w = weights[i - 1]
        weights[i - 1] = (w[0] + 2, w[1])
    else:
        keys.insert(i, x)
        weights.insert(i, (2, 0))


def _rounding_slack(instance: MSPInstance, state: _Slopes, upper: float) -> float:
    """Stated bound on the rounding of the computed minimum and of ``upper``.

    Slopes are exact, so only positions and values round (``ε = 2⁻⁵³``).
    Let ``R = |P_0| + T·m + max|v|``, which bounds every position and
    every ``|x − v|``, and ``n_t`` the requests served up to step ``t``, so
    every real slope of ``f_t`` is at most ``n_t + D`` in size.  Moving a
    breakpoint of weight ``w`` by ``δ`` moves ``f`` by at most ``w·δ`` on
    the domain (for the left edge, which anchors ``f(a)``, ``w`` is the
    slope beside it), and the moves and requests are non-expansive in the
    sup norm, so earlier errors never grow.  The error of the minimum is
    therefore at most the sum of:

    * the offsets: the ``t``-th move rounds ``off ∓ m`` by at most
      ``ε(t+1)m``, shifting stacks and the edge of weight at most
      ``3(n_t + D)``;
    * every conversion between a stored and an actual position (request
      inserts, pops, pushes and split pieces, counted as they happen:
      weight ``W`` of real breakpoints, ``E`` edge moves), at most ``3ε·R``
      each: ``3ε·R·(W + E·(N + D))``;
    * the domain edges, off by at most ``ε·m·T(T+1)/2``, which cost at most
      ``N + D`` per unit when the optimum sits on one;
    * the final positions, differences, ``slope·length`` products, the
      ``|a − v|`` terms and their :func:`math.fsum`: at most
      ``9ε·(N + D)·R``.

    The replayed ``upper`` sums at most ``2T + r_max + 6`` roundings of
    nonnegative terms, so it is within ``γ_{2T + r_max + 6}·upper`` of the
    exact cost of its trajectory; adding that too makes a correct solve
    return ``lower <= OPT <= upper`` with ``lower <= upper``.
    """
    counts = instance.requests.counts
    T = instance.length
    D, m = float(instance.D), float(instance.m)
    pts = instance.requests.all_points()
    R = abs(float(instance.start[0])) + T * m + float(np.abs(pts).max(initial=0.0))
    n_t = np.cumsum(counts).astype(np.float64)
    N, r_max = float(n_t[-1]), float(counts.max())
    offsets = 3.0 * m * float(((n_t + D) * np.arange(1, T + 1)).sum())
    conversions = 3.0 * R * (state.moved + state.edge_moves * (N + D))
    edges = (N + D) * m * T * (T + 1) / 2.0
    K = 2.0 * T + r_max + 6.0
    return _EPS * (offsets + conversions + edges + 9.0 * (N + D) * R) + K * _EPS / (1.0 - K * _EPS) * upper


def solve_line(instance: MSPInstance) -> LineDPResult:
    """Solve the capped offline program of a 1-D instance exactly.

    Every cost model is supported: answer-first serves each step at the
    position before its move, and a movement-only instance (no service
    terms) has optimum 0 with the server at its start.  ``cost`` is the
    replayed cost of the recovered trajectory; ``lower_bound`` is the
    computed minimum less :func:`_rounding_slack`.  Raises
    ``ArithmeticError`` if the lower end exceeds the upper one.
    """
    if instance.dim != 1:
        raise ValueError(f"solve_line requires dimension 1, got {instance.dim}")
    T = instance.length
    start = float(instance.start[0])
    model = instance.cost_model
    if T == 0 or not model.counts_service:
        positions = np.full((T + 1, 1), start)
        cost = replay_cost(instance, positions, validate_cap=instance.m).total_cost
        return LineDPResult(cost=cost, lower_bound=0.0, positions=positions)

    D, m = float(instance.D), float(instance.m)
    state = _Slopes(start, D, m)
    serve_first = not model.serves_after_move
    anchor = [T * D * m]  # f(a) gains D·m per move
    bounds = []
    for batch in instance.requests:
        values = batch.points[:, 0].tolist()
        if serve_first:
            anchor.extend(state.serve(v) for v in values)
        bounds.append(state.move())
        if not serve_first:
            anchor.extend(state.serve(v) for v in values)
    x, value = state.minimum(anchor)

    path = [x]
    for y_lo, y_hi in reversed(bounds):
        y = min(max(x, y_lo), y_hi)
        x = min(max(y, x - m), x + m)
        path.append(x)
    path[-1] = start
    positions = np.array(path[::-1])[:, None]
    cost = replay_cost(instance, positions, validate_cap=m).total_cost
    lower = max(0.0, value - _rounding_slack(instance, state, cost))
    if lower > cost:
        raise ArithmeticError(
            f"line optimum {value!r} less its rounding slack exceeds the replayed "
            f"cost {cost!r} of its own trajectory")
    return LineDPResult(cost=cost, lower_bound=lower, positions=positions)
