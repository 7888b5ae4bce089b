"""Convex bounds on the offline optimum in arbitrary dimension.

Dropping the movement cap makes the offline problem an unconstrained convex
program over the trajectory :math:`P_1, \\dots, P_T`:

.. math:: \\min \\; \\sum_t D\\,\\|P_t - P_{t-1}\\| + \\sum_{t,i} \\|P_t - v_{t,i}\\|

(sum of Euclidean norms = convex).  Its optimum is a **lower bound** on the
capped optimum since every capped trajectory is feasible for the relaxation.
We minimize a smoothed surrogate :math:`\\sqrt{\\|x\\|^2+\\varepsilon^2}` with
L-BFGS; since the surrogate dominates the true cost and exceeds it by at
most :math:`\\varepsilon` per norm term, ``smoothed_minimum − ε·N`` is a
lower bound on the relaxed (hence the capped) optimum.  It is *certified*
only when the solve converged: at an iterate L-BFGS stopped early (its
iteration cap) the smoothed objective can exceed the smoothed minimum, so
:class:`ConvexBound` carries the solver's ``converged`` flag and
``iterations`` next to the bound.

An **upper bound** comes from repairing the relaxed trajectory into a
feasible one (:func:`project_to_cap`: greedily clamp each step to the cap)
and replaying its true cost.  Together these bracket the capped optimum in
any dimension, and :func:`bracket_optimum` in :mod:`repro.offline.bounds`
tightens the bracket with the exact DP when the dimension allows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from ..core.metric import move_towards
from ..core.instance import MSPInstance
from ..core.requests import RequestSequence
from ..core.simulator import replay_cost

__all__ = ["ConvexBound", "relaxed_lower_bound", "project_to_cap", "convex_bracket"]

#: L-BFGS iteration cap of a relaxation solve.
MAX_ITER = 2000


@dataclass(frozen=True)
class ConvexBound:
    """Bracket of the capped offline optimum from the convex relaxation.

    Attributes
    ----------
    lower:
        Lower bound (relaxed objective at the solver's final point minus
        the smoothing slack); certified only when ``converged``.
    upper:
        Cost of a feasible (cap-respecting) trajectory.
    relaxed_positions:
        ``(T + 1, d)`` minimizer of the relaxation.
    feasible_positions:
        ``(T + 1, d)`` repaired trajectory achieving ``upper``.
    converged:
        Whether L-BFGS met its tolerances (``False`` when it stopped at the
        iteration cap); ``True`` for an empty instance.
    iterations:
        L-BFGS iterations taken.
    """

    lower: float
    upper: float
    relaxed_positions: np.ndarray
    feasible_positions: np.ndarray
    converged: bool
    iterations: int

    @property
    def bracket(self) -> tuple[float, float]:
        return (self.lower, self.upper)


def _group_steps(requests: RequestSequence) -> list[tuple[np.ndarray, np.ndarray]]:
    """Non-empty steps grouped by request count, in increasing count order.

    Each group is ``(steps, points)``: the ``(n_r,)`` step indices with
    ``r`` requests and their ``(n_r, r, d)`` request stack; a uniform
    sequence is a single group.
    """
    counts = requests.counts
    groups = []
    for r in np.unique(counts[counts > 0]):
        steps = np.flatnonzero(counts == r)
        groups.append((steps, np.stack([requests[t].points for t in steps])))
    return groups


def _objective_and_grad(
    flat: np.ndarray,
    start: np.ndarray,
    groups: list[tuple[np.ndarray, np.ndarray]],
    D: float,
    eps: float,
    dim: int,
) -> tuple[float, np.ndarray]:
    """Smoothed cost and gradient for the move-first relaxation.

    Must stay bit-identical to a per-step loop (the reference in
    ``tests/test_bracket_parity.py``), since a last-ulp change moves the
    L-BFGS trajectory: each step's service terms are reduced over the same
    axis with the same numpy kernels, and the total is a strict left fold
    (``cumsum``, not ``sum``) over the movement term followed by the
    per-step sums in step order.  Empty steps add an exact ``+0.0``.
    """
    P = flat.reshape(-1, dim)
    prev = np.vstack([start[None, :], P[:-1]])
    seg = P - prev
    seg_norm = np.sqrt(np.einsum("ij,ij->i", seg, seg) + eps * eps)
    grad = np.zeros_like(P)
    unit = seg / seg_norm[:, None]
    grad += D * unit
    grad[:-1] -= D * unit[1:]
    step_cost = np.zeros(P.shape[0])
    for steps, pts in groups:
        d = P[steps, None, :] - pts
        dn = np.sqrt(np.einsum("gij,gij->gi", d, d) + eps * eps)
        step_cost[steps] = dn.sum(axis=1)
        grad[steps] += (d / dn[:, :, None]).sum(axis=1)
    cost = np.cumsum(np.concatenate([[D * float(seg_norm.sum())], step_cost]))[-1]
    return float(cost), grad.ravel()


def _solve_relaxation(instance: MSPInstance, eps: float, max_iter: int = MAX_ITER):
    """``(lower, positions, result)``: :func:`relaxed_lower_bound` plus the
    L-BFGS result (``None`` for an empty instance)."""
    T = instance.length
    dim = instance.dim
    if T == 0:
        return 0.0, instance.start[None, :].copy(), None
    # Warm start: each P_t at its batch centroid (or previous position).
    init = np.empty((T, dim))
    cur = np.asarray(instance.start, dtype=np.float64)
    for t in range(T):
        pts = instance.requests[t].points
        if pts.shape[0]:
            cur = pts.mean(axis=0)
        init[t] = cur
    n_terms = T + int(instance.requests.total_requests())

    res = minimize(
        _objective_and_grad,
        init.ravel(),
        args=(instance.start, _group_steps(instance.requests), instance.D, eps, dim),
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": max_iter, "ftol": 1e-12, "gtol": 1e-10},
    )
    P = res.x.reshape(T, dim)
    positions = np.vstack([instance.start[None, :], P])
    lower = max(0.0, float(res.fun) - eps * n_terms)
    return lower, positions, res


def relaxed_lower_bound(
    instance: MSPInstance,
    eps: float = 1e-6,
    max_iter: int = MAX_ITER,
) -> tuple[float, np.ndarray]:
    """Lower bound on the capped optimum, with the relaxed path.

    Returns ``(lower_bound, positions)`` where ``positions`` is the
    ``(T + 1, d)`` relaxed trajectory (start prepended).  The bound is
    ``smoothed_minimum − ε·N`` evaluated at the solver's final point, so it
    is certified only when L-BFGS converged; :func:`convex_bracket` reports
    whether it did.

    Notes
    -----
    Only the move-first model is supported directly; the answer-first
    optimum of a sequence differs from the move-first optimum of the same
    sequence by at most one step's service (Theorem 7's dummy-request
    argument), which callers account for explicitly when needed.
    """
    lower, positions, _ = _solve_relaxation(instance, eps, max_iter)
    return lower, positions


def project_to_cap(positions: np.ndarray, start: np.ndarray, cap: float) -> np.ndarray:
    """Greedy repair of a trajectory into a cap-feasible one.

    Each step moves from the repaired previous position towards the target
    trajectory's next point, clamped at ``cap``.  The result starts at
    ``start`` and never violates the cap.
    """
    positions = np.asarray(positions, dtype=np.float64)
    if positions.ndim != 2:
        raise ValueError("positions must be (T+1, d) or (T, d)")
    targets = positions[1:] if positions.shape[0] > 0 and np.allclose(positions[0], start) else positions
    out = np.empty((targets.shape[0] + 1, targets.shape[1]))
    out[0] = start
    cur = np.asarray(start, dtype=np.float64)
    for t in range(targets.shape[0]):
        cur = move_towards(cur, targets[t], cap)
        out[t + 1] = cur
    return out


def convex_bracket(instance: MSPInstance, eps: float = 1e-6) -> ConvexBound:
    """Bracket the capped offline optimum via the convex relaxation."""
    lower, relaxed, res = _solve_relaxation(instance, eps)
    feasible = project_to_cap(relaxed, instance.start, instance.m)
    upper_trace = replay_cost(instance, feasible, validate_cap=instance.m)
    upper = upper_trace.total_cost
    # Numerical guard: the bracket must be ordered.
    lower = min(lower, upper)
    return ConvexBound(
        lower=lower,
        upper=upper,
        relaxed_positions=relaxed,
        feasible_positions=feasible,
        converged=res is None or bool(res.success),
        iterations=0 if res is None else int(res.nit),
    )
