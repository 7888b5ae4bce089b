"""Certified brackets of the capped offline optimum, in any dimension.

The offline optimum under the movement cap ``m`` is a convex program over
the trajectory :math:`P_1, \\dots, P_T` (``P_0`` is the fixed start):

.. math:: \\min \\; \\sum_t D\\,\\|P_t - P_{t-1}\\| + \\sum_{t,i} \\|P_{a(t)} - v_{t,i}\\|
          \\quad \\text{s.t.} \\; \\|P_t - P_{t-1}\\| \\le m,

where step ``t``'s requests attach to ``P_t`` (move-first) or to
``P_{t-1}`` (answer-first; step 1 is then served at the fixed ``P_0``),
and a movement-only instance has no service terms.  :func:`minimize`
solves it with the Chambolle–Pock primal–dual hybrid gradient method
(PDHG), vectorized over the grouped ``(n_r, r, d)`` request stacks of
:func:`_group_steps`:

* dual steps: the unit-ball projection for each request's ``w``, and the
  closed-form prox of ``m·max(0, ‖u‖ − D)`` (the conjugate of the capped
  movement cost) for each step's ``u``;
* primal step: ``P −= τ·Kᵀy`` with ``τ = σ = 0.99/√(4 + r_max)``.

Every iterate yields a certificate.  **Lower end:** for any ``‖w‖ ≤ 1``
and ``u_t = −Σ_{s≥t} Σ_i w_{s,i}`` (the sum over requests attached to
``P_s``), weak duality gives

.. math:: \\mathrm{OPT} \\ge -\\langle u_1, P_0\\rangle - \\sum \\langle w, v\\rangle
          - m \\sum_t \\max(0, \\|u_t\\| - D),

evaluated with :func:`math.fsum` minus a stated rounding slack
(:meth:`_Program.dual_bound`), so it is a bound in floats too.  **Upper end:** the
:func:`~repro.core.simulator.replay_cost` of :func:`project_to_cap`
applied to the primal iterate, a cap-feasible trajectory.  The solve
stops once the relative gap ``(upper − lower)/upper`` is at most
:data:`TOL`; a solve that exhausts its iteration budget instead reports
``converged=False``, and its (still valid) bracket is merely wide.

One-dimensional instances go to the exact line solver
(:mod:`repro.offline.dp_line`): PDHG converges slowly there (up to ~17k
iterations on E4-sized line instances), while the line solver is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..core.metric import move_towards
from ..core.instance import MSPInstance
from ..core.requests import RequestSequence
from ..core.simulator import replay_cost

__all__ = [
    "ConvexBound",
    "SolveResult",
    "convex_bracket",
    "minimize",
    "project_to_cap",
    "relaxed_lower_bound",
]

#: Relative gap ``(upper − lower)/upper`` at which a solve stops.
TOL = 1e-6

#: Iteration budget of one solve; hitting it is reported, never hidden.
BUDGET = 20000

#: Iterations between two certificate evaluations.
CHECK_EVERY = 50

_EPS = 2.0 ** -53
_TINY = np.finfo(np.float64).tiny


@dataclass(frozen=True)
class SolveResult:
    """Outcome of one :func:`minimize` call.

    Attributes
    ----------
    x:
        ``(T + 1, d)`` cap-feasible trajectory (start prepended) whose
        replayed cost is ``fun``.
    fun:
        Replayed cost of ``x``: the bracket's upper end.
    lower:
        Certified dual lower bound on the capped optimum.
    gap:
        ``(fun − lower) / fun`` (``0`` when ``fun`` is ``0``).
    nit:
        PDHG iterations taken.
    status:
        ``0`` when the gap reached :data:`TOL`, ``1`` when the iteration
        budget (:data:`BUDGET`) ran out first.
    """

    x: np.ndarray
    fun: float
    lower: float
    gap: float
    nit: int
    status: int

    @property
    def success(self) -> bool:
        return self.status == 0


@dataclass(frozen=True)
class ConvexBound:
    """Certified bracket of the capped offline optimum.

    Attributes
    ----------
    lower:
        Dual lower bound (valid whether or not the solve converged).
    upper:
        Replayed cost of ``feasible_positions``.
    feasible_positions:
        ``(T + 1, d)`` cap-feasible trajectory achieving ``upper``.
    gap:
        Relative gap ``(upper − lower) / upper``.
    converged:
        Whether ``gap`` reached :data:`TOL` within the iteration budget.
    iterations:
        PDHG iterations taken.
    """

    lower: float
    upper: float
    feasible_positions: np.ndarray
    gap: float
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


class _Program:
    """The capped program of one instance, as the solver and its
    certificate see it.

    ``groups`` holds ``(rows, points)`` request stacks with ``rows``
    indexing the ``(T, d)`` primal ``P_1 … P_T`` that serves them;
    ``fixed`` is the ``(k, d)`` block of requests served at the fixed
    start (answer-first step 1).  Movement-only instances have no service
    terms at all.  ``magnitude`` bounds every term of the dual value and
    of the replayed cost (see :meth:`dual_bound`).
    """

    def __init__(self, instance: MSPInstance) -> None:
        self.instance = instance
        dim = instance.dim
        groups: list[tuple[np.ndarray, np.ndarray]] = []
        fixed = np.empty((0, dim))
        if instance.cost_model.counts_service:
            groups = _group_steps(instance.requests)
            if not instance.cost_model.serves_after_move:
                shifted = []
                for steps, pts in groups:
                    if steps[0] == 0:
                        fixed = pts[0]
                        steps, pts = steps[1:], pts[1:]
                    if steps.size:
                        shifted.append((steps - 1, pts))
                groups = shifted
        # A contiguous run of rows (every uniform sequence) indexes by slice.
        self.groups = [
            (slice(int(rows[0]), int(rows[-1]) + 1)
             if rows[-1] - rows[0] + 1 == rows.size else rows, pts)
            for rows, pts in groups
        ]
        self.fixed = fixed
        self.r_max = max((pts.shape[1] for _, pts in groups), default=0)
        self.fixed_cost = float(np.sqrt(np.einsum("ij,ij->i", instance.start - fixed,
                                                  instance.start - fixed)).sum())
        self.n_requests = fixed.shape[0] + sum(pts.shape[0] * pts.shape[1] for _, pts in groups)
        # Each service term is at most ‖P_0‖ + T·m + ‖v‖ and each step's
        # movement at most D·m; each ‖u_t‖ at most N.  The √d turns those
        # Euclidean bounds into bounds on the coordinate-wise sums.
        start = np.asarray(instance.start, dtype=np.float64)
        self.magnitude = math.sqrt(dim) * (
            float(np.linalg.norm(start)) * self.n_requests
            + sum(float(np.sqrt(np.einsum("gij,gij->gi", pts, pts)).sum()) for _, pts in groups)
            + float(np.sqrt(np.einsum("ij,ij->i", fixed, fixed)).sum())
            + instance.m * instance.length * (self.n_requests + instance.D)
        )

    def dual_bound(self, W: list[np.ndarray]) -> float:
        """Certified lower bound from service duals ``W`` (one per group).

        ``u_t = −Σ_{s≥t} Σ_i w_{s,i}`` makes every ``P_t`` drop out of the
        Lagrangian, leaving the closed-form dual value (module docstring);
        requests served at the fixed start add their exact distance.  The
        terms are summed with :func:`math.fsum`.  The rounding slack:
        every computed quantity (a coordinate of ``u_t``, a dot product, a
        norm, a step's service) is a sum of at most ``K = N + T + d + 2``
        products, and the absolute values of all those products add up to
        at most ``M = magnitude``; the unit-ball projection leaves ``‖w‖``
        at most a few ulps above 1.  So the computed value is within
        ``2·γ_K·M`` of the exact dual value at a feasible ``w`` (``γ_K =
        K·2⁻⁵³/(1 − K·2⁻⁵³)``, the a-priori bound for recursive summation,
        Higham, *Accuracy and Stability of Numerical Algorithms*, §3.1).
        One more ``γ_K·M`` covers the rounding of the replayed upper end,
        so a correct solve always returns ``lower <= upper``.  The bound is
        clipped at 0 (``OPT >= 0``).
        """
        inst = self.instance
        T, dim = inst.length, inst.dim
        attached = np.zeros((T, dim))
        offset = inst.start - self.fixed
        terms = [np.sqrt(np.einsum("ij,ij->i", offset, offset))]
        for (rows, pts), w in zip(self.groups, W):
            attached[rows] += w.sum(axis=1)
            terms.append(-np.einsum("gij,gij->gi", w, pts).ravel())
        u = -np.cumsum(attached[::-1], axis=0)[::-1]
        excess = np.sqrt(np.einsum("ij,ij->i", u, u)) - inst.D
        terms.append(-inst.m * np.maximum(excess, 0.0))
        if T:
            terms.append(np.array([-float(u[0] @ inst.start)]))
        value = math.fsum(np.concatenate(terms))
        K = self.n_requests + T + dim + 2
        gamma = K * _EPS / (1.0 - K * _EPS)
        return max(0.0, value - 3.0 * gamma * self.magnitude)

    def objective(self, x: np.ndarray) -> float:
        """Cost of the primal iterate ``P_1 … P_T`` as it stands, cap
        ignored: a cheap estimate of the upper end, never a bound."""
        inst = self.instance
        seg = np.diff(x, axis=0, prepend=inst.start[None, :])
        cost = inst.D * float(np.sqrt(np.einsum("ij,ij->i", seg, seg)).sum()) + self.fixed_cost
        for rows, pts in self.groups:
            diff = x[rows][:, None, :] - pts
            cost += float(np.sqrt(np.einsum("gij,gij->gi", diff, diff)).sum())
        return cost

    def feasible(self, primal: np.ndarray) -> tuple[float, np.ndarray]:
        """``(replayed cost, trajectory)`` of the cap repair of the
        ``(T, d)`` primal iterate ``P_1 … P_T``."""
        inst = self.instance
        trajectory = project_to_cap(primal, inst.start, inst.m)
        return replay_cost(inst, trajectory, validate_cap=inst.m).total_cost, trajectory


def _warm_start(instance: MSPInstance) -> np.ndarray:
    """Each ``P_t`` at its batch centroid (or at the previous position)."""
    out = np.empty((instance.length, instance.dim))
    cur = np.asarray(instance.start, dtype=np.float64)
    for t in range(instance.length):
        pts = instance.requests[t].points
        if pts.shape[0]:
            cur = pts.mean(axis=0)
        out[t] = cur
    return out


def minimize(instance: MSPInstance) -> SolveResult:
    """Solve the capped offline program by PDHG (see the module docstring).

    Checks the certificate every :data:`CHECK_EVERY` iterations and stops
    at a relative gap of :data:`TOL` or after :data:`BUDGET` iterations;
    the returned bracket is the best lower and upper end seen.  Raises ``ArithmeticError`` if a dual value ever
    exceeds a replayed feasible cost (a broken certificate).
    """
    T, dim = instance.length, instance.dim
    start = np.asarray(instance.start, dtype=np.float64)
    if T == 0:
        x = start[None, :].copy()
        return SolveResult(x=x, fun=0.0, lower=0.0, gap=0.0, nit=0, status=0)
    D, m = instance.D, instance.m
    program = _Program(instance)
    groups = program.groups
    step = 0.99 / math.sqrt(4.0 + program.r_max)

    # Without service terms the optimum stays put.
    x = _warm_start(instance) if groups else np.repeat(start[None, :], T, axis=0)
    x_bar = x.copy()
    y = np.zeros((T, dim))
    W = [np.zeros_like(pts) for _, pts in groups]
    # Work arrays; ``sx`` is σ·x̄ and the request stacks are pre-scaled by
    # σ, so that σ multiplies once per iteration.
    scaled = [(rows, step * pts) for rows, pts in groups]
    s_start = step * start
    sx = np.empty((T, dim))
    seg = np.empty((T, dim))
    kty = np.empty((T, dim))
    radius = np.empty(T)
    lower = 0.0
    upper, feasible = program.feasible(x)
    gap = _relative_gap(lower, upper)
    nit = 0
    while gap > TOL and nit < BUDGET:
        for _ in range(min(CHECK_EVERY, BUDGET - nit)):
            np.multiply(x_bar, step, out=sx)
            # Movement duals: y + σ·(x̄_t − x̄_{t−1}), then the prox of σ·f*
            # with f*(y) = m·max(0, ‖y‖ − D): a norm up to D stays, a
            # larger one shrinks by σm but not below D.
            np.subtract(sx[1:], sx[:-1], out=seg[1:])
            np.subtract(sx[0], s_start, out=seg[0])
            y += seg
            norm = np.sqrt(np.einsum("ij,ij->i", y, y))
            np.maximum(norm - step * m, D, out=radius)
            np.minimum(radius, norm, out=radius)
            radius /= np.maximum(norm, _TINY)
            y *= radius[:, None]
            np.subtract(y[:-1], y[1:], out=kty[:-1])
            kty[-1] = y[-1]
            # Service duals: w + σ·(x̄_a − v), projected onto the unit ball.
            for (rows, s_pts), w in zip(scaled, W):
                w += sx[rows][:, None, :]
                w -= s_pts
                w /= np.maximum(1.0, np.sqrt(np.einsum("gij,gij->gi", w, w)))[:, :, None]
                kty[rows] += w.sum(axis=1)
            # Primal descent x ← x − τ·Kᵀy and extrapolation x̄ = 2x_new − x.
            kty *= step
            x_bar = x - 2.0 * kty
            x -= kty
            nit += 1
        lower = max(lower, program.dual_bound(W))
        # The cap repair and its replay are the costly half of a check:
        # skip them while even the unrepaired iterate is far from the dual
        # bound, except on the last round.
        estimate = program.objective(x)
        if estimate - lower > TOL * estimate and nit < BUDGET:
            continue
        cost, candidate = program.feasible(x)
        if cost < upper:
            upper, feasible = cost, candidate
        if lower > upper:
            raise ArithmeticError(
                f"dual bound {lower!r} exceeds the replayed feasible cost {upper!r}: "
                "the certificate is broken")
        gap = _relative_gap(lower, upper)
    return SolveResult(x=feasible, fun=upper, lower=lower, gap=gap, nit=nit,
                       status=0 if gap <= TOL else 1)


def _relative_gap(lower: float, upper: float) -> float:
    return (upper - lower) / upper if upper > 0.0 else 0.0


def relaxed_lower_bound(instance: MSPInstance) -> tuple[float, np.ndarray]:
    """``(lower, positions)``: the certified dual bound on the capped
    optimum and the ``(T + 1, d)`` cap-feasible trajectory of the solve."""
    res = minimize(instance)
    return res.lower, res.x


def project_to_cap(targets: np.ndarray, start: np.ndarray, cap: float) -> np.ndarray:
    """Greedy repair of ``(T, d)`` post-move targets into a cap-feasible
    ``(T + 1, d)`` trajectory.

    Each step moves from the repaired previous position towards the next
    target, clamped at ``cap``.  The result starts at ``start`` and never
    violates the cap.
    """
    targets = np.asarray(targets, dtype=np.float64)
    if targets.ndim != 2:
        raise ValueError(f"targets must be a (T, d) array, got shape {targets.shape}")
    out = np.empty((targets.shape[0] + 1, targets.shape[1]))
    out[0] = start
    cur = np.asarray(start, dtype=np.float64)
    for t in range(targets.shape[0]):
        cur = move_towards(cur, targets[t], cap)
        out[t + 1] = cur
    return out


def convex_bracket(instance: MSPInstance) -> ConvexBound:
    """Certified bracket of the capped offline optimum by one PDHG solve."""
    res = minimize(instance)
    return ConvexBound(
        lower=res.lower,
        upper=res.fun,
        feasible_positions=res.x,
        gap=res.gap,
        converged=res.success,
        iterations=res.nit,
    )
