"""The geometric-median solver and the paper's center rule.

:func:`certified_medians` solves ``B`` independent geometric medians — one
``(r, d)`` request batch and one start per lane — in whole-batch NumPy
passes.  It is the only numeric median solver in the package.
:func:`batched_request_center` applies the paper's center rule to ``B``
lanes: the Weber minimizer, and when it is not unique the minimizer
closest to the lane's server.  The fused median-family step kernels
(:mod:`repro.core.kernels`) call it directly; the scalar entry points are
the same functions at ``B = 1`` (:func:`request_center` here,
:func:`repro.median.weiszfeld` on :func:`certified_medians`).

Per lane the solve has three stages:

1. **Closed forms.**  :func:`batched_median_set` finds the lanes whose
   minimizing set is a segment or a point: ``r <= 2``, every 1-D lane (the
   sorted middle pair, so an odd 1-D batch's median is its middle data
   point), and collinear or coincident lanes in ``d >= 2`` (from the
   centred SVD).  They return the point of that set closest to their
   server (:func:`batched_request_center`) or start
   (:func:`certified_medians`).
2. **Kuhn's vertex test.**  If the unique median of a non-collinear lane is
   a data point, it is the data point of least Weber cost, and it is
   optimal iff the unit-vector pull of the other points has norm at most
   its multiplicity (Kuhn 1973).  Such lanes return that point exactly.
   The costs are computed a block of candidates at a time, so memory stays
   linear in ``r`` for large pooled windows.
3. **Safeguarded Newton.**  The remaining lanes iterate Newton steps on
   the Hessian ``Σ (I − u_i u_iᵀ)/d_i`` with an Armijo backtrack, falling
   back to one Weiszfeld (Vardi–Zhang on a data point) step when the
   backtrack fails.  They stop on a vanishing gradient or a tiny *full*
   step, and converge quadratically; a lane that exhausts ``max_iter``
   raises :class:`ArithmeticError` instead of returning an unconverged
   point.

Stack independence
------------------

Every operation is per lane: reductions run over the ``r`` or ``d`` axis
of one lane, the stacked ``np.linalg.solve`` and SVD factor each matrix as
they would factor it alone, and lanes leave the active set independently.
A lane therefore gets the same bits in any stack, ``B = 1`` included —
which is why a scalar call and a fused kernel lane agree exactly.

Per-lane dot products go through :func:`_stacked_dot`, a vector-shaped
``matmul`` that NumPy routes to BLAS ``ddot`` per lane, and line
projections through stacked GEMV calls.  An ``einsum`` would accumulate
in another order and move the last bit of some tie-broken centers; the
``ddot`` form keeps the bits the goldens and the frozen
``tests/data/median_parity.json`` fixture were captured with.
``tests/test_median_batched.py`` checks the solver against that fixture,
against one-lane stacks, and against Kuhn's optimality condition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.metric import as_points

__all__ = [
    "BatchedMedianSet",
    "CertifiedMedians",
    "batched_median_set",
    "batched_midpoint_center",
    "batched_request_center",
    "batched_weiszfeld",
    "certified_medians",
    "request_center",
]

#: Collinearity tolerance of :func:`batched_median_set` in ``d >= 2``: a
#: lane whose centred batch has leading singular value at most this is
#: coincident, and one whose second singular value is at most this times
#: ``max(1, leading)`` is collinear.
_COLLINEAR = 1e-9
#: Newton stops once its full step is at most this fraction of the lane's
#: largest coordinate.
_STEP_TOL = 1e-10


def _stacked_dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Per-lane ``float(np.dot(u[i], v[i]))`` for ``(B, d)`` stacks.

    ``np.dot`` on two vectors calls BLAS ``ddot``; a vector-shaped
    ``matmul`` dispatches each ``(1, d) @ (d, 1)`` slice to the same
    routine (see the module docstring).
    """
    return np.matmul(u[:, None, :], v[:, :, None])[:, 0, 0]


def _segment_closest(a: np.ndarray, b: np.ndarray, servers: np.ndarray) -> np.ndarray:
    """Per-lane point of the segment ``[a, b]`` closest to ``servers``.

    Lanes with ``|a - b| <= 1e-12`` in every coordinate are unique
    minimizers and return a copy of ``a``; the others return the clamped
    orthogonal projection of their server.
    """
    ab = b - a
    tie = np.any(np.abs(ab) > 1e-12, axis=1)
    if not tie.any():
        return np.array(a, copy=True)
    every = tie.all()
    aa, pp = (a, servers) if every else (a[tie], servers[tie])
    if not every:
        ab = ab[tie]
    denom = _stacked_dot(ab, ab)
    num = _stacked_dot(pp - aa, ab)
    t = np.divide(num, denom, out=np.zeros_like(num), where=denom > 0.0)
    t = np.minimum(1.0, np.maximum(0.0, t))
    # Adding +0.0 turns a clamped -0.0 into +0.0 without moving any other
    # value.
    t += 0.0
    proj = aa + t[:, None] * ab
    degenerate = denom <= 0.0
    if degenerate.any():
        proj[degenerate] = aa[degenerate]
    if every:
        return proj
    out = np.array(a, copy=True)
    out[tie] = proj
    return out


@dataclass(frozen=True)
class BatchedMedianSet:
    """Per-lane minimizing sets of the Weber objective.

    The minimizing set of :math:`\\sum_i d(\\cdot, v_i)` is a (possibly
    degenerate) segment ``[a[i], b[i]]``; ``a == b`` encodes a unique
    minimizer.  ``numeric[i]`` marks lanes whose median has no closed form
    (non-collinear ``r >= 3``); their ``a``/``b`` rows are zeros and the
    numeric solver answers them.
    """

    a: np.ndarray
    b: np.ndarray
    numeric: np.ndarray


def batched_median_set(points: np.ndarray) -> BatchedMedianSet:
    """Minimizing sets of a ``(B, r, d)`` stack (see the module docstring)."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 3:
        raise ValueError(f"expected a (B, r, d) stack, got shape {points.shape}")
    B, r, d = points.shape
    if r == 0:
        raise ValueError("median of an empty batch is undefined")
    exact = np.zeros(B, dtype=bool)
    if r <= 2:
        return BatchedMedianSet(np.array(points[:, 0], copy=True),
                                np.array(points[:, r - 1], copy=True), exact)
    if d == 1:
        order = np.sort(points[:, :, 0], axis=1)
        return BatchedMedianSet(order[:, (r - 1) // 2, None], order[:, r // 2, None], exact)
    a = np.zeros((B, d))
    b = np.zeros((B, d))
    origin = points.mean(axis=1)
    centred = points - origin[:, None, :]
    svals = np.linalg.svd(centred, compute_uv=False)
    lead = svals[:, 0]
    coincide = lead <= _COLLINEAR
    line = ~coincide & (svals[:, 1] <= _COLLINEAR * np.maximum(1.0, lead))
    numeric = ~(coincide | line)
    if np.any(coincide):
        a[coincide] = origin[coincide]
        b[coincide] = origin[coincide]
    idx = np.nonzero(line)[0]
    if idx.size:
        c_sel = np.ascontiguousarray(centred[idx])
        _, _, vt = np.linalg.svd(c_sel, full_matrices=False)
        u = np.ascontiguousarray(vt[:, 0])  # (n, d) line directions
        # (points - origin) @ u per lane: a stacked GEMV.
        coords = np.matmul(c_sel, u[:, :, None])[:, :, 0]
        order = np.sort(coords, axis=1)
        a[idx] = origin[idx] + order[:, (r - 1) // 2, None] * u
        b[idx] = origin[idx] + order[:, r // 2, None] * u
    return BatchedMedianSet(a, b, numeric)


#: Armijo constant of the Newton line search.
_ARMIJO = 1e-4
#: Step fractions the line search tries, largest first; a lane that none
#: of them satisfies takes one Weiszfeld step instead.
_FRACTIONS = np.array([1.0, 0.5, 0.25])
#: Per-request (sub)gradient tolerance: a point whose minimum-norm
#: subgradient has norm at most ``_GTOL * r`` is accepted as the median,
#: which for a data point is Kuhn's test.
_GTOL = 1e-12
#: Rounding allowance of one Weber-cost evaluation, per request and unit
#: of coordinate scale: trial costs within it count as no increase.
_ROUND = 16 * np.finfo(np.float64).eps
#: Points closer than this fraction of a lane's largest coordinate count
#: as coincident.
_COINCIDE = 1e-14
#: Element budget of one ``(n, c, r, d)`` block of vertex costs.
_BLOCK = 1 << 16


@dataclass(frozen=True)
class CertifiedMedians:
    """Per-lane outcome of :func:`certified_medians`.

    ``iterations[i]`` counts lane ``i``'s Newton or Weiszfeld steps (0 for
    closed-form and vertex lanes); ``on_vertex[i]`` is True when the
    returned point is one of the lane's data points.
    """

    points: np.ndarray
    iterations: np.ndarray
    on_vertex: np.ndarray


def _vertex_costs(points: np.ndarray) -> np.ndarray:
    """``(n, r)`` Weber cost of every data point, a block of candidates at
    a time so that memory stays bounded for large pooled windows."""
    n, r, d = points.shape
    cost = np.empty((n, r))
    c = max(1, _BLOCK // (n * r * d))
    for j in range(0, r, c):
        diff = points[:, None, :, :] - points[:, j:j + c, None, :]
        cost[:, j:j + c] = np.sqrt(np.einsum("ncrd,ncrd->ncr", diff, diff)).sum(axis=2)
    return cost


def _pull(points: np.ndarray, y: np.ndarray, atol: np.ndarray):
    """The Weber terms at per-lane iterates ``y``.

    Returns the distances, the inverse distances of the points off ``y``
    (0 for points on it), their unit vectors ``u_i``, the pull ``Σ u_i``
    (the negative gradient) and the multiplicity of points on ``y``.
    """
    diff = points - y[:, None, :]
    dist = np.sqrt(np.einsum("nrd,nrd->nr", diff, diff))
    on = dist <= atol[:, None]
    inv = np.divide(1.0, dist, out=np.zeros_like(dist), where=~on)
    u = diff * inv[:, :, None]
    return dist, inv, u, u.sum(axis=1), on.sum(axis=1)


def _newton_directions(hess: np.ndarray, pull: np.ndarray) -> np.ndarray:
    """``hess⁻¹ · pull`` per lane; lanes with a singular Hessian get NaN
    (their line search then fails and they take a Weiszfeld step)."""
    try:
        return np.linalg.solve(hess, pull[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        out = np.full(pull.shape, np.nan)
        for i in range(pull.shape[0]):
            try:
                out[i] = np.linalg.solve(hess[i:i + 1], pull[i:i + 1, :, None])[0, :, 0]
            except np.linalg.LinAlgError:
                pass
        return out


def _newton(points: np.ndarray, y: np.ndarray, scale: np.ndarray,
            max_iter: int) -> tuple[np.ndarray, np.ndarray]:
    """Safeguarded Newton on lanes whose unique median is no data point.

    Each step solves the Hessian ``Σ (I − u_i u_iᵀ)/d_i`` against the pull
    ``Σ u_i`` and backtracks over :data:`_FRACTIONS`.  A lane that no
    fraction satisfies, or whose iterate sits on a data point, takes one
    Weiszfeld step ``pull / Σ 1/d_i`` instead, damped on a data point by the
    Vardi–Zhang factor ``1 − multiplicity/‖pull‖``.  A lane stops when
    ``‖pull‖ <= _GTOL·r``, or when its full Newton step (its Vardi–Zhang
    step on a data point) is at most ``_STEP_TOL·scale``; that step is
    then taken.  A lane still running after ``max_iter`` steps raises
    :class:`ArithmeticError`.
    """
    n, r, d = points.shape
    atol = _COINCIDE * scale
    step_tol = _STEP_TOL * scale
    slack = _ROUND * r * scale
    eye = np.eye(d)
    y = np.array(y, copy=True)
    its = np.zeros(n, dtype=np.int64)
    idx = np.arange(n)
    P, yc = points, y
    for it in range(max_iter + 1):
        dist, inv, u, pull, mult = _pull(P, yc, atol[idx])
        pnorm = np.sqrt(_stacked_dot(pull, pull))
        done = pnorm - mult <= _GTOL * r
        if it == max_iter and not np.all(done):
            raise ArithmeticError(
                f"geometric median: {int((~done).sum())} lane(s) not converged "
                f"after {max_iter} steps")
        wsum = inv.sum(axis=1)
        hess = wsum[:, None, None] * eye - np.einsum("nri,nrj->nij", u * inv[:, :, None], u)
        p = _newton_directions(hess, pull)
        # Armijo on the decrease pull·p = −∇f·p, with the rounding allowance.
        trial = yc[:, None, :] + _FRACTIONS[:, None] * p[:, None, :]
        tdiff = P[:, None, :, :] - trial[:, :, None, :]
        ftrial = np.sqrt(np.einsum("nkrd,nkrd->nkr", tdiff, tdiff)).sum(axis=2)
        accept = ftrial <= ((dist.sum(axis=1) + slack[idx])[:, None]
                            - _ARMIJO * _FRACTIONS * _stacked_dot(pull, p)[:, None])
        smooth = mult == 0
        newton = smooth & accept.any(axis=1)
        ynew = trial[np.arange(idx.size), np.argmax(accept, axis=1)]
        move = p
        weiszfeld = ~(newton | done)
        if np.any(weiszfeld):
            with np.errstate(divide="ignore", invalid="ignore"):
                damp = np.where(smooth, 1.0, 1.0 - mult / pnorm) / wsum
            wstep = damp[:, None] * pull
            ynew[weiszfeld] = yc[weiszfeld] + wstep[weiszfeld]
            move = np.where(smooth[:, None], p, wstep)
        # The stopping step is never a backtracked one.
        full = ~done & (np.sqrt(_stacked_dot(move, move)) <= step_tol[idx])
        ynew[full & smooth] = trial[full & smooth, 0]
        ynew[done] = yc[done]
        y[idx] = ynew
        its[idx] += ~done
        keep = ~(done | full)
        if not np.any(keep):
            break
        idx = idx[keep]
        P = np.ascontiguousarray(P[keep])
        yc = np.ascontiguousarray(ynew[keep])
    return y, its


def _numeric_medians(pts: np.ndarray, starts: np.ndarray,
                     max_iter: int = 1000) -> tuple[np.ndarray, np.ndarray]:
    """Stages 2–3 on a contiguous ``(n, r, d)`` stack of numeric lanes.

    Returns the medians and each lane's step count.  A lane whose median is
    a data point returns it after Kuhn's test; every other lane runs
    :func:`_newton`, from its start or, when cheaper, from the Vardi–Zhang
    step off its best data point.
    """
    n, r, d = pts.shape
    y = np.empty((n, d))
    its = np.zeros(n, dtype=np.int64)
    scale = np.abs(pts).max(axis=(1, 2))
    cost = _vertex_costs(pts)
    best = np.argmin(cost, axis=1)
    v = pts[np.arange(n), best]
    _, inv, _, pull, mult = _pull(pts, v, _COINCIDE * scale)
    pnorm = np.sqrt(_stacked_dot(pull, pull))
    vertex = pnorm - mult <= _GTOL * r
    y[vertex] = v[vertex]
    rest = np.nonzero(~vertex)[0]
    if rest.size:
        pr = np.ascontiguousarray(pts[rest])
        start = starts[rest]
        diff = pr - start[:, None, :]
        f_start = np.sqrt(np.einsum("nrd,nrd->nr", diff, diff)).sum(axis=1)
        off = v[rest] + ((1.0 - mult[rest] / pnorm[rest])
                         / inv[rest].sum(axis=1))[:, None] * pull[rest]
        start = np.where((cost[rest, best[rest]] < f_start)[:, None], off, start)
        y[rest], its[rest] = _newton(pr, start, scale[rest], max_iter)
    return y, its


def certified_medians(
    points: np.ndarray,
    starts: np.ndarray | None = None,
    max_iter: int = 1000,
) -> CertifiedMedians:
    """The geometric median of each lane of a ``(B, r, d)`` stack.

    Lanes whose minimizing set has a closed form (``r <= 2``, 1-D,
    collinear or coincident requests) return the minimizer closest to
    their start.  The rest are non-collinear with a unique median.  If that
    median is a data point, it is the one of least Weber cost, and Kuhn's
    test certifies it:
    ``‖Σ_{x_i ≠ x_j} (x_i − x_j)/‖x_i − x_j‖‖ <= #{i: x_i = x_j}``.  Every
    other lane runs safeguarded Newton.  ``starts`` defaults to the
    per-lane centroids.
    """
    points = np.ascontiguousarray(np.asarray(points, dtype=np.float64))
    if points.ndim != 3:
        raise ValueError(f"expected a (B, r, d) stack, got shape {points.shape}")
    B, r, d = points.shape
    if r == 0:
        raise ValueError("geometric median of an empty batch is undefined")
    if starts is None:
        starts = points.mean(axis=1)
    else:
        starts = np.asarray(starts, dtype=np.float64)
        if starts.shape != (B, d):
            raise ValueError(f"starts must have shape {(B, d)}, got {starts.shape}")
    its = np.zeros(B, dtype=np.int64)
    if B == 0 or r == 1:
        return CertifiedMedians(np.array(points[:, 0], copy=True), its, np.ones(B, dtype=bool))

    y = np.empty((B, d))
    mset = batched_median_set(points)
    exact = ~mset.numeric
    if np.any(exact):
        y[exact] = _segment_closest(mset.a[exact], mset.b[exact], starts[exact])
    idx = np.nonzero(mset.numeric)[0]
    if idx.size:
        y[idx], its[idx] = _numeric_medians(np.ascontiguousarray(points[idx]),
                                            starts[idx], max_iter)
    on_vertex = np.any(np.all(points == y[:, None, :], axis=2), axis=1)
    return CertifiedMedians(y, its, on_vertex)


def batched_weiszfeld(
    points: np.ndarray,
    starts: np.ndarray | None = None,
    max_iter: int = 1000,
) -> np.ndarray:
    """The ``(B, d)`` median points of :func:`certified_medians`.

    Every lane equals ``weiszfeld(points[i], start=starts[i]).point``
    bit-for-bit: the scalar function is this solver at ``B = 1``.
    """
    return certified_medians(points, starts, max_iter).points


def batched_midpoint_center(points: np.ndarray) -> np.ndarray:
    """Per-lane midpoint of the minimizing set of a ``(B, r, d)`` stack.

    The ``"midpoint"`` tie-break of
    :class:`repro.algorithms.mtc.MoveToCenter`: a lane with a unique
    median returns it, a lane minimized on a segment its midpoint.
    """
    mset = batched_median_set(points)
    c = 0.5 * (mset.a + mset.b)
    idx = np.nonzero(mset.numeric)[0]
    if idx.size:
        pts = np.ascontiguousarray(np.asarray(points, dtype=np.float64)[idx])
        c[idx] = _numeric_medians(pts, pts.mean(axis=1))[0]
    return c


def batched_request_center(
    points: np.ndarray,
    servers: np.ndarray,
    *,
    warm_starts: np.ndarray | None = None,
    warm_mask: np.ndarray | None = None,
) -> np.ndarray:
    """The paper's center :math:`c` of each lane of a ``(B, r, d)`` stack.

    Parameters
    ----------
    points:
        ``(B, r, d)`` request stack, ``r >= 1`` (uniform across lanes —
        exactly the packed layout the fused kernels consume).
    servers:
        ``(B, d)`` server positions, used only for tie-breaking: a lane
        whose Weber minimizer is not unique returns the minimizer closest
        to its server.
    warm_starts:
        Optional ``(B, d)`` initial iterates for the numeric lanes (the
        previous step's centers, in MtC's case).  Ignored for lanes whose
        median has a closed form; the result is unaffected up to the
        solver's tolerance (the objective is convex).
    warm_mask:
        Optional ``(B,)`` bool mask selecting which warm starts are
        valid; lanes outside the mask start from the centroid.  ``None``
        means every lane is warm when ``warm_starts`` is given.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 3:
        raise ValueError(f"expected a (B, r, d) stack, got shape {points.shape}")
    B, r, d = points.shape
    if r == 0:
        raise ValueError("median of an empty batch is undefined")
    if not np.all(np.isfinite(points)):
        raise ValueError("point batch contains non-finite coordinates")
    servers = np.asarray(servers, dtype=np.float64)
    if servers.shape != (B, d):
        raise ValueError(f"servers must have shape {(B, d)}, got {servers.shape}")
    if B == 0:
        return np.empty((0, d))
    if r == 1:
        return np.array(points[:, 0], copy=True)
    if r == 2:
        return _segment_closest(points[:, 0], points[:, 1], servers)

    mset = batched_median_set(points)
    out = np.empty((B, d))
    exact = ~mset.numeric
    if np.any(exact):
        out[exact] = _segment_closest(mset.a[exact], mset.b[exact], servers[exact])
    idx = np.nonzero(mset.numeric)[0]
    if idx.size:
        pts = np.ascontiguousarray(points[idx])
        starts = pts.mean(axis=1)
        if warm_starts is not None:
            ws = np.asarray(warm_starts, dtype=np.float64)
            if ws.shape != (B, d):
                raise ValueError(
                    f"warm_starts must have shape {(B, d)}, got {ws.shape}")
            if warm_mask is None:
                starts = np.array(ws[idx], copy=True)
            else:
                use = np.asarray(warm_mask, dtype=bool)[idx]
                starts[use] = ws[idx][use]
        out[idx] = _numeric_medians(pts, starts)[0]
    return out


def request_center(
    points: np.ndarray,
    server: np.ndarray,
    warm_start: np.ndarray | None = None,
) -> np.ndarray:
    """The paper's center :math:`c` for one request batch.

    :func:`batched_request_center` on a one-lane stack: the Weber
    minimizer of the ``(r, d)`` batch ``points`` (``r >= 1``), and when it
    is not unique the minimizer closest to ``server`` (:math:`P_{Alg}`).
    ``warm_start`` is an optional initial iterate for the numeric solver;
    callers that see slowly-moving batches (MtC step after step) pass the
    previous center.
    """
    points = as_points(points)
    server = np.asarray(server, dtype=np.float64)
    warm = None if warm_start is None else np.asarray(warm_start, dtype=np.float64)[None]
    return batched_request_center(points[None], server[None], warm_starts=warm)[0]
