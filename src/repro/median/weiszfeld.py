"""The certified geometric median of one request batch.

For three or more non-collinear points the Weber objective
:math:`f(y) = \\sum_i d(y, v_i)` is strictly convex and has a unique
minimizer.  :func:`weiszfeld` (named after the fixed-point map it falls
back on) finds it with the solver of :mod:`repro.median.batched` run on a
one-lane stack:

* segment minimizers (``r == 2``, collinear or coincident points) resolve
  in closed form to the minimizer closest to the start;
* a data point that is the optimum is certified by Kuhn's test and
  returned exactly;
* every other batch runs safeguarded Newton to a vanishing gradient.

There is no separate scalar iteration: a batched lane and the scalar call
perform the same floating-point operations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.metric import as_points
from .batched import certified_medians

__all__ = ["WeiszfeldResult", "weiszfeld", "weber_gradient_norm"]


@dataclass(frozen=True)
class WeiszfeldResult:
    """Outcome of a Weiszfeld solve.

    Attributes
    ----------
    point:
        The computed geometric median.
    iterations:
        Number of Newton or Weiszfeld steps taken (0 when the median has a
        closed form or is a data point certified by Kuhn's test).
    on_vertex:
        True when the returned point is one of the input points.
    """

    point: np.ndarray
    iterations: int
    on_vertex: bool


def weber_gradient_norm(y: np.ndarray, points: np.ndarray, atol: float = 1e-12) -> float:
    """Norm of the (sub)gradient of the Weber objective at ``y``.

    At a data point the subgradient contains 0 iff the pull of the other
    points is at most the multiplicity of the coinciding points; the value
    returned there is ``max(0, ||pull|| - multiplicity)``, which is 0 exactly
    when ``y`` is optimal.
    """
    points = as_points(points)
    diff = points - y
    dists = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    on = dists <= atol
    if not np.any(on):
        grad = -(diff / dists[:, None]).sum(axis=0)
        return float(np.linalg.norm(grad))
    multiplicity = float(on.sum())
    rest = ~on
    if not np.any(rest):
        return 0.0
    pull = (diff[rest] / dists[rest, None]).sum(axis=0)
    return max(0.0, float(np.linalg.norm(pull)) - multiplicity)


def weiszfeld(
    points: np.ndarray,
    start: np.ndarray | None = None,
    max_iter: int = 1000,
) -> WeiszfeldResult:
    """Compute the geometric median of ``points``.

    This is :func:`repro.median.batched.certified_medians` on a one-lane
    stack, so every batched lane reproduces it bit-for-bit.

    Parameters
    ----------
    points:
        ``(r, d)`` batch, ``r >= 1``.
    start:
        Initial iterate; defaults to the centroid.  When the minimizer is
        a segment (``r == 2``, collinear or coincident points) the answer
        is its point closest to ``start``.
    max_iter:
        Step budget; a solve that exhausts it raises
        :class:`ArithmeticError` rather than return an unconverged point.
    """
    points = as_points(points)
    starts = None if start is None else np.asarray(start, dtype=np.float64)[None, :]
    res = certified_medians(points[None], starts, max_iter=max_iter)
    return WeiszfeldResult(res.points[0], int(res.iterations[0]), bool(res.on_vertex[0]))
