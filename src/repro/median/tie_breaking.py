"""The paper's median selection rule.

Move-to-Center needs *the* point :math:`c` minimizing
:math:`\\sum_i d(c, v_i)`; when the minimizer is not unique the paper picks
"the one minimizing :math:`d(P_{Alg}, c)`" — the representative of the
minimizing set closest to the algorithm's server.  :func:`request_center`
implements exactly that:

* ``r == 1`` → the request itself;
* ``r == 2`` → the projection of the server onto the segment;
* collinear batches (all of dimension 1) → the projection of the server
  onto the median interval;
* otherwise → the unique median, from the certified solver.

The function is the single entry point used by every algorithm, so the
tie-break is consistent across MtC, its ablations, and the analysis code.
"""

from __future__ import annotations

import numpy as np

from ..core.metric import as_points
from .exact import MedianSet, collinearity_frame, median_collinear, median_pair, median_single
from .weiszfeld import weiszfeld

__all__ = ["request_center", "median_set"]


def median_set(points: np.ndarray, atol: float = 1e-9) -> MedianSet | None:
    """Minimizing set of the Weber objective, or ``None`` when it must be
    computed numerically (non-collinear ``r >= 3``)."""
    points = as_points(points)
    r = points.shape[0]
    if r == 0:
        raise ValueError("median of an empty batch is undefined")
    if r == 1:
        return median_single(points)
    if r == 2:
        return median_pair(points)
    if points.shape[1] == 1 or collinearity_frame(points, atol=atol) is not None:
        return median_collinear(points, atol=atol)
    return None


def request_center(
    points: np.ndarray,
    server: np.ndarray,
    atol: float = 1e-9,
    warm_start: np.ndarray | None = None,
) -> np.ndarray:
    """The paper's center :math:`c` for a request batch.

    Parameters
    ----------
    points:
        ``(r, d)`` request batch with ``r >= 1``.
    server:
        Current server position :math:`P_{Alg}`, used only for tie-breaking
        among multiple minimizers.
    warm_start:
        Optional initial iterate for the numeric solver.  Callers that see
        slowly-moving batches (e.g. MtC step after step) pass the previous
        center and typically cut the iteration count by an order of
        magnitude; the result is unaffected (the objective is convex).
    """
    server = np.asarray(server, dtype=np.float64)
    mset = median_set(points, atol=atol)
    if mset is not None:
        if mset.is_unique:
            return np.array(mset.a, copy=True)
        return mset.closest_point_to(server)
    result = weiszfeld(as_points(points), start=warm_start)
    return result.point
