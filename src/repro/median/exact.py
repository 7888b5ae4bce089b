"""Closed-form Weber-objective helpers.

:func:`weber_cost` evaluates the objective :math:`\\sum_i d(c, v_i)` whose
minimizer (the Fermat–Weber point, geometric median or 1-median) the
paper's center rule targets.  :func:`fermat_point_triangle` is the
classical closed form for three requests (a 120°-construction); the tests
use it as a cross-check independent of :mod:`repro.median.batched`, which
holds the package's minimizing sets and its numeric solver.
"""

from __future__ import annotations

import numpy as np

from ..core.metric import as_points, distances_to

__all__ = ["fermat_point_triangle", "weber_cost"]


def weber_cost(c: np.ndarray, points: np.ndarray) -> float:
    """The Weber objective :math:`\\sum_i d(c, v_i)`."""
    points = as_points(points)
    if points.shape[0] == 0:
        return 0.0
    return float(distances_to(np.asarray(c, dtype=np.float64), points).sum())


def fermat_point_triangle(points: np.ndarray, atol: float = 1e-12) -> np.ndarray:
    """Fermat point of a (planar or embedded) triangle.

    If one vertex sees the opposite side under an angle of 120° or more,
    that vertex is the minimizer; otherwise the minimizer is the interior
    point at which all three sides subtend 120°.  The interior case is
    computed by a short, quadratically-convergent Weiszfeld refinement from
    the centroid — the closed trigonometric form is numerically touchier
    and the refinement is exact to machine precision here because the
    optimum is strictly interior (gradient is smooth).
    """
    points = as_points(points)
    if points.shape[0] != 3:
        raise ValueError("fermat_point_triangle expects exactly three points")
    # Vertex test: angle at vertex i >= 120 degrees?
    for i in range(3):
        a = points[i]
        b = points[(i + 1) % 3]
        c = points[(i + 2) % 3]
        u, v = b - a, c - a
        nu = np.sqrt(np.dot(u, u))
        nv = np.sqrt(np.dot(v, v))
        if nu <= atol or nv <= atol:
            # Degenerate triangle with a repeated vertex: that vertex wins
            # (it absorbs multiplicity 2 of the Weber weights).
            return a.copy()
        cosang = float(np.dot(u, v) / (nu * nv))
        if cosang <= -0.5 + 1e-15:
            return a.copy()
    # Interior optimum: safeguarded Weiszfeld from the centroid.
    y = points.mean(axis=0)
    for _ in range(200):
        diff = points - y
        dists = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        if np.any(dists <= atol):
            break  # landed on a vertex; vertex test above says interior, nudge
        w = 1.0 / dists
        y_new = (points * w[:, None]).sum(axis=0) / w.sum()
        if np.linalg.norm(y_new - y) <= 1e-15 * (1.0 + np.linalg.norm(y)):
            y = y_new
            break
        y = y_new
    return y
