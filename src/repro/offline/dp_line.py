"""Exact offline optimum brackets on the line via dynamic programming.

For dimension 1 the offline problem discretizes cleanly: restrict server
positions to a uniform grid of pitch ``h`` spanning the instance's arena
and run the banded min-plus recursion

.. math:: w_t(s) = \\min_{|s'-s| \\le B h} \\big( w_{t-1}(s') + D|s'-s| \\big)
          + \\text{service}_t(s).

The band ``B`` is the crux of *certification*:

* **upper bound** — with ``B = floor(m/h)`` every grid trajectory moves at
  most ``m`` per step, so the DP value is the cost of a *feasible*
  continuous solution: ``OPT <= dp_upper``;
* **lower bound** — with ``B = floor(m/h) + 2`` every continuous
  trajectory snaps onto the grid (nearest grid point, error ``h/2`` per
  endpoint) into a band-feasible one whose movement grows by at most ``h``
  and service by ``r_t h / 2`` per step, hence
  ``OPT >= dp_lower - sum_t (D + r_t/2) h``.

Earlier versions used a single ``floor`` band with an additive error term;
that silently *over*-estimated OPT on workloads drifting faster than
``floor(m/h)·h`` per step (the grid server couldn't keep up) — the
two-band bracket makes both sides sound for every workload.

The grid is auto-sized so that a per-step move spans several cells
(``cells_per_move``); the transition is ``B`` sweeps of in-place neighbour
relaxation (``O(S·B)`` per step), realising every shift of up to ``B``
cells at exactly ``D·h`` per cell.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.instance import MSPInstance

__all__ = ["LineDPResult", "solve_line"]


@dataclass(frozen=True)
class LineDPResult:
    """Outcome of the 1-D offline DP.

    Attributes
    ----------
    cost:
        Cost of the best *feasible* grid trajectory (upper bound on the
        continuous optimum).
    lower_bound:
        Certified lower bound on the continuous optimum (relaxed-band DP
        value minus the snapping correction).
    positions:
        ``(T + 1, 1)`` feasible trajectory achieving ``cost``.
    grid:
        The ``(S,)`` grid used.
    """

    cost: float
    lower_bound: float
    positions: np.ndarray
    grid: np.ndarray

    @property
    def bracket(self) -> tuple[float, float]:
        """``(lower_bound, cost)`` sandwich of the continuous optimum."""
        return (self.lower_bound, self.cost)


def _arena(instance: MSPInstance, padding: float) -> tuple[float, float]:
    pts = instance.requests.all_points()
    lo = hi = float(instance.start[0])
    if pts.shape[0]:
        lo = min(lo, float(pts.min()))
        hi = max(hi, float(pts.max()))
    pad = padding * instance.m + 1e-9
    return lo - pad, hi + pad


def _run_dp(
    instance: MSPInstance,
    grid: np.ndarray,
    band: int,
    keep_tables: bool,
) -> tuple[float, np.ndarray | None]:
    """One banded DP pass; returns (min cost, tables or None)."""
    T = instance.length
    S = grid.shape[0]
    h = float(grid[1] - grid[0])
    D = instance.D
    serve_after_move = instance.cost_model.serves_after_move
    counts_service = instance.cost_model.counts_service
    start_idx = int(np.argmin(np.abs(grid - float(instance.start[0]))))
    w = np.full(S, np.inf)
    w[start_idx] = 0.0
    tables = np.empty((T + 1, S)) if keep_tables else None
    if tables is not None:
        tables[0] = w
    step_cost = D * h

    requests = instance.requests
    for t in range(T):
        batch = requests[t]
        if batch.count and counts_service:
            service = np.abs(grid[:, None] - batch.points[:, 0][None, :]).sum(axis=1)
        else:
            service = None
        if not serve_after_move and service is not None:
            w = w + service
        out = w.copy()
        for _ in range(band):
            np.minimum(out[1:], out[:-1] + step_cost, out=out[1:])
            np.minimum(out[:-1], out[1:] + step_cost, out=out[:-1])
        w = out
        if serve_after_move and service is not None:
            w = w + service
        if tables is not None:
            tables[t + 1] = w
    return float(w.min()), tables


def _recover(
    instance: MSPInstance,
    grid: np.ndarray,
    band: int,
    tables: np.ndarray,
) -> np.ndarray:
    """Backward argmin through the feasible DP tables."""
    T = instance.length
    S = grid.shape[0]
    h = float(grid[1] - grid[0])
    D = instance.D
    serve_after_move = instance.cost_model.serves_after_move
    counts_service = instance.cost_model.counts_service
    requests = instance.requests

    idx = int(np.argmin(tables[T]))
    indices = np.empty(T + 1, dtype=np.int64)
    indices[T] = idx
    for t in range(T, 0, -1):
        batch = requests[t - 1]
        served = counts_service and batch.count > 0
        lo_i = max(0, idx - band)
        hi_i = min(S, idx + band + 1)
        cand = np.arange(lo_i, hi_i)
        move = D * h * np.abs(cand - idx)
        if serve_after_move:
            if served:
                service_here = float(np.abs(grid[idx] - batch.points[:, 0]).sum())
            else:
                service_here = 0.0
            scores = tables[t - 1][cand] + move + service_here
        else:
            if served:
                service_prev = np.abs(
                    grid[cand][:, None] - batch.points[:, 0][None, :]
                ).sum(axis=1)
            else:
                service_prev = 0.0
            scores = tables[t - 1][cand] + service_prev + move
        target = tables[t][idx]
        finite = np.isfinite(scores)
        pool = cand[finite]
        idx = int(pool[int(np.argmin(np.abs(scores[finite] - target)))])
        indices[t - 1] = idx
    return grid[indices][:, None]


def solve_line(
    instance: MSPInstance,
    grid_size: int | None = None,
    padding: float = 2.0,
    cells_per_move: int = 8,
    max_grid: int = 16384,
) -> LineDPResult:
    """Bracket the offline optimum of a 1-D instance by two banded DPs.

    Parameters
    ----------
    instance:
        A dimension-1 instance; every cost model is supported (service
        terms drop out when the model charges movement only).
    grid_size:
        Explicit grid size ``S``.  Default: auto-sized so that one
        per-step move spans ``cells_per_move`` cells, clamped to
        ``[256, max_grid]`` — on long fast-drift arenas this is what keeps
        the feasible DP able to follow the workload.
    padding:
        Arena padding in multiples of ``m`` beyond the request range.
    """
    if instance.dim != 1:
        raise ValueError(f"solve_line requires dimension 1, got {instance.dim}")
    lo, hi = _arena(instance, padding)
    if hi - lo <= 0:
        hi = lo + 1e-6
    if grid_size is None:
        span = hi - lo
        grid_size = int(np.ceil(span / instance.m * cells_per_move)) + 1
        grid_size = min(max(grid_size, 256), max_grid)
    grid = np.linspace(lo, hi, grid_size)
    # Shift the grid so the start position is exactly representable —
    # otherwise stationary-optimal instances pay a spurious offset forever.
    start_x = float(instance.start[0])
    nearest = grid[int(np.argmin(np.abs(grid - start_x)))]
    grid = grid + (start_x - nearest)
    h = float(grid[1] - grid[0])
    band_feasible = max(1, int(np.floor(instance.m / h + 1e-12)))
    band_relaxed = band_feasible + 2

    upper_cost, tables = _run_dp(instance, grid, band_feasible, keep_tables=True)
    lower_cost, _ = _run_dp(instance, grid, band_relaxed, keep_tables=False)
    assert tables is not None
    positions = _recover(instance, grid, band_feasible, tables)

    # Snapping correction: a continuous trajectory maps to a
    # band_relaxed-feasible grid trajectory with movement +h and service
    # +r_t*h/2 per step (none when service is not charged); the snapped
    # start costs one extra D*h.
    r = instance.requests.counts.astype(np.float64)
    if not instance.cost_model.counts_service:
        r = np.zeros_like(r)
    correction = float(((instance.D + 0.5 * r) * h).sum()) + instance.D * h
    lower = max(0.0, lower_cost - correction)
    lower = min(lower, upper_cost)  # numerical ordering guard
    return LineDPResult(cost=upper_cost, lower_bound=lower, positions=positions, grid=grid)
