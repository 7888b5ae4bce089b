"""k mobile servers with capped movement (the conclusion's proposal).

The paper's conclusion asks whether "the idea of limiting the movement of
resources within a time slot also can be applied to other popular models
such as the k-Server Problem (effectively turning it into the Page
Migration Problem with multiple pages)".  This module builds that model:

* ``k`` servers, each moving at most ``cap`` per step (cap includes any
  augmentation), movement charged ``D`` per unit *summed over servers*;
* each request is served by the *closest* server after the move
  (move-first convention), costing that distance — requests need not be
  hit exactly, unlike the classical k-server model.

Implemented strategies:

* :class:`KGreedyCenters` — cluster the batch by nearest-server, each
  server chases its cluster's geometric median at full speed;
* :class:`KMoveToCenter` — same clustering, but each server applies the
  paper's damped rule ``min{1, r_i/D}·d`` with its cluster size ``r_i``;
* :class:`CappedDoubleCoverage` — 1-D only: classical Double Coverage
  moves, clamped to the cap (the conclusion's literal suggestion);
* :func:`solve_two_servers_line` — exact offline DP for ``k = 2`` on the
  line (product grid; the banded min-plus transition factorises per
  server, so the cost is ``O(T S^2 B)`` instead of ``O(T S^4)``).

Experiment E15 measures all of them against the DP bracket.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from ..core.metric import get_metric
from ..core.requests import RequestBatch
from ..core.validation import recorded_step_limit
from ..median import request_center

__all__ = [
    "KServerTrace",
    "MultiServerAlgorithm",
    "KGreedyCenters",
    "KMoveToCenter",
    "CappedDoubleCoverage",
    "simulate_k_servers",
    "TwoServerDPResult",
    "solve_two_servers_line",
]


@dataclass
class KServerTrace:
    """Trace of a capped multi-server run.

    Attributes
    ----------
    positions:
        ``(T + 1, k, d)`` server configurations.
    movement_costs, service_costs:
        ``(T,)`` per-step totals (movement summed over servers).
    """

    positions: np.ndarray
    movement_costs: np.ndarray
    service_costs: np.ndarray
    algorithm: str = ""

    @property
    def total_cost(self) -> float:
        return float(self.movement_costs.sum() + self.service_costs.sum())

    def validate_against_cap(self, cap: float) -> None:
        """Raise ``ValueError`` if any server moved further than ``cap`` in
        one step (beyond :func:`repro.core.validation.recorded_step_limit`)."""
        seg = np.diff(self.positions, axis=0)
        steps = np.sqrt(np.einsum("tkd,tkd->tk", seg, seg))
        if steps.size and steps.max() > recorded_step_limit(cap, self.positions):
            raise ValueError(f"multi-server cap violated: {steps.max():.6g} > {cap:.6g}")


class MultiServerAlgorithm(abc.ABC):
    """Decides the next configuration of all ``k`` servers."""

    name = "multi-server"

    def __init__(self, k: int) -> None:
        if k < 1:
            raise ValueError("k must be positive")
        self.k = k
        self.positions: np.ndarray | None = None  # (k, d)
        self.cap = 0.0
        self.D = 1.0
        self.metric = get_metric("euclidean")

    def reset(self, starts: np.ndarray, cap: float, D: float) -> None:
        starts = np.asarray(starts, dtype=np.float64)
        if starts.shape[0] != self.k:
            raise ValueError(f"expected {self.k} starting positions, got {starts.shape[0]}")
        self.positions = starts.copy()
        self.cap = float(cap)
        self.D = float(D)

    @abc.abstractmethod
    def decide(self, t: int, batch: RequestBatch) -> np.ndarray:
        """Return the new ``(k, d)`` configuration (each move <= cap)."""

    def _clusters(self, batch: RequestBatch) -> list[np.ndarray]:
        """Nearest-server partition of the batch (indices per server)."""
        assert self.positions is not None
        diff = batch.points[:, None, :] - self.positions[None, :, :]
        dist = np.sqrt(np.einsum("rkd,rkd->rk", diff, diff))
        owner = np.argmin(dist, axis=1)
        return [np.nonzero(owner == i)[0] for i in range(self.k)]


class KGreedyCenters(MultiServerAlgorithm):
    """Each server chases its cluster's median at full speed."""

    name = "k-greedy-centers"

    def decide(self, t: int, batch: RequestBatch) -> np.ndarray:
        assert self.positions is not None
        new = self.positions.copy()
        if batch.count == 0:
            return new
        for i, idx in enumerate(self._clusters(batch)):
            if idx.size == 0:
                continue
            c = request_center(batch.points[idx], self.positions[i])
            new[i] = self.metric.move_towards(self.positions[i], c, self.cap)
        return new


class KMoveToCenter(MultiServerAlgorithm):
    """Per-cluster MtC: damped step ``min{1, r_i/D}·d(P_i, c_i)``."""

    name = "k-mtc"

    def decide(self, t: int, batch: RequestBatch) -> np.ndarray:
        assert self.positions is not None
        new = self.positions.copy()
        if batch.count == 0:
            return new
        for i, idx in enumerate(self._clusters(batch)):
            if idx.size == 0:
                continue
            c = request_center(batch.points[idx], self.positions[i])
            dist = float(np.linalg.norm(c - self.positions[i]))  # reprolint: allow[MET001] reason=multi-server extension is Euclidean; E15 goldens pin these bits
            if dist <= 0.0:
                continue
            step = min(min(1.0, idx.size / self.D) * dist, self.cap)
            new[i] = self.metric.move_towards(self.positions[i], c, step)
        return new


class CappedDoubleCoverage(MultiServerAlgorithm):
    """Double Coverage with every move clamped at the cap (1-D only).

    DC's moves towards a request are cut at ``cap``; when the request lies
    between two servers both advance (possibly clamped) until one would
    reach it.  With generous caps this degenerates to classical DC.
    """

    name = "capped-dc"

    def decide(self, t: int, batch: RequestBatch) -> np.ndarray:
        assert self.positions is not None
        if self.positions.shape[1] != 1:
            raise ValueError("CappedDoubleCoverage requires dimension 1")
        new = self.positions.copy()
        if batch.count == 0:
            return new
        # Serve each request in order (classical DC is per-request); the
        # per-step cap budget is shared by splitting it across requests.
        budget = self.cap / batch.count
        order = np.argsort(self.positions[:, 0])
        pos = self.positions[order, 0].copy()
        for v in batch.points[:, 0]:
            if v <= pos[0]:
                pos[0] = max(pos[0] - budget, v)
            elif v >= pos[-1]:
                pos[-1] = min(pos[-1] + budget, v)
            else:
                j = int(np.searchsorted(pos, v)) - 1
                d = min(v - pos[j], pos[j + 1] - v, budget)
                pos[j] += d
                pos[j + 1] -= d
            pos.sort()
        new[order, 0] = pos
        return new


def simulate_k_servers(
    starts: np.ndarray,
    batches: list[np.ndarray],
    algorithm: MultiServerAlgorithm,
    cap: float,
    D: float,
) -> KServerTrace:
    """Run a capped multi-server algorithm over a request sequence.

    Parameters
    ----------
    starts:
        ``(k, d)`` initial configuration.
    batches:
        List of ``(r_t, d)`` request arrays.
    cap:
        Per-server per-step movement cap granted to the algorithm.
    """
    starts = np.asarray(starts, dtype=np.float64)
    k, d = starts.shape
    T = len(batches)
    algorithm.reset(starts, cap, D)
    positions = np.empty((T + 1, k, d))
    positions[0] = starts
    movement = np.zeros(T)
    service = np.zeros(T)
    cur = starts.copy()
    for t in range(T):
        batch = RequestBatch(np.asarray(batches[t], dtype=np.float64).reshape(-1, d))
        new = np.asarray(algorithm.decide(t, batch), dtype=np.float64)
        steps = np.sqrt(np.einsum("kd,kd->k", new - cur, new - cur))
        if steps.max(initial=0.0) > cap * (1 + 1e-9) + 1e-12:
            raise ValueError(
                f"{algorithm.name} violated the cap at step {t}: {steps.max():.6g} > {cap:.6g}"
            )
        movement[t] = D * float(steps.sum())
        if batch.count:
            diff = batch.points[:, None, :] - new[None, :, :]
            dist = np.sqrt(np.einsum("rkd,rkd->rk", diff, diff))
            service[t] = float(dist.min(axis=1).sum())
        positions[t + 1] = new
        cur = new
        algorithm.positions = new
    return KServerTrace(positions=positions, movement_costs=movement,
                        service_costs=service, algorithm=algorithm.name)


@dataclass(frozen=True)
class TwoServerDPResult:
    """Bracket of the capped 2-server offline optimum on the line."""

    cost: float
    lower_bound: float


def solve_two_servers_line(
    starts: np.ndarray,
    batches: list[np.ndarray],
    m: float,
    D: float,
    grid_size: int = 96,
    padding: float = 2.0,
) -> TwoServerDPResult:
    """Exact (grid) offline optimum for two capped servers on the line.

    The state is a pair of cells of a uniform grid of pitch ``h``; the
    min-plus transition factorises into two banded relaxations (one per
    server axis), run with two bands:

    * ``B = floor(m/h)`` keeps every grid move within the cap, so its value
      is the cost of a feasible trajectory: an upper bound;
    * ``B = floor(m/h) + 2`` admits every continuous trajectory snapped to
      its nearest cells (``h/2`` off per endpoint), whose movement grows by
      at most ``h`` per server and step and whose service by ``h/2`` per
      request; its value less that growth is a lower bound.
    """
    starts = np.asarray(starts, dtype=np.float64).reshape(2)
    pts = np.concatenate([np.asarray(b, dtype=np.float64).reshape(-1) for b in batches]) \
        if batches else np.empty(0)
    lo = min(float(starts.min()), float(pts.min()) if pts.size else np.inf)
    hi = max(float(starts.max()), float(pts.max()) if pts.size else -np.inf)
    pad = padding * m + 1e-9
    lo, hi = lo - pad, hi + pad
    grid = np.linspace(lo, hi, grid_size)
    h = float(grid[1] - grid[0])
    if h > m:
        raise ValueError(
            f"grid too coarse for the movement cap (cell {h:.3g} > m={m:.3g}); "
            f"increase grid_size beyond {grid_size} or shrink the arena"
        )
    band_feasible = max(1, int(np.floor(m / h + 1e-12)))
    band_relaxed = band_feasible + 2
    step_cost = D * h

    i0 = int(np.argmin(np.abs(grid - starts[0])))
    i1 = int(np.argmin(np.abs(grid - starts[1])))

    def run(band: int) -> float:
        w = np.full((grid_size, grid_size), np.inf)
        w[i0, i1] = 0.0
        for b in batches:
            pts_t = np.asarray(b, dtype=np.float64).reshape(-1)
            # Relax along each server axis independently.
            for _ in range(band):
                np.minimum(w[1:, :], w[:-1, :] + step_cost, out=w[1:, :])
                np.minimum(w[:-1, :], w[1:, :] + step_cost, out=w[:-1, :])
            for _ in range(band):
                np.minimum(w[:, 1:], w[:, :-1] + step_cost, out=w[:, 1:])
                np.minimum(w[:, :-1], w[:, 1:] + step_cost, out=w[:, :-1])
            if pts_t.size:
                d0 = np.abs(grid[:, None] - pts_t[None, :])  # (S, r)
                d1 = np.abs(grid[:, None] - pts_t[None, :])
                service = np.minimum(d0[:, None, :], d1[None, :, :]).sum(axis=2)
                w += service
        return float(w.min())

    upper = run(band_feasible)
    lower_raw = run(band_relaxed)
    r_total = sum(np.asarray(b).reshape(-1).shape[0] for b in batches)
    T = len(batches)
    # Two servers: snapping inflates movement by <= h per server per step.
    correction = T * 2.0 * D * h + 0.5 * r_total * h + 2.0 * D * h
    lower = max(0.0, min(lower_raw - correction, upper))
    return TwoServerDPResult(cost=upper, lower_bound=lower)
