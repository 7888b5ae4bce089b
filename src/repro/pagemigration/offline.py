"""Offline DP for classical page migration on graphs.

Costs follow the classical convention (and the paper's Section 2 with the
move-first rule specialised to nodes): in step ``t`` the page may migrate
from node :math:`p_{t}` to :math:`p_{t+1}` at cost
:math:`D\\,\\mathrm{dist}(p_t, p_{t+1})`, then serves the request from
:math:`p_{t+1}` at cost :math:`\\mathrm{dist}(p_{t+1}, v_t)`.  The online
strategies play the same accounting on the one engine, through
:class:`~repro.algorithms.page_adapters.PageMigrationAdapter` under the
network's :class:`~repro.core.metric.GraphMetric`.

The offline optimum is a plain DP over nodes — the state space is finite,
so the classical problem is exactly solvable and competitive ratios here
are exact (used to validate the known constants: Move-To-Min ≈ 7,
Coin-Flip ≈ 3, and to anchor E13).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import MigrationNetwork

__all__ = ["PageMigrationResult", "offline_page_migration"]


@dataclass(frozen=True)
class PageMigrationResult:
    """Outcome of an offline page-migration solve.

    Attributes
    ----------
    total, movement, service:
        Cost totals.
    pages:
        ``(T + 1,)`` node indices of the page (row 0 = start).
    """

    total: float
    movement: float
    service: float
    pages: np.ndarray


def offline_page_migration(
    network: MigrationNetwork,
    requests: np.ndarray,
    start: int = 0,
    D: float = 1.0,
) -> PageMigrationResult:
    """Exact offline optimum by DP over nodes.

    :math:`O(T n^2)` time, :math:`O(T n)` memory (for path recovery).
    """
    requests = np.asarray(requests, dtype=np.int64)
    T = requests.shape[0]
    n = network.n
    move = D * network.distances  # (n, n) transition costs
    w = np.full(n, np.inf)
    w[start] = 0.0
    tables = np.empty((T + 1, n))
    tables[0] = w
    for t in range(T):
        service = network.distances[:, requests[t]]
        w = (w[None, :] + move.T).min(axis=1) + service
        tables[t + 1] = w
    total = float(w.min())

    pages = np.empty(T + 1, dtype=np.int64)
    idx = int(np.argmin(w))
    pages[T] = idx
    for t in range(T, 0, -1):
        service_here = network.distances[idx, requests[t - 1]]
        scores = tables[t - 1] + move[:, idx] + service_here
        idx = int(np.argmin(np.abs(scores - tables[t][idx])))
        pages[t - 1] = idx

    movement = float(sum(D * network.distance(int(pages[t]), int(pages[t + 1])) for t in range(T)))
    service = float(sum(network.distance(int(pages[t + 1]), int(requests[t])) for t in range(T)))
    return PageMigrationResult(total=total, movement=movement, service=service, pages=pages)
