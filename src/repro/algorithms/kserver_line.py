"""k-server on the line as engine decision rules.

The paper frames the k-Server Problem as an extreme of page migration.
This module states the classical baselines, Double Coverage and greedy,
as :class:`~repro.algorithms.base.OnlineAlgorithm` decision rules, so
they run as scenarios of the shared simulator/engine:

* the *configuration* of ``k`` servers on the line is one point in
  :math:`\\mathbb{R}^k` (kept sorted), and
* per-step movement under the ``l1`` metric is exactly the total
  distance the servers travel, so
* :data:`~repro.core.costs.CostModel.MOVEMENT_ONLY` accounting (k-server
  has no separate service cost) gives the k-server cost.

The configuration histories are bit-identical to the standalone loops
these rules replaced (``tests/test_rehomed.py`` pins them to those
loops' frozen outputs); the totals agree to float rounding (the loops
accumulated their own increments, e.g. ``2 * d`` for an interior double
move, while the engine measures ``|new - old|_1`` — the same quantity,
associated differently).  E13 Part C plays both rules against the exact
configuration DP (:func:`~repro.kserver.offline.offline_kserver_line`).

Requests are encoded as constant points ``np.full(k, x)`` (the workload
:class:`~repro.workloads.kserver.KServerLineWorkload` emits them): the
decision rules read the request location from the first coordinate, and
under movement-only accounting the encoding never touches a cost.
"""

from __future__ import annotations

import numpy as np

from ..core.requests import RequestBatch
from .base import OnlineAlgorithm

__all__ = ["DoubleCoverageLine", "GreedyKServerLine"]


def _request_location(batch: RequestBatch) -> float:
    return float(batch.points[0, 0])


class DoubleCoverageLine(OnlineAlgorithm):
    """Double Coverage on the line as a config-space decision rule.

    If the request falls outside the hull of the servers, the nearest
    server moves onto it; otherwise the two neighbouring servers move
    towards it at equal speed until one arrives — the classical
    k-competitive rule.
    """

    def __init__(self) -> None:
        super().__init__()
        self.name = "dc-line"

    def decide(self, t: int, batch: RequestBatch) -> np.ndarray:
        if not batch.count:
            return self.position
        x = _request_location(batch)
        s = np.array(self.position, dtype=np.float64, copy=True)
        if x <= s[0]:
            s[0] = x
        elif x >= s[-1]:
            s[-1] = x
        else:
            j = int(np.searchsorted(s, x)) - 1
            left, right = s[j], s[j + 1]
            d = min(x - left, right - x)
            s[j] += d
            s[j + 1] -= d
            # One of them is now exactly on x (the closer one).
            if abs(s[j] - x) > abs(s[j + 1] - x):
                s[j + 1] = x
            else:
                s[j] = x
        s.sort()
        return s


class GreedyKServerLine(OnlineAlgorithm):
    """Greedy k-server: the nearest server moves onto the request.

    Non-competitive (two alternating nearby requests starve a distant
    server) — the classical contrast to Double Coverage.
    """

    def __init__(self) -> None:
        super().__init__()
        self.name = "greedy-kserver"

    def decide(self, t: int, batch: RequestBatch) -> np.ndarray:
        if not batch.count:
            return self.position
        x = _request_location(batch)
        s = np.array(self.position, dtype=np.float64, copy=True)
        j = int(np.argmin(np.abs(s - x)))
        s[j] = x
        s.sort()
        return s
