"""Classical page migration on the one engine.

:mod:`repro.pagemigration.algorithms` states the related-work strategies
node-indexed.  With the ``graph`` metric the shared simulator speaks the
same language — positions are node points ``(j, j, 0)``, movement is
geodesic distance, move-first accounting serves from the post-move
position — so each classical strategy becomes an
:class:`~repro.algorithms.base.OnlineAlgorithm` by translating node
indices to graph points at the boundary.

:class:`PageMigrationAdapter` wraps any
:class:`~repro.pagemigration.algorithms.PageMigrationAlgorithm`: it
decodes the instance start and each request batch into node indices,
delegates to the classical ``decide``, and re-encodes the chosen node.
Costs read the network's all-pairs table, so pages and costs match the
standalone loop this adapter replaced; ``tests/test_rehomed.py`` pins
them to that loop's frozen outputs.  E13 Part B plays these against the
exact node DP (:func:`~repro.pagemigration.offline.offline_page_migration`).

Pair these with a graph workload emitting node requests (one per step)
and an instance cap ``m`` at least the network diameter — the classical
model is uncapped, so the cap must not bind.
"""

from __future__ import annotations

import numpy as np

from ..core.metric import GraphMetric
from ..core.requests import RequestBatch
from ..pagemigration.algorithms import PageMigrationAlgorithm
from .base import OnlineAlgorithm

__all__ = ["PageMigrationAdapter"]


class PageMigrationAdapter(OnlineAlgorithm):
    """Run a classical page-migration strategy under the ``graph`` metric.

    Parameters
    ----------
    inner:
        The node-indexed strategy to wrap; its registry name is reused
        (``pm-static``, ``pm-greedy``, ...).
    """

    def __init__(self, inner: PageMigrationAlgorithm) -> None:
        super().__init__()
        self.inner = inner
        self.name = inner.name

    def is_randomized(self) -> bool:
        return self.inner.is_randomized()

    def reset(self, instance, cap) -> None:  # type: ignore[override]
        super().reset(instance, cap)
        if not isinstance(self.metric, GraphMetric):
            raise ValueError(
                f"{self.name} plays classical page migration on a network; "
                "run it under metric='graph'"
            )
        u, v, t = self.metric._decode(instance.start)
        if u != v:
            raise ValueError(f"{self.name} needs a node start, got edge point ({u}, {v}, {t})")
        self.inner.reset(self.metric.network, u, instance.D)

    def decide(self, t: int, batch: RequestBatch) -> np.ndarray:
        if not batch.count:
            return self.position
        if batch.count != 1:
            raise ValueError(
                f"{self.name} serves one requesting node per step, got {batch.count}")
        u, v, frac = self.metric._decode(batch.points[0])
        if u != v:
            raise ValueError(
                f"{self.name} takes node requests, got edge point ({u}, {v}, {frac})")
        node = int(self.inner.decide(t, u))
        # The classical model commits the move unconditionally; mirror that
        # here so phase state sees the post-move page, and return the
        # encoded point for the engine's own accounting.
        self.inner.page = node
        return self.metric.node_point(node)
