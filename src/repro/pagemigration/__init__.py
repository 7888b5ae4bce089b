"""Classical Page Migration substrate (graphs, classical algorithms, DP).

The online strategies run on the one engine through
:class:`~repro.algorithms.page_adapters.PageMigrationAdapter` under the
``graph`` metric; :func:`offline_page_migration` is their exact OPT.
"""

from .algorithms import (
    CoinFlipGraph,
    CountMoveTo,
    GreedyFollow,
    MoveToMinGraph,
    PageMigrationAlgorithm,
    StaticPage,
)
from .graph import (
    MigrationNetwork,
    complete_uniform,
    grid_graph,
    path_graph,
    random_geometric,
    random_tree,
)
from .offline import PageMigrationResult, offline_page_migration

__all__ = [
    "CoinFlipGraph",
    "CountMoveTo",
    "GreedyFollow",
    "MigrationNetwork",
    "MoveToMinGraph",
    "PageMigrationAlgorithm",
    "PageMigrationResult",
    "StaticPage",
    "complete_uniform",
    "grid_graph",
    "offline_page_migration",
    "path_graph",
    "random_geometric",
    "random_tree",
]
