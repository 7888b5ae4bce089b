"""Algorithm registry.

Maps stable string names to zero-argument factories so the CLI, the
experiment configs and the benchmark files can request algorithms by name.
Entries constructed with non-default parameters register under qualified
names (e.g. ``lazy`` vs ``lazy-aggressive``).

Each entry carries *capability metadata* (:class:`AlgorithmInfo`): which
dimensions the algorithm supports and whether it needs the moving-client
model.  The CLI ``compare`` command and the experiment orchestrator
filter via :func:`compatible_algorithms` instead of hardcoding name-based
exclusions, so a new restricted algorithm only declares its limits here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict

import numpy as np

from ..core.costs import CostModel
from .base import OnlineAlgorithm
from .coinflip import CoinFlip
from .follow import FollowLastRequest, RetrospectiveCenter
from .greedy import GreedyCenter, GreedyCentroid, NearestRequestChaser
from .kserver_line import DoubleCoverageLine, GreedyKServerLine
from .lazy import LazyThreshold, StaticServer
from .move_to_min import MoveToMin
from .mtc import MoveToCenter
from .mtc_variants import AnswerFirstMoveToCenter, MovingClientMtC
from .page_adapters import PageMigrationAdapter
from .work_function import WorkFunctionLine

__all__ = [
    "ALGORITHMS",
    "AlgorithmInfo",
    "algorithm_info",
    "available_algorithms",
    "compatible_algorithms",
    "make_algorithm",
    "register",
]

AlgorithmFactory = Callable[[], OnlineAlgorithm]

ALGORITHMS: Dict[str, AlgorithmFactory] = {
    "mtc": MoveToCenter,
    "mtc-answer-first": AnswerFirstMoveToCenter,
    "mtc-moving-client": MovingClientMtC,
    "greedy-center": GreedyCenter,
    "greedy-centroid": GreedyCentroid,
    "nearest-chaser": NearestRequestChaser,
    "static": StaticServer,
    "lazy": LazyThreshold,
    "lazy-aggressive": lambda: LazyThreshold(threshold_factor=0.25),
    "follow-last": FollowLastRequest,
    "follow-smooth": lambda: FollowLastRequest(smoothing=0.25),
    "retrospective": RetrospectiveCenter,
    "move-to-min": MoveToMin,
    "coin-flip": lambda: CoinFlip(rng=np.random.default_rng(0)),
    "work-function": WorkFunctionLine,
    "dc-line": DoubleCoverageLine,
    "greedy-kserver": GreedyKServerLine,
}


def _pm(maker: Callable[[], Any]) -> AlgorithmFactory:
    """Factory wrapping a classical page-migration strategy for the engine."""
    return lambda: PageMigrationAdapter(maker())


def _register_page_migration() -> None:
    from ..pagemigration.algorithms import (
        CoinFlipGraph,
        CountMoveTo,
        GreedyFollow,
        MoveToMinGraph,
        StaticPage,
    )

    for maker in (
        StaticPage,
        GreedyFollow,
        MoveToMinGraph,
        CountMoveTo,
        lambda: CoinFlipGraph(rng=np.random.default_rng(0)),
    ):
        adapter = _pm(maker)
        name = maker().name
        ALGORITHMS[name] = adapter
        _CAPABILITIES[name] = {"metrics": ("graph",), "supported_dims": (3,)}

#: Metrics an algorithm supports unless declared otherwise: the normed
#: spaces, where straight-line pursuit and centroid/median targets are
#: geometrically valid.  Graph support is opt-in — an algorithm may only
#: declare it when its decision rule goes exclusively through the
#: ``self.metric`` interface with targets that are actual space points.
_DEFAULT_METRICS: tuple[str, ...] = ("euclidean", "l1", "linf")

#: Capability declarations for entries with restrictions; anything absent
#: here supports every dimension and cost model on the plain
#: (non-moving-client) model.
_CAPABILITIES: Dict[str, Dict[str, Any]] = {
    "mtc-answer-first": {"cost_models": ("answer-first",)},
    "mtc-moving-client": {"requires_moving_client": True},
    "work-function": {"supported_dims": (1,)},
    # Metric-generic decision rules: stay put, or chase an actual request
    # point through self.metric — both well-defined on graph geodesics.
    "static": {"metrics": ("euclidean", "l1", "linf", "graph")},
    "nearest-chaser": {"metrics": ("euclidean", "l1", "linf", "graph")},
    # Re-homed k-server baselines: configuration-space rules whose
    # movement is only meaningful as ℓ1 total server travel, under
    # movement-only accounting (k-server has no service cost).
    "dc-line": {"metrics": ("l1",), "cost_models": ("movement-only",)},
    "greedy-kserver": {"metrics": ("l1",), "cost_models": ("movement-only",)},
}

# Classical page-migration strategies adapted to the graph metric; their
# capability entries land in _CAPABILITIES above, so registration runs
# here, after both tables exist.
_register_page_migration()


@dataclass(frozen=True)
class AlgorithmInfo:
    """One registry entry: factory plus capability metadata.

    Attributes
    ----------
    name, factory:
        Registry key and zero-argument constructor.
    supported_dims:
        Dimensions the algorithm can play; ``None`` means any.
    requires_moving_client:
        Whether the algorithm only makes sense on moving-client instances
        (its decision rule reads the agent trajectory).
    """

    name: str
    factory: AlgorithmFactory
    supported_dims: tuple[int, ...] | None = None
    requires_moving_client: bool = False
    cost_models: tuple[str, ...] | None = None
    metrics: tuple[str, ...] = _DEFAULT_METRICS

    def supports_dim(self, dim: int) -> bool:
        return self.supported_dims is None or dim in self.supported_dims

    def supports_metric(self, metric: str) -> bool:
        return metric in self.metrics

    def supports_cost_model(self, model: "CostModel | str") -> bool:
        if self.cost_models is None:
            return True
        value = model.value if isinstance(model, CostModel) else str(model)
        return value in self.cost_models


def algorithm_info(name: str) -> AlgorithmInfo:
    """Factory plus capabilities for one registered name."""
    try:
        factory = ALGORITHMS[name]
    except KeyError:
        raise KeyError(
            f"unknown algorithm {name!r}; available: {', '.join(sorted(ALGORITHMS))}"
        ) from None
    return AlgorithmInfo(name=name, factory=factory, **_CAPABILITIES.get(name, {}))


def compatible_algorithms(
    dim: int | None = None,
    moving_client: bool = False,
    cost_model: "CostModel | str | None" = CostModel.MOVE_FIRST,
    metric: str | None = None,
) -> list[str]:
    """Registered names able to play the described setting (sorted).

    ``dim=None`` skips the dimension check; ``moving_client=False`` (the
    plain Mobile Server model) excludes algorithms that require the
    moving-client instance structure; ``cost_model`` (default move-first)
    excludes algorithms built for a different accounting model, ``None``
    skips that check.  ``metric`` (a registry name from
    :mod:`repro.core.metric`) keeps only algorithms declaring support for
    that space; ``None`` skips the check.
    """
    names = []
    for name in available_algorithms():
        info = algorithm_info(name)
        if info.requires_moving_client and not moving_client:
            continue
        if dim is not None and not info.supports_dim(dim):
            continue
        if cost_model is not None and not info.supports_cost_model(cost_model):
            continue
        if metric is not None and not info.supports_metric(metric):
            continue
        names.append(name)
    return names


def register(
    name: str,
    factory: AlgorithmFactory,
    overwrite: bool = False,
    *,
    supported_dims: tuple[int, ...] | None = None,
    requires_moving_client: bool = False,
    cost_models: tuple[str, ...] | None = None,
    metrics: tuple[str, ...] | None = None,
) -> None:
    """Add a factory (plus optional capability limits) to the registry.

    When overwriting an existing entry *without* stating capabilities,
    the entry's previous capability metadata is preserved (swapping a
    factory must not silently lift its declared restrictions); passing
    any capability keyword replaces the metadata wholesale.
    """
    if name in ALGORITHMS and not overwrite:
        raise KeyError(f"algorithm {name!r} already registered")
    caps: Dict[str, Any] = {}
    if supported_dims is not None:
        caps["supported_dims"] = tuple(supported_dims)
    if requires_moving_client:
        caps["requires_moving_client"] = True
    if cost_models is not None:
        caps["cost_models"] = tuple(cost_models)
    if metrics is not None:
        caps["metrics"] = tuple(metrics)
    is_overwrite = name in ALGORITHMS
    ALGORITHMS[name] = factory
    if caps:
        _CAPABILITIES[name] = caps
    elif not is_overwrite:
        _CAPABILITIES.pop(name, None)


def make_algorithm(name: str, **params: Any) -> OnlineAlgorithm:
    """Instantiate a registered algorithm by name.

    Extra keyword arguments are forwarded to the factory — e.g.
    ``make_algorithm("mtc", step_scale=0.25)`` — which is how scenario
    specs (:mod:`repro.api`) describe parameterized variants by strings.
    Factories registered as zero-argument lambdas reject parameters with
    the usual ``TypeError``.
    """
    try:
        factory = ALGORITHMS[name]
    except KeyError:
        raise KeyError(
            f"unknown algorithm {name!r}; available: {', '.join(sorted(ALGORITHMS))}"
        ) from None
    return factory(**params)


def available_algorithms() -> list[str]:
    """Sorted registry keys."""
    return sorted(ALGORITHMS)
