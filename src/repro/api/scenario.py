"""The :class:`Scenario` dataclass — one declarative description of a run.

A scenario pins down everything the paper's experiments vary: the request
source (a registered workload or adversary plus its parameters), the
algorithm (registry name plus variant parameters), the augmentation
``delta``, an optional cost-model override, the seed sweep, and how to
certify the result (bracketed optimum / adversary cost / nothing).

Scenarios are frozen, hashable and **JSON-serializable**
(:meth:`Scenario.to_dict` / :meth:`Scenario.from_dict`), which gives them
a stable content address (:meth:`Scenario.digest`) in the results store —
the same address whether the scenario is run inline through
:func:`repro.api.run` or as an orchestrator work unit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Iterable, Mapping

import numpy as np

from ..core.store import digest_key

__all__ = ["CELL_FN", "Params", "Scenario", "freeze_params", "thaw_params"]

#: Dotted path of the generic orchestrator cell that executes one
#: scenario; :meth:`Scenario.digest` addresses scenarios exactly as the
#: orchestrator addresses cells built with this function, so inline runs
#: and orchestrated runs share cache entries.
CELL_FN = "repro.api.runtime:cell_run"

#: Canonical frozen parameter form: sorted ``(key, value)`` pairs.
Params = tuple


def _freeze_value(value: Any) -> Any:
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, (list, tuple)):
        return tuple(_freeze_value(v) for v in value)
    if value is None or isinstance(value, (str, bool, int, float)):
        return value
    raise TypeError(
        f"scenario parameters must be JSON-able scalars or lists, got {type(value).__name__}"
    )


def _thaw_value(value: Any) -> Any:
    if isinstance(value, tuple):
        return [_thaw_value(v) for v in value]
    return value


def freeze_params(params: Mapping[str, Any] | Iterable[tuple[str, Any]] | None,
                  sort: bool = True) -> Params:
    """Canonicalize a parameter mapping into hashable pairs.

    Pairs are sorted by key (the canonical content-address form) unless
    ``sort=False``, which preserves declaration order — used for grid
    axis coordinates, where the axis order *is* the table's row order.
    """
    if params is None:
        return ()
    items = params.items() if isinstance(params, Mapping) else list(params)
    out = []
    seen = set()
    for key, value in items:
        key = str(key)
        if key in seen:
            raise ValueError(f"duplicate parameter {key!r}")
        seen.add(key)
        out.append((key, _freeze_value(value)))
    return tuple(sorted(out)) if sort else tuple(out)


def thaw_params(params: Params) -> dict[str, Any]:
    """Frozen pairs back to a keyword-argument dict."""
    return {key: _thaw_value(value) for key, value in params}


_KINDS = ("workload", "adversary")
_RATIOS = ("auto", "adversary", "bracket", "none")
_ENGINES = ("auto", "scalar", "batched")


@dataclass(frozen=True)
class Scenario:
    """A fully declarative description of one simulation sweep.

    Attributes
    ----------
    kind:
        ``"workload"`` (seeded synthetic generator) or ``"adversary"``
        (lower-bound construction).
    source, source_params:
        Registry name and parameters of the request source — instance
        geometry (``T``, ``dim``, ``D``, ``m``) lives here, since it is
        the source that materialises instances.
    algorithm, algorithm_params:
        Algorithm registry name plus variant parameters (e.g.
        ``{"step_scale": 0.25}`` for an MtC ablation).
    seeds:
        The seed sweep; one instance (lane) per seed.
    delta:
        Resource augmentation :math:`\\delta \\ge 0`.
    cost_model:
        Optional override (``"move-first"`` / ``"answer-first"``) applied
        to workload instances; adversary constructions fix their own
        accounting and reject an override.
    ratio:
        How to certify: ``"adversary"`` (cost / adversary cost, a ratio
        lower bound), ``"bracket"`` (certified OPT bracket interval),
        ``"none"``, or ``"auto"`` (adversary sources certify against the
        adversary, workload sources skip certification).
    engine:
        ``"auto"`` and ``"batched"`` play the lock-step batched engine
        (packed with compatible cells into one wide pass); ``"scalar"``
        plays the reference per-instance loop — bit-identical either way.
    metric:
        Name of the registered metric space the run happens in
        (:mod:`repro.core.metric`); ``"euclidean"`` — the default — runs
        the exact pre-metric ℓ2 path and is omitted from the serialized
        form, so every pre-existing scenario digest is unchanged.
    name:
        Optional label for reports.
    """

    source: str
    algorithm: str
    kind: str = "workload"
    source_params: Params = ()
    algorithm_params: Params = ()
    seeds: tuple[int, ...] = (0,)
    delta: float = 0.0
    cost_model: str | None = None
    ratio: str = "auto"
    engine: str = "auto"
    metric: str = "euclidean"
    name: str = ""

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if self.ratio not in _RATIOS:
            raise ValueError(f"ratio must be one of {_RATIOS}, got {self.ratio!r}")
        if self.engine not in _ENGINES:
            raise ValueError(f"engine must be one of {_ENGINES}, got {self.engine!r}")
        from ..core.metric import METRICS

        if self.metric not in METRICS:
            raise ValueError(
                f"metric must be one of {tuple(sorted(METRICS))}, got {self.metric!r}")
        if self.delta < 0:
            raise ValueError(f"delta must be non-negative, got {self.delta}")
        if self.kind == "adversary" and self.cost_model is not None:
            raise ValueError(
                "cost_model overrides are for workload sources; adversary "
                "constructions fix their own accounting (parameterise the "
                "construction instead, e.g. thm3's cost_model param)"
            )
        # freeze_params is idempotent, so both plain mappings and
        # already-frozen pair tuples are accepted here.
        object.__setattr__(self, "source_params", freeze_params(self.source_params))
        object.__setattr__(self, "algorithm_params", freeze_params(self.algorithm_params))
        seeds = tuple(int(s) for s in self.seeds)
        if not seeds:
            raise ValueError("a scenario needs at least one seed")
        object.__setattr__(self, "seeds", seeds)

    # -- constructors ------------------------------------------------------

    @classmethod
    def workload(
        cls,
        source: str,
        algorithm: str,
        params: Mapping[str, Any] | None = None,
        algorithm_params: Mapping[str, Any] | None = None,
        seeds: Iterable[int] = (0,),
        delta: float = 0.0,
        cost_model: str | None = None,
        ratio: str = "auto",
        engine: str = "auto",
        metric: str = "euclidean",
        name: str = "",
    ) -> "Scenario":
        """A scenario over a registered workload generator."""
        return cls(
            kind="workload",
            source=source,
            source_params=freeze_params(params),
            algorithm=algorithm,
            algorithm_params=freeze_params(algorithm_params),
            seeds=tuple(seeds),
            delta=delta,
            cost_model=cost_model,
            ratio=ratio,
            engine=engine,
            metric=metric,
            name=name,
        )

    @classmethod
    def adversary(
        cls,
        source: str,
        algorithm: str,
        params: Mapping[str, Any] | None = None,
        algorithm_params: Mapping[str, Any] | None = None,
        seeds: Iterable[int] = (0,),
        delta: float = 0.0,
        ratio: str = "auto",
        engine: str = "auto",
        metric: str = "euclidean",
        name: str = "",
    ) -> "Scenario":
        """A scenario over a registered lower-bound construction."""
        return cls(
            kind="adversary",
            source=source,
            source_params=freeze_params(params),
            algorithm=algorithm,
            algorithm_params=freeze_params(algorithm_params),
            seeds=tuple(seeds),
            delta=delta,
            ratio=ratio,
            engine=engine,
            metric=metric,
            name=name,
        )

    @classmethod
    def grid(cls, source, algorithm, **kwargs: Any):
        """Expand axis values into a sweep (see :mod:`repro.api.grid`).

        ``source``, ``algorithm``, ``delta``, ``cost_model`` and any value
        inside ``params`` / ``algorithm_params`` become axes when given a
        sequence; the Cartesian product (first axis outermost) is returned
        as a :class:`~repro.api.grid.ScenarioGrid` of content-addressed
        scenarios.  ``seeds`` stays the per-scenario lane sweep.  Wrap a
        literal list parameter in :func:`repro.api.grid.fixed` to keep it
        out of the product.

        >>> g = Scenario.grid("drift", ["mtc", "greedy-centroid"],
        ...                   params={"T": 100, "dim": 1, "D": 2.0},
        ...                   delta=[0.25, 0.5], seeds=range(4),
        ...                   ratio="bracket")
        >>> len(g), g.axes
        (4, ('algorithm', 'delta'))
        """
        from .grid import build_grid

        return build_grid(source, algorithm, **kwargs)

    def with_(self, **changes: Any) -> "Scenario":
        """A copy with fields replaced (params accept plain dicts)."""
        for key in ("source_params", "algorithm_params"):
            if key in changes:
                changes[key] = freeze_params(changes[key])
        return replace(self, **changes)

    # -- derived views -----------------------------------------------------

    @property
    def batch_size(self) -> int:
        return len(self.seeds)

    def source_kwargs(self) -> dict[str, Any]:
        return thaw_params(self.source_params)

    def algorithm_kwargs(self) -> dict[str, Any]:
        return thaw_params(self.algorithm_params)

    def effective_ratio(self) -> str:
        """Resolve ``"auto"``: adversaries certify, workloads don't."""
        if self.ratio != "auto":
            return self.ratio
        return "adversary" if self.kind == "adversary" else "none"

    def label(self) -> str:
        return self.name or f"{self.source}/{self.algorithm}"

    # -- serialization -----------------------------------------------------

    def cache_dict(self) -> dict[str, Any]:
        """The JSON payload that identifies this scenario in the store.

        Exactly :meth:`to_dict` minus the cosmetic ``name`` label, so two
        scenarios that differ only in display name share one cache entry
        (and relabelling a sweep cell does not invalidate its cache).
        """
        payload = self.to_dict()
        del payload["name"]
        return payload

    def to_dict(self) -> dict[str, Any]:
        """Plain JSON-able dict (inverse of :meth:`from_dict`).

        The ``metric`` key is present only when it differs from
        ``"euclidean"`` — default-metric scenarios serialize exactly as
        they did before metrics existed, so their digests (and store
        entries) are stable across the refactor.
        """
        payload = {
            "kind": self.kind,
            "source": self.source,
            "source_params": thaw_params(self.source_params),
            "algorithm": self.algorithm,
            "algorithm_params": thaw_params(self.algorithm_params),
            "seeds": list(self.seeds),
            "delta": self.delta,
            "cost_model": self.cost_model,
            "ratio": self.ratio,
            "engine": self.engine,
            "name": self.name,
        }
        if self.metric != "euclidean":
            payload["metric"] = self.metric
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Scenario":
        return cls(
            kind=payload.get("kind", "workload"),
            source=payload["source"],
            source_params=freeze_params(payload.get("source_params")),
            algorithm=payload["algorithm"],
            algorithm_params=freeze_params(payload.get("algorithm_params")),
            seeds=tuple(payload.get("seeds", (0,))),
            delta=payload.get("delta", 0.0),
            cost_model=payload.get("cost_model"),
            ratio=payload.get("ratio", "auto"),
            engine=payload.get("engine", "auto"),
            metric=payload.get("metric", "euclidean"),
            name=payload.get("name", ""),
        )

    def digest(self) -> str:
        """Content address in the results store.

        Matches the address of the orchestrator work unit built by
        :func:`repro.api.scenario_unit` (``fn=CELL_FN``, params =
        :meth:`cache_dict`), so a scenario computed by a sweep is a cache
        hit for an inline :func:`repro.api.run_many` with a store, and
        vice versa.  The display ``name`` is excluded; the ``engine``
        field is deliberately part of the address even though both
        engines produce bit-identical costs — entries then record
        exactly how they were computed.
        """
        return digest_key(CELL_FN, {"scenario": self.cache_dict()})
