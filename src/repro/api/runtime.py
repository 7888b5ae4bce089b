"""Scenario execution: one executor for every entry point.

:func:`run` takes a :class:`~repro.api.scenario.Scenario`, materialises
its instances from the workload/adversary registries, validates the
algorithm's capability metadata against the source, plays the rounds on
the batched lock-step engine (:func:`~repro.core.engine.simulate_batch`,
which picks a fused kernel or the scalar adapter per algorithm),
certifies ratios as requested, and returns a :class:`RunResult`.
``engine="scalar"`` instead plays the reference
:func:`~repro.core.simulator.simulate` loop, bit-identically; adaptive
adversaries play their game move by move.

:func:`run_many` runs a list of scenarios, sharing instance
materialisation and offline brackets across scenarios that differ only
in the algorithm (the CLI ``compare`` pattern), and optionally
round-trips results through a persistent
:class:`~repro.core.store.ResultsStore` keyed by each scenario's content
digest.

:func:`cell_run` is the orchestrator work-unit entry point: experiments
that declare their sweeps as scenarios get content-addressed caching and
process fan-out without any experiment-specific cell code.

All of them go through :func:`_execute_scenarios`, which *mega-batches*:
cells under the same algorithm, variant parameters and instance shape —
differing only in seed, source, δ or cost model — are packed into one
wide ``simulate_batch`` call and split back per cell.  Every lane
computes bit-identically to its standalone run (the engine's arithmetic
is per-lane), so each cell keeps its standalone store digest, payload
and cache address; ``--no-fuse`` (:func:`repro.core.kernels.set_fusion`)
disables the packing together with the fused kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Any, Mapping, Sequence

import numpy as np

from ..adversaries.base import AdversarialInstance
from ..adversaries.registry import AdaptiveGame, adversary_info, make_adversary
from ..algorithms.registry import AlgorithmInfo, algorithm_info, make_algorithm
from ..analysis.ratio import (
    RatioMeasurement,
    measures_from_payload,
    measures_to_payload,
)
from ..core.engine import simulate_batch
from ..core.instance import MovingClientInstance, MSPInstance
from ..core.metric import Metric, get_metric
from ..core.simulator import simulate
from ..core.store import ResultsStore
from ..core.trace import Trace
from ..offline.bounds import OptBracket, bracket_optimum
from ..workloads.registry import make_workload, workload_info
from .scenario import CELL_FN, Scenario

__all__ = [
    "BRACKET_FN",
    "RunResult",
    "build_instances",
    "cell_brackets",
    "cell_run",
    "resolve",
    "run",
    "run_many",
    "scenario_unit",
    "scenario_units",
]

#: Dotted path of the ephemeral cell computing a share-group's offline
#: brackets (factored out of scenario sweeps as a *soft* dependency).
BRACKET_FN = "repro.api.runtime:cell_brackets"


def resolve(name: str, **params: Any) -> Any:
    """Instantiate a registered request source by name.

    Searches the workload registry first, then the adversary registry:
    returns a ready workload generator (``generate(rng)``), a
    :class:`~repro.adversaries.registry.BoundAdversary` (call with an rng
    to draw an :class:`~repro.adversaries.base.AdversarialInstance`), or
    an :class:`~repro.adversaries.registry.AdaptiveGame`.
    """
    from ..adversaries.registry import ADVERSARIES
    from ..workloads.registry import WORKLOADS

    if name in WORKLOADS:
        return make_workload(name, **params)
    if name in ADVERSARIES:
        return make_adversary(name, **params)
    known = sorted(WORKLOADS) + sorted(ADVERSARIES)
    raise KeyError(f"unknown source {name!r}; available: {', '.join(known)}")


@dataclass
class RunResult:
    """Everything one scenario run produced.

    Attributes
    ----------
    scenario:
        The scenario that was run.
    costs:
        ``(B,)`` total cost per seed (bit-identical across engines).
    ratios:
        Certified ratio lower bounds per seed (``cost / adversary cost``)
        when the scenario certifies against an adversary, else ``None``.
    measurements:
        Per-seed :class:`~repro.analysis.ratio.RatioMeasurement` interval
        certificates when the scenario certifies against a bracketed
        optimum, else ``None``.
    traces:
        Full per-seed traces (``None`` when the result was reloaded from
        a store payload, which keeps only the scalar summaries).
    engine:
        ``"scalar"`` or ``"batched"`` — which path actually ran.
    elapsed:
        Wall-clock seconds of the run — a lane-proportional share when
        several scenarios ran in one call (0.0 for cache hits).
    cached:
        Whether this result came out of the store instead of being
        computed by this call (transient — not part of the payload).
    """

    scenario: Scenario
    costs: np.ndarray
    ratios: np.ndarray | None = None
    measurements: list[RatioMeasurement] | None = None
    traces: list[Trace] | None = None
    engine: str = "scalar"
    elapsed: float = 0.0
    cached: bool = False

    @property
    def batch_size(self) -> int:
        return int(self.costs.shape[0])

    @property
    def mean_cost(self) -> float:
        return float(self.costs.mean())

    @property
    def mean_ratio(self) -> float:
        """Mean certified adversarial ratio lower bound over the seeds."""
        if self.ratios is None:
            raise ValueError(f"scenario {self.scenario.label()!r} did not certify against an adversary")
        return float(self.ratios.mean())

    @property
    def ratio_lower(self) -> np.ndarray:
        """``(B,)`` certified lower ends ``cost / opt_upper``."""
        if self.measurements is None:
            raise ValueError(f"scenario {self.scenario.label()!r} has no bracket measurements")
        return np.array([m.ratio_lower for m in self.measurements])

    @property
    def ratio_upper(self) -> np.ndarray:
        """``(B,)`` certified upper ends ``cost / opt_lower``."""
        if self.measurements is None:
            raise ValueError(f"scenario {self.scenario.label()!r} has no bracket measurements")
        return np.array([m.ratio_upper for m in self.measurements])

    @property
    def unconverged(self) -> int:
        """How many of the seeds' offline brackets missed their gap
        tolerance (valid, but wider than the solver's target)."""
        if self.measurements is None:
            return 0
        return sum(not m.opt_converged for m in self.measurements)

    def table_columns(self) -> list:
        """``[mean cost, ratio >=, ratio <=]`` in the shared table layout.

        The certified-ratio column convention of the CLI ``run --grid``
        table: adversary runs fill only the lower bound, bracket runs
        fill the interval, uncertified runs leave both blank.
        """
        if self.ratios is not None:
            return [self.mean_cost, self.mean_ratio, ""]
        if self.measurements is not None:
            return [self.mean_cost, float(self.ratio_lower.mean()),
                    float(self.ratio_upper.mean())]
        return [self.mean_cost, "", ""]

    def summary(self) -> str:
        parts = [
            f"{self.scenario.label()}: B={self.batch_size}",
            f"engine={self.engine}",
            f"mean cost {self.mean_cost:.4g}",
        ]
        if self.ratios is not None:
            parts.append(f"ratio >= {self.mean_ratio:.4g}")
        if self.measurements is not None:
            parts.append(
                f"ratio in [{float(self.ratio_lower.mean()):.4g}, "
                f"{float(self.ratio_upper.mean()):.4g}]"
            )
            if self.unconverged:
                parts.append(f"UNCONVERGED brackets: {self.unconverged}")
        parts.append(f"{self.elapsed:.3f}s")
        return ", ".join(parts)

    # -- store round-trip --------------------------------------------------

    def as_payload(self) -> dict[str, Any]:
        """Store-compatible payload (exact costs/ratios; traces dropped)."""
        return {
            "scenario": self.scenario.to_dict(),
            "engine": self.engine,
            "elapsed": self.elapsed,
            "costs": np.asarray(self.costs, dtype=np.float64),
            "ratios": None if self.ratios is None else np.asarray(self.ratios, dtype=np.float64),
            "measures": None if self.measurements is None else measures_to_payload(self.measurements),
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "RunResult":
        return cls(
            scenario=Scenario.from_dict(payload["scenario"]),
            costs=payload["costs"],
            ratios=payload["ratios"],
            measurements=None if payload["measures"] is None
            else measures_from_payload(payload["measures"]),
            traces=None,
            engine=payload["engine"],
            elapsed=float(payload["elapsed"]),
        )


# -- materialisation -------------------------------------------------------


def _source_info(scenario: Scenario):
    if scenario.kind == "workload":
        return workload_info(scenario.source)
    return adversary_info(scenario.source)


def _materialise(
    kind: str,
    source_name: str,
    source_params: Mapping[str, Any],
    seeds: Sequence[int],
    cost_model: str | None,
) -> tuple[list[MSPInstance], list[AdversarialInstance] | None]:
    """Shared instance materialisation for scenarios and bracket cells."""
    source = resolve(source_name, **dict(source_params))
    if isinstance(source, AdaptiveGame):
        raise ValueError(
            f"adaptive source {source_name!r} has no pre-built instances; "
            "its instances exist only after the game is played"
        )
    if kind == "adversary":
        advs = [source.build(np.random.default_rng(s)) for s in seeds]
        return [adv.instance for adv in advs], advs
    instances = []
    for seed in seeds:
        inst = source.generate(np.random.default_rng(seed))
        if isinstance(inst, MovingClientInstance):
            inst = inst.as_msp()
        if cost_model is not None:
            inst = inst.with_cost_model(_cost_model(cost_model))
        instances.append(inst)
    return instances, None


def build_instances(
    scenario: Scenario,
) -> tuple[list[MSPInstance], list[AdversarialInstance] | None]:
    """Materialise the scenario's per-seed instances.

    Returns the (lowered, cost-model-adjusted) :class:`MSPInstance` list
    ready for either engine, plus the adversarial wrappers when the
    source is an oblivious construction (``None`` for workloads).
    Moving-client instances are lowered via ``as_msp()`` exactly as
    :func:`repro.core.simulator.simulate_moving_client` does.
    """
    return _materialise(scenario.kind, scenario.source, scenario.source_kwargs(),
                        scenario.seeds, scenario.cost_model)


def _cost_model(value: str):
    from ..core.costs import CostModel

    return CostModel(value)


def _resolve_metric(scenario: Scenario) -> Metric | None:
    """The scenario's metric instance, or ``None`` for the default.

    ``None`` (euclidean) makes both engines run the exact pre-metric ℓ2
    hot path.  For the ``graph`` metric the workload's attached metric
    wins over the registry default, so a ``graph-dc`` scenario measures
    distances on the data-center fabric its requests live on rather than
    on the default road network.
    """
    if scenario.metric == "euclidean":
        return None
    metric = get_metric(scenario.metric)
    if scenario.kind == "workload":
        source = resolve(scenario.source, **scenario.source_kwargs())
        attached = getattr(source, "metric", None)
        if isinstance(attached, Metric) and attached.name == scenario.metric:
            metric = attached
    return metric


def _check_compatibility(scenario: Scenario, info: AlgorithmInfo, instances: Sequence[MSPInstance]) -> None:
    source_info = _source_info(scenario)
    if info.requires_moving_client and not source_info.moving_client:
        raise ValueError(
            f"algorithm {info.name!r} requires a moving-client source; "
            f"{scenario.kind} {scenario.source!r} is not one"
        )
    if scenario.metric != "euclidean":
        if scenario.kind == "adversary":
            raise ValueError(
                f"adversary constructions are Euclidean lower bounds; "
                f"metric={scenario.metric!r} is not available for source "
                f"{scenario.source!r}"
            )
        if not info.supports_metric(scenario.metric):
            raise ValueError(
                f"algorithm {info.name!r} does not support the "
                f"{scenario.metric!r} metric (supported: {info.metrics})"
            )
        if not source_info.supports_metric(scenario.metric):
            raise ValueError(
                f"workload {scenario.source!r} does not generate "
                f"{scenario.metric!r}-space requests (supported: "
                f"{source_info.metrics})"
            )
        if scenario.effective_ratio() == "bracket":
            raise ValueError(
                "the offline bracket solver is Euclidean-only; use "
                "ratio='none' with a non-euclidean metric"
            )
    else:
        if not info.supports_metric("euclidean"):
            raise ValueError(
                f"algorithm {info.name!r} only plays under the "
                f"{info.metrics} metric(s); pass metric= explicitly"
            )
        if scenario.kind == "workload" and not source_info.supports_metric("euclidean"):
            raise ValueError(
                f"workload {scenario.source!r} generates requests for the "
                f"{source_info.metrics} metric(s); pass metric= explicitly"
            )
    for inst in instances:
        if scenario.effective_ratio() == "bracket" and not inst.cost_model.counts_service:
            raise ValueError(
                f"the offline bracket solves the serve-at-a-distance program; "
                f"it cannot certify the {inst.cost_model.value!r} cost model, "
                f"whose requests must be covered (use ratio='none')"
            )
        if not info.supports_dim(inst.dim):
            raise ValueError(
                f"algorithm {info.name!r} does not support dim={inst.dim} "
                f"(supported: {info.supported_dims})"
            )
        if not info.supports_cost_model(inst.cost_model):
            raise ValueError(
                f"algorithm {info.name!r} does not play the "
                f"{inst.cost_model.value!r} cost model (supported: {info.cost_models})"
            )


# -- execution -------------------------------------------------------------


def _run_adaptive(scenario: Scenario) -> RunResult:
    if scenario.engine == "batched":
        raise ValueError("adaptive adversaries play move-by-move; engine='batched' is impossible")
    if scenario.metric != "euclidean":
        raise ValueError(
            f"adaptive adversaries play in Euclidean space; "
            f"metric={scenario.metric!r} is not available"
        )
    if scenario.effective_ratio() == "bracket":
        raise ValueError(
            f"adaptive adversary {scenario.source!r} has no pre-built instances "
            "to bracket; use ratio='adversary' or 'none'"
        )
    game = resolve(scenario.source, **scenario.source_kwargs())
    # The adaptive game is fully deterministic given the algorithm (even
    # the registered randomized algorithms reseed per factory call), so
    # one play is broadcast across the seed axis instead of replaying the
    # identical game per seed.
    outcome = game.play(
        make_algorithm(scenario.algorithm, **scenario.algorithm_kwargs()),
        delta=scenario.delta,
    )
    B = len(scenario.seeds)
    return RunResult(
        scenario=scenario,
        costs=np.full(B, outcome.algorithm_cost),
        ratios=np.full(B, outcome.ratio) if scenario.effective_ratio() == "adversary" else None,
        engine="scalar",
    )


def _certify(
    scenario: Scenario,
    instances: Sequence[MSPInstance],
    adversarials: Sequence[AdversarialInstance] | None,
    brackets: Sequence[OptBracket] | None,
    costs: np.ndarray,
    algorithm_name: str,
) -> tuple[np.ndarray | None, list[RatioMeasurement] | None]:
    """The scenario's requested certification of its per-seed costs."""
    ratio_mode = scenario.effective_ratio()
    if ratio_mode == "adversary":
        if adversarials is None:
            raise ValueError(
                f"scenario {scenario.label()!r} asks for adversary certification "
                "but its source is a workload (use ratio='bracket' or 'none')"
            )
        return np.array([adv.ratio_of(float(c)) for adv, c in zip(adversarials, costs)]), None
    if ratio_mode == "bracket":
        if len(brackets) != len(instances):
            raise ValueError("need exactly one bracket per instance")
        return None, [RatioMeasurement.certify(cost, bracket, algorithm_name)
                      for cost, bracket in zip(costs, brackets)]
    return None, None


def run(
    scenario: Scenario,
    *,
    instances: Sequence[MSPInstance] | None = None,
    adversarials: Sequence[AdversarialInstance] | None = None,
    brackets: Sequence[OptBracket] | None = None,
    keep_traces: bool = True,
) -> RunResult:
    """Execute one scenario and return its :class:`RunResult`.

    A one-cell call into the shared executor (:func:`_execute_scenarios`).
    The keyword arguments let tests inject pre-materialised instances and
    offline brackets; ordinary callers pass just the scenario.
    """
    return _execute_scenarios(
        [(0, scenario)],
        keep_traces=keep_traces,
        brackets=None if brackets is None else {0: brackets},
        instances=None if instances is None else {0: (list(instances), adversarials)},
    )[0]


def _share_key(scenario: Scenario) -> tuple:
    """Scenarios agreeing on this key see identical instances."""
    return (scenario.kind, scenario.source, scenario.source_params,
            scenario.seeds, scenario.cost_model)


def _mega_key(scenario: Scenario, instances: Sequence[MSPInstance]) -> tuple:
    """Grouping key for one ``simulate_batch`` call.

    Cells agreeing on this key — same algorithm and variant parameters,
    same instance shape — run as lanes of a single batched-engine pass:
    the engine's arithmetic is strictly per-lane (source, seed, δ and
    cost model all become per-lane data), so each cell's slice of the
    wide trace is bit-identical to its standalone run.  A cell whose
    instances disagree on ``(T, dim)`` cannot be lock-stepped at all.
    """
    shapes = {(inst.length, inst.dim) for inst in instances}
    if len(shapes) != 1:
        raise ValueError(
            f"scenario {scenario.label()!r} draws instances of different "
            f"(T, dim) shapes {sorted(shapes)}; lock-step lanes need one "
            "shape, so run it with engine='scalar'"
        )
    return (scenario.algorithm, scenario.algorithm_params, *shapes.pop())


def _run_group(
    entries: Sequence[tuple[int, Scenario, list[MSPInstance],
                            "list[AdversarialInstance] | None",
                            "Sequence[OptBracket] | None"]],
    keep_traces: bool,
) -> list[tuple[int, RunResult]]:
    """Play one group of cells and split the lanes back per cell.

    A group is either a single ``engine="scalar"`` cell, played through
    the reference :func:`simulate` loop, or cells sharing a
    :func:`_mega_key`, played as the lanes of one :func:`simulate_batch`
    call with a per-lane δ vector.  Costs, ratios and bracket
    measurements are computed per cell, so every payload is bit-identical
    whichever cells shared the pass.
    """
    first = entries[0][1]
    instances = [inst for _, _, cell, _, _ in entries for inst in cell]
    if first.engine == "scalar":
        engine = "scalar"
        traces = [
            simulate(inst, make_algorithm(first.algorithm, **first.algorithm_kwargs()),
                     delta=first.delta, metric=_resolve_metric(first))
            for inst in instances
        ]
        costs = np.array([tr.total_cost for tr in traces])
        algorithm_name = traces[0].algorithm
        lane_trace = traces.__getitem__
    else:
        engine = "batched"
        deltas = np.concatenate([np.full(len(cell), scenario.delta)
                                 for _, scenario, cell, _, _ in entries])
        algorithm = first.algorithm if not first.algorithm_params else (
            lambda: make_algorithm(first.algorithm, **first.algorithm_kwargs()))
        batch = simulate_batch(instances, algorithm, delta=deltas,
                               metric=_resolve_metric(first))
        costs = batch.total_costs
        algorithm_name = batch.algorithm
        lane_trace = batch.trace

    out: list[tuple[int, RunResult]] = []
    offset = 0
    for index, scenario, cell, adversarials, brackets in entries:
        lanes = range(offset, offset + len(cell))
        offset += len(cell)
        cell_costs = np.asarray(costs[lanes.start:lanes.stop], dtype=np.float64)
        ratios, measurements = _certify(scenario, cell, adversarials, brackets,
                                        cell_costs, algorithm_name)
        out.append((index, RunResult(
            scenario=scenario,
            costs=cell_costs,
            ratios=ratios,
            measurements=measurements,
            traces=[lane_trace(lane) for lane in lanes] if keep_traces else None,
            engine=engine,
        )))
    return out


def _execute_scenarios(
    pending: Sequence[tuple[int, Scenario]],
    keep_traces: bool = False,
    brackets: Mapping[int, "Sequence[OptBracket]"] | None = None,
    instances: Mapping[int, tuple[list[MSPInstance], "list[AdversarialInstance] | None"]]
    | None = None,
) -> dict[int, RunResult]:
    """Run index-tagged scenarios: the runtime's one executor.

    Behind :func:`run`, inline :func:`run_many` and the orchestrator's
    grouped scenario cells (:func:`_cell_run_group`).  Materialises
    instances (shared across scenarios with equal :func:`_share_key`,
    solving each bracket group once), then plays every non-adaptive cell
    as lanes of one :func:`simulate_batch` call per :func:`_mega_key`
    group.  ``engine="scalar"`` cells play the reference loop one cell at
    a time; adaptive games play move by move.  Non-Euclidean cells, and
    every cell when fusion is off
    (:func:`repro.core.kernels.fusion_enabled`), form a group of their
    own: the metric is a batch-wide argument (two ``graph`` scenarios may
    live on different topologies).  ``brackets`` and ``instances``
    optionally inject pre-solved brackets and pre-built instances per
    index.  Each result's ``elapsed`` is its lane-proportional share of
    the call's wall-clock.
    """
    from ..core.kernels import fusion_enabled

    t0 = perf_counter()
    injected = dict(instances or {})
    overrides = dict(brackets or {})
    share: dict[tuple, list] = {}
    groups: dict[tuple, list] = {}
    out: dict[int, RunResult] = {}
    for index, scenario in pending:
        if scenario.kind == "adversary" and adversary_info(scenario.source).adaptive:
            out[index] = _run_adaptive(scenario)
            continue
        key = ("injected", index) if index in injected else _share_key(scenario)
        if key not in share:
            built = injected[index] if index in injected else build_instances(scenario)
            share[key] = [*built, None]
        cell, advs, shared_brackets = share[key]
        _check_compatibility(scenario, algorithm_info(scenario.algorithm), cell)
        cell_brackets = overrides.get(index)
        if cell_brackets is None and scenario.effective_ratio() == "bracket":
            if shared_brackets is None:
                share[key][2] = [bracket_optimum(inst) for inst in cell]
            cell_brackets = share[key][2]
        if scenario.engine == "scalar":
            group: tuple = ("scalar", index)
        else:
            group = _mega_key(scenario, cell)
            if scenario.metric != "euclidean" or not fusion_enabled():
                group += (index,)
        groups.setdefault(group, []).append((index, scenario, cell, advs, cell_brackets))
    for entries in groups.values():
        out.update(_run_group(entries, keep_traces))
    lanes = sum(result.batch_size for result in out.values())
    elapsed = perf_counter() - t0
    for result in out.values():
        result.elapsed = elapsed * result.batch_size / lanes
    return out


def _run_many_pooled(
    scenarios: Sequence[Scenario],
    jobs: int,
    store: ResultsStore | None,
    executor: Any = None,
) -> list[RunResult]:
    """Fan a scenario list out over an orchestrator execution backend.

    Each scenario becomes a work unit with its standalone content address
    (:meth:`Scenario.digest`), shared bracket cells factored out as soft
    dependencies — exactly the plumbing orchestrated sweeps use, so the
    pooled path inherits their caching, dedup and resume behaviour
    whether the cells run in a local process pool or on remote spool
    workers.
    """
    from ..experiments.orchestrator import SweepSpec, execute

    keys = [f"s{i}" for i in range(len(scenarios))]
    units = scenario_units(scenarios, keys=keys)
    spec = SweepSpec("run-many", tuple(units),
                     finalize="repro.api.runtime:_collect_payloads")
    report = execute([spec], jobs=jobs, store=store, executor=executor)
    payloads = report.results[0]
    results = []
    for key in keys:
        result = RunResult.from_payload(payloads[key])
        # Timings list every cell computed this run, in-run twins
        # included; everything else the store served.
        result.cached = f"run-many/{key}" not in report.timings
        results.append(result)
    return results


def run_many(
    scenarios: Sequence[Scenario],
    *,
    store: ResultsStore | None = None,
    keep_traces: bool = False,
    jobs: int = 1,
    executor: Any = None,
) -> list[RunResult]:
    """Run several scenarios, sharing instances and offline brackets.

    Scenarios that differ only in the algorithm (the ``compare`` pattern)
    materialise their instances once and — when any of them certifies
    against a bracketed optimum — solve each instance's offline bracket
    once, not once per algorithm.

    With a ``store``, each scenario is looked up by its content digest
    first and fresh results are written back, so repeated comparisons are
    cache hits (the addresses are shared with orchestrator scenario
    cells).  Results loaded from the store carry no traces.

    ``jobs > 1`` fans the scenarios out over the orchestrator's process
    pool (same work-unit plumbing, same content addresses — results are
    bit-identical to ``jobs=1``); bracket sharing then happens through
    factored-out soft-dependency cells rather than in-process.  An
    explicit ``executor`` (``"inline"``, ``"process"``, or an
    :class:`~repro.experiments.executors.Executor` instance — the spool
    backend needs its directory, so pass a constructed
    :class:`~repro.experiments.executors.SpoolExecutor`, not the name)
    routes through the same plumbing regardless of ``jobs``.  Worker
    payloads carry only the scalar summaries, so ``keep_traces=True``
    is rejected with a ``ValueError`` on any non-inline path.
    """
    from ..experiments.executors import InlineExecutor, make_executor

    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    if executor is not None:
        backend = make_executor(executor, jobs=jobs)
        if isinstance(backend, InlineExecutor) and jobs > 1:
            raise ValueError("executor='inline' runs scenarios sequentially; "
                             "drop jobs or pick another executor")
        pooled = not isinstance(backend, InlineExecutor) and len(scenarios) > 0
    else:
        backend = None
        pooled = jobs > 1 and len(scenarios) > 1
    if pooled:
        if keep_traces:
            raise ValueError("keep_traces is unavailable with jobs > 1 or a "
                             "non-inline executor (worker payloads carry only "
                             "the scalar summaries)")
        return _run_many_pooled(scenarios, jobs=jobs, store=store, executor=backend)
    results: list[RunResult | None] = [None] * len(scenarios)
    pending: list[tuple[int, Scenario]] = []
    for i, scenario in enumerate(scenarios):
        if store is not None:
            payload = store.load_or_none(scenario.digest())
            if payload is not None:
                result = RunResult.from_payload(payload)
                result.cached = True
                results[i] = result
                continue
        pending.append((i, scenario))
    executed = _execute_scenarios(pending, keep_traces=keep_traces)
    for i, scenario in pending:
        result = executed[i]
        if store is not None:
            store.save(scenario.digest(), result.as_payload(),
                       extra_meta={"kind": "scenario", "label": scenario.label()})
        results[i] = result
    return results


# -- orchestrator integration ----------------------------------------------


def cell_brackets(
    kind: str,
    source: str,
    source_params: Mapping[str, Any],
    seeds: Sequence[int],
    cost_model: str | None,
) -> dict[str, Any]:
    """Ephemeral cell: offline brackets of one share-group's instances.

    The payload is a deterministic function of the parameters (which are
    a subset of every consuming scenario's own parameters), which is what
    licenses attaching it as a *soft* dependency: scenario cells keep
    their standalone content addresses whether or not the bracket cell
    feeds them.
    """
    instances, _ = _materialise(kind, source, source_params, seeds, cost_model)
    return {"brackets": [bracket_optimum(inst).as_payload() for inst in instances]}


def _bracket_group(scenario: Scenario) -> dict[str, Any]:
    """The bracket cell's parameters for ``scenario``'s share group."""
    return {
        "kind": scenario.kind,
        "source": scenario.source,
        "source_params": scenario.source_kwargs(),
        "seeds": list(scenario.seeds),
        "cost_model": scenario.cost_model,
    }


def cell_run(scenario: Mapping[str, Any], deps: Mapping[str, Any] | None = None) -> dict[str, Any]:
    """Generic orchestrator cell: execute one serialized scenario.

    The cell's content address (``fn`` + the scenario dict) equals
    :meth:`Scenario.digest`, so orchestrated sweeps and inline
    :func:`run_many` calls share store entries.  A factored-out bracket
    cell may feed in through ``deps`` (as a soft dependency — the
    address does not change): its certified brackets are then reused
    instead of re-solved.
    """
    # Non-bracket dependencies (the public ``deps`` on scenario_unit)
    # are simply not consumed here.
    return run(Scenario.from_dict(scenario), brackets=_cell_brackets_of(deps),
               keep_traces=False).as_payload()


def _cell_brackets_of(deps: Mapping[str, Any] | None):
    """The bracket soft-dependency payload of one scenario cell, if any."""
    if not deps:
        return None
    payload = next((p for p in deps.values() if "brackets" in p), None)
    if payload is None:
        return None
    return [OptBracket.from_payload(b) for b in payload["brackets"]]


def _cell_run_group(calls: Sequence[tuple[Mapping[str, Any], Mapping[str, Any] | None]]):
    """Grouped executor entry point: several :func:`cell_run` cells at once.

    The inline executor hands over the ready scenario cells of a sweep as
    ``(params, deps)`` pairs; compatible cells are mega-batched through
    one :func:`simulate_batch` call per group.  Payloads come back in
    call order and are bit-identical to per-cell :func:`cell_run` (which
    is what licenses the grouping: every cell keeps its standalone
    content address).
    """
    pending: list[tuple[int, Scenario]] = []
    overrides: dict[int, Any] = {}
    for i, (params, deps) in enumerate(calls):
        pending.append((i, Scenario.from_dict(params["scenario"])))
        brackets = _cell_brackets_of(deps)
        if brackets is not None:
            overrides[i] = brackets
    executed = _execute_scenarios(pending, keep_traces=False, brackets=overrides)
    return [executed[i].as_payload() for i in range(len(calls))]


cell_run.group_runner = _cell_run_group


def scenario_unit(key: str, scenario: Scenario, deps: tuple[str, ...] = (),
                  soft_deps: tuple[str, ...] = ()):
    """A :class:`~repro.experiments.orchestrator.WorkUnit` running ``scenario``.

    The unit's parameters are :meth:`Scenario.cache_dict` (display name
    stripped), so its orchestrator content address equals
    :meth:`Scenario.digest` — sweeps and inline runs share store entries
    (soft dependencies, e.g. a shared bracket cell, do not perturb it).
    """
    from ..experiments.orchestrator import WorkUnit

    return WorkUnit(key=key, fn=CELL_FN, params={"scenario": scenario.cache_dict()},
                    deps=deps, soft_deps=soft_deps)


def scenario_units(
    scenarios: Sequence[Scenario],
    keys: Sequence[str] | None = None,
    share_brackets: bool = True,
):
    """Work units for a scenario list, shared bracket cells factored out.

    Scenarios certifying against a bracketed optimum that agree on
    (source, params, seeds, cost model) get one ephemeral
    :func:`cell_brackets` unit per group (only when the group has at
    least two members — a lone scenario solves its brackets inline) and
    consume it as a soft dependency, so the expensive offline solve runs
    once per group instead of once per algorithm/δ cell.
    """
    from ..experiments.orchestrator import WorkUnit

    if keys is not None and len(keys) != len(scenarios):
        raise ValueError("need exactly one key per scenario")
    if keys is None:
        keys = [f"s{i}" for i in range(len(scenarios))]
    if len(set(keys)) != len(keys):
        raise ValueError("scenario unit keys must be unique")

    def shareable(sc: Scenario) -> bool:
        return (sc.effective_ratio() == "bracket"
                and not (sc.kind == "adversary" and adversary_info(sc.source).adaptive))

    group_sizes: dict[tuple, int] = {}
    for sc in scenarios:
        if shareable(sc):
            key = _share_key(sc)
            group_sizes[key] = group_sizes.get(key, 0) + 1

    units = []
    bracket_keys: dict[tuple, str] = {}
    for key, sc in zip(keys, scenarios):
        soft: tuple[str, ...] = ()
        if share_brackets and shareable(sc) and group_sizes[_share_key(sc)] > 1:
            skey = _share_key(sc)
            if skey not in bracket_keys:
                bracket_key = f"brackets/{len(bracket_keys)}"
                bracket_keys[skey] = bracket_key
                units.append(WorkUnit(key=bracket_key, fn=BRACKET_FN,
                                      params=_bracket_group(sc), ephemeral=True))
            soft = (bracket_keys[skey],)
        units.append(scenario_unit(key, sc, soft_deps=soft))
    return units


def _collect_payloads(results: Mapping[str, Any], scale: float, seed: int) -> dict[str, Any]:
    """Finalize hook for pooled :func:`run_many`: the raw payload map."""
    return dict(results)
