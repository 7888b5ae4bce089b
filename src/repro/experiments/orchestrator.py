"""Declarative experiment orchestrator.

An experiment is declared as a :class:`SweepSpec`: a flat collection of
:class:`WorkUnit` cells (parameter-grid point × seeds × workload or
adversary factory), each naming a module-level *cell function* by dotted
path plus JSON-able parameters, optionally depending on other cells
(e.g. delta-sweep simulation cells sharing one offline-bracket cell).
:func:`execute` turns one or more specs into results:

1. every unit gets a content address (:func:`repro.core.store.digest_key`
   over its function, parameters and dependency digests);
2. units already present in the :class:`~repro.core.store.ResultsStore`
   are loaded instead of recomputed (cache hits double as ``--resume``:
   an interrupted grid continues from its last persisted cell);
3. remaining units run in dependency order through a pluggable
   :class:`~repro.experiments.executors.Executor` backend — inline for
   ``jobs=1``, a local process pool for ``jobs>1``, or a spool directory
   drained by external ``mobile-server worker`` processes (any number,
   on any machines sharing the filesystem) for ``executor="spool"``.
   Each cell internally dispatches its seed sweep through the batched
   engine (:func:`repro.core.engine.simulate_batch`), so workers
   multiply the single-core win of vectorized lanes;
4. per spec, a *finalize* function assembles the cells into the familiar
   :class:`~repro.experiments.runner.ExperimentResult` table.

Cell functions must be module-level (picklable by path), take only
JSON-able keyword arguments, and return a storable payload (nested
dict/list/scalars/NumPy arrays — see :func:`repro.core.store.pack_payload`).
Units with dependencies receive an extra ``deps`` mapping
``{local unit key: payload}``.  All randomness must derive from the
parameters (seeds), never from global state: that is what makes cells
relocatable across processes and cache entries exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from ..core.store import MISSING, ResultsStore, digest_key
from .executors import ExecutionContext, Executor, make_executor
from .executors.base import resolve_callable as _resolve
from .runner import ExperimentResult

__all__ = [
    "ExecutionReport",
    "SweepSpec",
    "WorkUnit",
    "execute",
    "execute_spec",
    "unit_digests",
]


@dataclass(frozen=True)
class WorkUnit:
    """One schedulable cell of a sweep.

    Attributes
    ----------
    key:
        Unique name within the spec (the orchestrator namespaces it with
        the experiment id globally).
    fn:
        Dotted path ``"package.module:function"`` of the cell function.
    params:
        JSON-able keyword arguments; seeds, scale and every code-relevant
        parameter belong here — they form the cell's content address.
    deps:
        Keys of units (same spec) whose payloads this cell consumes.
        Dependency digests enter this cell's content address.
    soft_deps:
        Like ``deps`` (payloads delivered, execution ordered after them)
        but **excluded from the content address**.  Only valid when the
        dependency's payload is a deterministic function of this cell's
        own parameters — e.g. offline brackets derived from the same
        source parameters and seeds — so a cached payload computed
        without the dependency is interchangeable with one computed with
        it.  This is what lets shared-bracket cells be factored out of a
        scenario sweep while every scenario cell keeps the address of its
        standalone :meth:`repro.api.Scenario.digest`.
    """

    key: str
    fn: str
    params: Mapping[str, Any] = field(default_factory=dict)
    deps: tuple[str, ...] = ()
    soft_deps: tuple[str, ...] = ()
    #: Ephemeral units exist only to feed other units (e.g. factored-out
    #: shared brackets): they are not handed to finalize, and when every
    #: unit that would consume them is already cached they are skipped
    #: entirely instead of computed.
    ephemeral: bool = False


@dataclass(frozen=True)
class SweepSpec:
    """A declarative experiment: work units plus a finalize function.

    Every experiment in :data:`repro.experiments.SPECS` is one of these.
    ``finalize`` is the dotted path of a function called as
    ``finalize(results, scale=..., seed=...)`` with the non-ephemeral
    units' payloads keyed by unit key; it returns the experiment's
    :class:`~repro.experiments.runner.ExperimentResult`.  Only the units
    enter content addresses, so a finalize-only change reuses every
    cached cell.
    """

    experiment_id: str
    units: tuple[WorkUnit, ...]
    finalize: str
    scale: float = 1.0
    seed: int = 0


@dataclass
class ExecutionReport:
    """What :func:`execute` did: results plus cache and timing accounting."""

    results: list[ExperimentResult] = field(default_factory=list)
    computed: int = 0
    cached: int = 0
    #: Ephemeral units skipped because every consumer was already cached.
    skipped: int = 0
    #: Wall-clock seconds per *computed* cell (cache hits don't appear;
    #: within-run twins of a computed cell read 0.0), keyed by the cell's
    #: namespaced key.  Under ``jobs>1`` these are the in-worker
    #: durations, so they sum to total CPU-side work, not to the elapsed
    #: wall-clock of the pooled run.
    timings: dict[str, float] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return self.computed + self.cached

    @property
    def compute_seconds(self) -> float:
        """Total seconds spent inside computed cells."""
        return sum(self.timings.values())

    def slowest(self, n: int = 3) -> list[tuple[str, float]]:
        """The ``n`` slowest computed cells, slowest first."""
        return sorted(self.timings.items(), key=lambda kv: kv[1], reverse=True)[:n]


def _toposort(units: Sequence[tuple[str, WorkUnit]]) -> list[tuple[str, WorkUnit]]:
    """Kahn's algorithm, stable with respect to declaration order."""
    order: list[tuple[str, WorkUnit]] = []
    placed: set[str] = set()
    remaining = list(units)
    known = {key for key, _ in units}
    for key, unit in units:
        for dep in _dep_keys(key, unit):
            if dep not in known:
                raise KeyError(f"unit {key!r} depends on unknown unit {dep!r}")
    while remaining:
        progressed = False
        still: list[tuple[str, WorkUnit]] = []
        for key, unit in remaining:
            if all(dep in placed for dep in _dep_keys(key, unit)):
                order.append((key, unit))
                placed.add(key)
                progressed = True
            else:
                still.append((key, unit))
        if not progressed:
            cycle = ", ".join(key for key, _ in still)
            raise ValueError(f"dependency cycle among work units: {cycle}")
        remaining = still
    return order


def _spec_prefixes(specs: Sequence[SweepSpec]) -> list[str]:
    """One namespace per spec; repeated experiment ids get ``#n`` suffixes.

    Requesting the same experiment twice (``--ids E9 E9``) is legal — the
    second spec's cells share the first's content addresses, so the
    within-run dedup computes them once and both finalize passes see the
    same payloads, matching the old run-it-twice loop's output.
    """
    counts: dict[str, int] = {}
    prefixes = []
    for spec in specs:
        n = counts.get(spec.experiment_id, 0)
        counts[spec.experiment_id] = n + 1
        prefixes.append(spec.experiment_id if n == 0 else f"{spec.experiment_id}#{n + 1}")
    return prefixes


def _prefixed(full_key: str, deps: tuple[str, ...]) -> list[str]:
    prefix = full_key[: full_key.index("/") + 1] if "/" in full_key else ""
    return [prefix + dep for dep in deps]


def _dep_keys(full_key: str, unit: WorkUnit) -> list[str]:
    """All execution-order dependencies (hard first, then soft)."""
    return _prefixed(full_key, unit.deps + unit.soft_deps)


def unit_digests(ordered: Sequence[tuple[str, WorkUnit]]) -> dict[str, str]:
    """The store address of every ``(namespaced key, unit)`` pair.

    ``ordered`` must list dependencies before their dependents (as
    :func:`execute` schedules them), since a unit's address covers its
    hard dependencies' addresses.
    """
    digests: dict[str, str] = {}
    for full, unit in ordered:
        # Only hard deps enter the address: soft deps are by contract a
        # deterministic function of the unit's own params, so a payload
        # computed with or without them is the same payload.
        dep_digests = {dep: digests[dep] for dep in _prefixed(full, unit.deps)}
        digests[full] = digest_key(unit.fn, dict(unit.params), dep_digests)
    return digests


def execute(
    specs: Sequence[SweepSpec],
    jobs: int = 1,
    store: ResultsStore | None = None,
    rerun: bool = False,
    progress: Callable[[str], None] | None = None,
    executor: str | Executor | None = None,
    spool: Any = None,
    spool_timeout: float | None = None,
) -> ExecutionReport:
    """Run the specs' work units (cache-aware, optionally in parallel).

    Parameters
    ----------
    jobs:
        Worker processes; ``1`` runs everything inline (no pool).
    store:
        Persistent cell cache.  When given, completed cells are loaded
        instead of recomputed and fresh cells are written back — which is
        both the fast-second-run path and the resume-after-interrupt path.
    rerun:
        Ignore existing store entries and recompute every cell,
        overwriting the stored payloads.
    progress:
        Optional callback for human-readable status lines.
    executor:
        Execution backend: an :class:`~repro.experiments.executors.Executor`
        instance, a name (``"inline"``, ``"process"``, ``"spool"``), or
        ``None`` to derive one from ``jobs`` (inline for ``jobs=1``, a
        process pool otherwise).  The spool backend additionally needs
        ``spool`` (the task directory shared with the workers) and a
        persistent ``store``.
    spool:
        Spool directory for ``executor="spool"``.
    spool_timeout:
        For ``executor="spool"``: fail when no worker makes progress
        for this many seconds (default ``None`` — wait forever).
    """
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    backend = make_executor(executor, jobs=jobs, spool=spool,
                            timeout=spool_timeout)
    prefixes = _spec_prefixes(specs)
    flat: list[tuple[str, WorkUnit]] = []
    seen: set[str] = set()
    for spec, prefix in zip(specs, prefixes):
        for unit in spec.units:
            full = f"{prefix}/{unit.key}"
            if full in seen:
                raise ValueError(f"duplicate work unit key {full!r}")
            seen.add(full)
            flat.append((full, unit))
    ordered = _toposort(flat)

    digests = unit_digests(ordered)
    report = ExecutionReport()
    payloads: dict[str, Any] = {}
    if store is not None and not rerun:
        for full, unit in ordered:
            # load_or_none drops corrupt entries (e.g. an interrupted
            # copy between machines) so they recompute as cache misses;
            # the MISSING sentinel keeps stored None payloads cacheable.
            payload = store.load_or_none(digests[full], MISSING)
            if payload is not MISSING:
                payloads[full] = payload
                report.cached += 1

    # Within-run dedup: units with identical content addresses (e.g. the
    # same experiment requested twice, or two sweeps sharing a cell)
    # compute once; the twins count as computed, since the store served
    # none of them.
    pending: list[tuple[str, WorkUnit]] = []
    twins: dict[str, list[str]] = {}
    for full, unit in ordered:
        if full in payloads:
            continue
        digest = digests[full]
        if digest in twins:
            twins[digest].append(full)
        else:
            twins[digest] = []
            pending.append((full, unit))

    # Prune ephemeral units nothing pending consumes (all their dependents
    # were cache hits): a warm sweep must not re-derive shared brackets.
    while True:
        needed: set[str] = set()
        for full, unit in pending:
            needed.update(_dep_keys(full, unit))
        drop = {
            full for full, unit in pending
            if unit.ephemeral and full not in needed
            and not any(twin in needed for twin in twins.get(digests[full], []))
        }
        if not drop:
            break
        pending = [(full, unit) for full, unit in pending if full not in drop]
        report.skipped += sum(1 + len(twins[digests[full]]) for full in drop)

    def finish(full: str, unit: WorkUnit, payload: Any, elapsed: float,
               persist: bool = True) -> None:
        payloads[full] = payload
        report.timings[full] = elapsed
        for twin in twins[digests[full]]:
            payloads[twin] = payload
            report.timings[twin] = 0.0  # computed once, under ``full``
        report.computed += 1 + len(twins[digests[full]])
        if store is not None and persist:
            store.save(digests[full], payload,
                       extra_meta={"key": full, "fn": unit.fn, "elapsed": elapsed})
        if progress is not None:
            progress(f"computed {full} ({elapsed:.2f}s)")

    def dep_payloads(full: str, unit: WorkUnit) -> dict[str, Any] | None:
        locals_ = unit.deps + unit.soft_deps
        if not locals_:
            return None
        return {dep_local: payloads[dep]
                for dep_local, dep in zip(locals_, _dep_keys(full, unit))}

    backend.drain(ExecutionContext(
        pending=pending,
        digests=digests,
        payloads=payloads,
        store=store,
        dep_keys=_dep_keys,
        dep_payloads=dep_payloads,
        finish=finish,
        rerun=rerun,
    ))

    for spec, prefix in zip(specs, prefixes):
        local = {unit.key: payloads[f"{prefix}/{unit.key}"]
                 for unit in spec.units if not unit.ephemeral}
        report.results.append(_resolve(spec.finalize)(local, scale=spec.scale, seed=spec.seed))
    return report


def execute_spec(spec: SweepSpec, **kwargs: Any) -> ExperimentResult:
    """Convenience wrapper: run one spec, return its result."""
    return execute([spec], **kwargs).results[0]

