"""Batched lock-step simulation engine.

:func:`simulate_batch` plays ``B`` same-length instances simultaneously:
server positions live in one ``(B, d)`` array, move validation, cap
clamping and cost accounting are single vectorized NumPy operations over
all lanes, and the per-step Python overhead of :func:`repro.core.simulator.simulate`
is paid once per *step* instead of once per *(instance, step)* pair.  This
is the throughput substrate for seed/parameter sweeps: the experiment
harness dispatches its repeated runs through this module and the analysis
layer slices the result back into ordinary per-instance traces.

Key types
---------

:class:`VectorizedAlgorithm`
    The batched counterpart of :class:`~repro.algorithms.base.OnlineAlgorithm`:
    ``reset_batch(instances, caps)`` once, then
    ``decide_batch(t, positions, step) -> (B, d)`` per step.  The batched
    forms live in :mod:`repro.algorithms.vectorized`: fused kernels
    (:mod:`repro.core.kernels`) for the algorithms that have one, and a
    scalar adapter that makes every registry algorithm usable under this
    engine unchanged.

:class:`BatchStepRequests`
    The requests of one time step across all lanes.  Exposes a packed
    ``(B, r, d)`` array when every lane has the same request count (the
    fast path) and lazy per-lane :class:`~repro.core.requests.RequestBatch`
    objects otherwise.

:class:`BatchState`
    Mutable engine state: ``(B, d)`` positions plus ``(B,)`` running cost
    accumulators.

:class:`BatchTrace`
    The batched analogue of :class:`~repro.core.trace.Trace`; ``trace(i)``
    slices lane ``i`` back to an ordinary :class:`Trace`.

Equivalence contract
--------------------

For every lane the engine performs the exact same float64 arithmetic as
the scalar simulator (row-wise ``einsum`` norms, identical clamp formula,
identical summation order over a step's requests), so batched runs
reproduce scalar traces bit-for-bit — the property test suite asserts
this for every registry algorithm under both cost models.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence, Union

import numpy as np

from .metric import Metric, get_metric, row_norms
from .instance import MSPInstance
from .requests import RequestBatch, RequestSequence
from .trace import Trace
from .validation import MovementCapViolation, cap_tolerance

if TYPE_CHECKING:  # pragma: no cover - import only for type hints
    from ..algorithms.base import OnlineAlgorithm

__all__ = [
    "BatchState",
    "BatchStepRequests",
    "BatchTrace",
    "VectorizedAlgorithm",
    "advance_lanes",
    "simulate_batch",
]


class BatchStepRequests:
    """The requests revealed at one time step, across all ``B`` lanes.

    Attributes
    ----------
    counts:
        ``(B,)`` int array of per-lane request counts :math:`r_t`.
    points:
        ``(B, r, d)`` packed array when every lane has the same positive
        request count this step, else ``None``.  Vectorized algorithms use
        this fast path and fall back to :attr:`batches` when it is absent.
    """

    __slots__ = ("_sequences", "_t", "counts", "points")

    def __init__(
        self,
        sequences: Sequence[RequestSequence],
        t: int,
        counts: np.ndarray,
        points: np.ndarray | None,
    ) -> None:
        self._sequences = sequences
        self._t = t
        self.counts = counts
        self.points = points

    @property
    def batches(self) -> list[RequestBatch]:
        """Per-lane request batches (materialized lazily)."""
        return [seq[self._t] for seq in self._sequences]

    def batch(self, lane: int) -> RequestBatch:
        """The requests of a single lane."""
        return self._sequences[lane][self._t]

    def __len__(self) -> int:
        return len(self._sequences)


@dataclass
class BatchState:
    """Mutable state of a batched run: positions plus cost accumulators.

    Attributes
    ----------
    positions:
        ``(B, d)`` current server positions (engine-owned; algorithms must
        treat the array handed to ``decide_batch`` as read-only).
    movement, service:
        ``(B,)`` accumulated weighted movement / service cost per lane.
    distance_moved:
        ``(B,)`` accumulated raw distance per lane.
    steps:
        Number of steps advanced so far.
    """

    positions: np.ndarray
    movement: np.ndarray
    service: np.ndarray
    distance_moved: np.ndarray
    steps: int = 0

    @classmethod
    def initial(cls, starts: np.ndarray) -> "BatchState":
        starts = np.array(starts, dtype=np.float64, copy=True)
        B = starts.shape[0]
        return cls(
            positions=starts,
            movement=np.zeros(B),
            service=np.zeros(B),
            distance_moved=np.zeros(B),
        )

    @property
    def batch_size(self) -> int:
        return int(self.positions.shape[0])

    @property
    def totals(self) -> np.ndarray:
        """``(B,)`` total cost so far per lane."""
        return self.movement + self.service

    def advance(
        self,
        new_positions: np.ndarray,
        movement: np.ndarray,
        service: np.ndarray,
        distance: np.ndarray,
    ) -> None:
        """Commit one validated step."""
        self.positions = new_positions
        self.movement += movement
        self.service += service
        self.distance_moved += distance
        self.steps += 1


@dataclass
class BatchTrace:
    """Complete record of one batched run; lane ``i`` slices to a :class:`Trace`.

    All arrays carry the batch axis first: ``positions`` is ``(B, T+1, d)``
    and the per-step arrays are ``(B, T)``.
    """

    positions: np.ndarray
    movement_costs: np.ndarray
    service_costs: np.ndarray
    distances_moved: np.ndarray
    request_counts: np.ndarray
    algorithm: str = ""

    @classmethod
    def allocate(cls, B: int, T: int, dim: int, algorithm: str = "") -> "BatchTrace":
        return cls(
            positions=np.zeros((B, T + 1, dim)),
            movement_costs=np.zeros((B, T)),
            service_costs=np.zeros((B, T)),
            distances_moved=np.zeros((B, T)),
            request_counts=np.zeros((B, T), dtype=np.int64),
            algorithm=algorithm,
        )

    @property
    def batch_size(self) -> int:
        return int(self.movement_costs.shape[0])

    @property
    def length(self) -> int:
        return int(self.movement_costs.shape[1])

    @property
    def dim(self) -> int:
        return int(self.positions.shape[2])

    @property
    def total_costs(self) -> np.ndarray:
        """``(B,)`` total cost per lane."""
        return self.movement_costs.sum(axis=1) + self.service_costs.sum(axis=1)

    @property
    def total_movement_costs(self) -> np.ndarray:
        return self.movement_costs.sum(axis=1)

    @property
    def total_service_costs(self) -> np.ndarray:
        return self.service_costs.sum(axis=1)

    def trace(self, lane: int) -> Trace:
        """Copy lane ``lane`` out into an ordinary :class:`Trace`."""
        if not (-self.batch_size <= lane < self.batch_size):
            raise IndexError(f"lane {lane} out of range for batch of {self.batch_size}")
        return Trace(
            positions=self.positions[lane].copy(),
            movement_costs=self.movement_costs[lane].copy(),
            service_costs=self.service_costs[lane].copy(),
            distances_moved=self.distances_moved[lane].copy(),
            request_counts=self.request_counts[lane].copy(),
            algorithm=self.algorithm,
        )

    def traces(self) -> list[Trace]:
        """All lanes as per-instance traces."""
        return [self.trace(i) for i in range(self.batch_size)]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BatchTrace(alg={self.algorithm!r}, B={self.batch_size}, "
            f"T={self.length}, dim={self.dim})"
        )


class VectorizedAlgorithm(abc.ABC):
    """Batched counterpart of :class:`~repro.algorithms.base.OnlineAlgorithm`.

    The engine calls :meth:`reset_batch` once with the ``B`` instances and
    their per-lane movement caps, then :meth:`decide_batch` once per step.
    Implementations keep any auxiliary state (pursuit targets, phase
    buffers, RNG streams) per lane; the *positions* are engine-owned and
    handed in read-only — do not mutate them.
    """

    #: Identifier recorded in traces; mirrors the scalar algorithm's name.
    name: str = "vectorized-algorithm"

    def __init__(self) -> None:
        self.instances: list[MSPInstance] = []
        self.caps: np.ndarray = np.zeros(0)
        self.D: np.ndarray = np.zeros(0)

    @property
    def batch_size(self) -> int:
        return len(self.instances)

    def reset_batch(self, instances: Sequence[MSPInstance], caps: np.ndarray) -> None:
        """Prepare for a fresh batched run.

        Subclasses needing extra per-lane state must call
        ``super().reset_batch(...)``.
        """
        self.instances = list(instances)
        self.caps = np.asarray(caps, dtype=np.float64)
        self.D = np.array([inst.D for inst in self.instances], dtype=np.float64)

    @abc.abstractmethod
    def decide_batch(
        self, t: int, positions: np.ndarray, step: BatchStepRequests
    ) -> np.ndarray:
        """Return the ``(B, d)`` new server positions for step ``t``.

        Row ``i`` must satisfy ``d(positions[i], new[i]) <= caps[i]`` up to
        floating-point tolerance; the engine validates every lane.
        """

    # -- carried lane state (incremental stepping) ------------------------

    def export_lane_states(self) -> list:
        """Opaque per-lane decision state after the steps played so far.

        The streaming serve layer advances lanes through the engine
        incrementally and may regroup them between ticks: it exports each
        lane's state after a step and imports it into a (possibly
        differently-composed) batch before the next one.  The contract is
        that ``import_lane_states(export_lane_states())`` round-trips
        exactly — a lane stepped under changing batch compositions makes
        bit-identical decisions to one stepped in a fixed batch.

        Stateless algorithms (decisions are pure functions of positions,
        requests and caps) inherit this default, which exports ``None``
        per lane.  Stateful subclasses must override both methods.  The
        exported values are in-process handles (they may hold live RNGs);
        durable checkpoints replay the request history instead of
        serializing them.
        """
        return [None] * self.batch_size

    def import_lane_states(self, states: Sequence) -> None:
        """Restore per-lane decision state exported by :meth:`export_lane_states`.

        Called after :meth:`reset_batch`, with one entry per lane of the
        *current* batch (entries may come from different earlier batches).
        """
        if len(states) != self.batch_size:
            raise ValueError(
                f"expected {self.batch_size} lane states, got {len(states)}"
            )
        for i, state in enumerate(states):
            if state is not None:
                raise ValueError(
                    f"{type(self).__name__} is stateless but lane {i} carries "
                    "state — override import_lane_states in the subclass"
                )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


#: What :func:`simulate_batch` accepts as its algorithm argument: an already
#: constructed :class:`VectorizedAlgorithm`, a registry name, or a zero-arg
#: factory of scalar algorithms (wrapped by the scalar-fallback adapter).
AlgorithmSpec = Union[VectorizedAlgorithm, str, Callable[[], "OnlineAlgorithm"]]


def _resolve_algorithm(algorithm: AlgorithmSpec, metric: Metric | None = None) -> VectorizedAlgorithm:
    if isinstance(algorithm, VectorizedAlgorithm):
        if metric is not None:
            # Only the scalar adapter (which exposes a ``metric`` slot) can
            # honour a non-ℓ2 metric; kernels hardcode ℓ2.
            if hasattr(algorithm, "metric"):
                algorithm.metric = metric
            else:
                raise ValueError(
                    f"{algorithm.name!r} is a batched ℓ2-only "
                    f"implementation and cannot run under metric {metric.name!r}; "
                    "pass the registry name or a scalar factory instead"
                )
        return algorithm
    # Lazy import: keeps the core layer importable without the algorithms
    # package (mirrors the scalar simulator's TYPE_CHECKING-only import).
    from ..algorithms.vectorized import as_vectorized

    return as_vectorized(algorithm, metric=metric)


def _packed_stack(sequences: Sequence[RequestSequence]) -> np.ndarray | None:
    """The ``(B, T, r, d)`` request stack when every lane packs uniformly.

    ``None`` when any lane is ragged or the lanes disagree on the per-step
    request count — the conditions under which the engine's gather
    falls back to per-step assembly and kernels to the scalar reference.
    """
    packed = [seq.packed for seq in sequences]
    if all(p is not None for p in packed) and len({p.shape[1] for p in packed}) == 1:
        return np.stack(packed)
    return None


def _gather_steps(instances: Sequence[MSPInstance], T: int) -> list[BatchStepRequests]:
    """Pre-assemble the per-step cross-lane request views."""
    sequences = [inst.requests for inst in instances]
    counts = np.stack([seq.counts for seq in sequences])  # (B, T)
    steps: list[BatchStepRequests] = []
    # Fast path: every lane uniform with the same request count — one big
    # (B, T, r, d) stack, sliced per step without copying.
    big = _packed_stack(sequences)
    if big is not None:
        for t in range(T):
            steps.append(BatchStepRequests(sequences, t, counts[:, t], big[:, t]))
        return steps
    # Ragged path: hoist each lane's per-step point arrays out of the loop
    # once, so steps with uniform counts stack plain ndarrays instead of
    # re-materializing RequestBatch views T × B times.
    lane_points = [[batch.points for batch in seq] for seq in sequences]
    for t in range(T):
        col = counts[:, t]
        points = None
        r = int(col[0])
        if r > 0 and np.all(col == r):
            points = np.stack([pts[t] for pts in lane_points])
        steps.append(BatchStepRequests(sequences, t, col, points))
    return steps


def _batch_service_costs(
    serving: np.ndarray, step: BatchStepRequests, metric: Metric | None = None
) -> np.ndarray:
    """``(B,)`` per-lane service cost of answering this step from ``serving``.

    The summation over a lane's requests uses the same reduction as the
    scalar :func:`~repro.core.metric.distances_to` + ``sum`` path so the
    totals agree bit-for-bit.  A non-``None`` ``metric`` routes each lane
    through that metric's ``distances_to`` — same per-lane arithmetic as
    the scalar simulator's generic branch.
    """
    B = serving.shape[0]
    if metric is not None:
        service = np.zeros(B)
        for i in np.nonzero(step.counts)[0]:
            batch = step.batch(int(i))
            service[i] = float(metric.distances_to(serving[i], batch.points).sum())
        return service
    if step.points is not None:
        diff = step.points - serving[:, None, :]
        return np.sqrt(np.einsum("brd,brd->br", diff, diff)).sum(axis=1)
    service = np.zeros(B)
    if not np.any(step.counts):
        return service
    for i in np.nonzero(step.counts)[0]:
        batch = step.batch(int(i))
        diff = batch.points - serving[i]
        service[i] = np.sqrt(np.einsum("ij,ij->i", diff, diff)).sum()
    return service


def advance_lanes(
    algo: VectorizedAlgorithm,
    t: int | np.ndarray,
    positions: np.ndarray,
    step: BatchStepRequests,
    *,
    caps: np.ndarray,
    tol: np.ndarray,
    D: np.ndarray,
    serve_after_move: np.ndarray,
    counts_service: np.ndarray | None = None,
    metric: Metric | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One lock-step engine step over externally-held state.

    This is the per-step body of :func:`simulate_batch` — decide, validate
    against the movement cap, pick the serving position per cost model,
    and account costs — factored out so callers that *carry* state between
    steps (the streaming serve layer's :class:`~repro.serve.SessionPool`)
    perform the exact same float64 arithmetic as a full batched run.

    ``t`` is handed to ``decide_batch`` as is: the step index, or a
    ``(B,)`` array of per-lane indices for waves whose lanes are at
    different steps (the scalar adapter accepts both).

    ``counts_service`` is a ``(B,)`` bool mask of lanes whose cost model
    charges a service term (``None`` means all — the pre-``MOVEMENT_ONLY``
    behaviour).  ``metric`` selects the space; ``None`` is the exact ℓ2
    fast path.

    Returns ``(proposed, movement, service, moved)``: the ``(B, d)`` new
    positions and the three ``(B,)`` per-lane step costs.  The caller
    commits ``proposed`` (copying defensively if the algorithm may alias
    it) and accumulates the costs.
    """
    B, dim = positions.shape
    proposed = np.asarray(algo.decide_batch(t, positions, step), dtype=np.float64)
    if proposed.shape != (B, dim):
        raise ValueError(
            f"decide_batch must return shape {(B, dim)}, got {proposed.shape}"
        )
    if metric is None:
        seg = proposed - positions
        moved = row_norms(seg)
    else:
        moved = metric.batched_distances(positions, proposed)
    bad = np.nonzero(moved > tol)[0]
    if bad.size:
        lane = int(bad[0])
        raise MovementCapViolation(
            int(t[lane]) if np.ndim(t) else t, float(moved[lane]), float(caps[lane]),
            f"{algo.name}[lane {lane}]",
        )
    serving = np.where(serve_after_move[:, None], proposed, positions)
    service = _batch_service_costs(serving, step, metric=metric)
    if counts_service is not None and not counts_service.all():
        service = np.where(counts_service, service, 0.0)
    movement = D * moved
    return proposed, movement, service, moved


def simulate_batch(
    instances: Sequence[MSPInstance],
    algorithm: AlgorithmSpec,
    delta: "float | Sequence[float] | np.ndarray" = 0.0,
    *,
    fuse: bool | None = None,
    metric: "str | Metric | None" = None,
) -> BatchTrace:
    """Run one algorithm on ``B`` same-length instances in lock-step.

    Parameters
    ----------
    instances:
        Problem inputs; all must share the same length ``T`` and dimension
        ``d``.  Per-lane ``D``, ``m`` and cost models may differ freely.
    algorithm:
        A :class:`VectorizedAlgorithm`, a registry name (resolved through
        :func:`repro.algorithms.vectorized.as_vectorized`, which picks the
        algorithm's fused kernel when it has one and the scalar adapter
        otherwise), or a zero-arg scalar-algorithm factory.
    delta:
        Resource-augmentation factor: a scalar applied to every lane, or
        a ``(B,)`` per-lane sweep (what lets cross-cell mega-batching
        pack cells with different δ into one engine pass).
    fuse:
        Force the fused-kernel fast path on/off; ``None`` (default)
        follows the global :func:`repro.core.kernels.fusion_enabled`
        toggle.  The fused path engages only when the algorithm has a
        kernel, the request stack packs and every lane charges service;
        every other kernel-capable run — and every run with ``fuse``
        off — plays the scalar reference rules through
        :class:`~repro.algorithms.vectorized.ScalarBatchAdapter`.  Both
        paths produce bit-identical traces.
    metric:
        The space the runs are measured in — a registry name or
        :class:`~repro.core.metric.Metric` instance.  ``None`` (and the
        Euclidean instance) keep the exact ℓ2 hot path; any other metric
        routes registry algorithms through the scalar adapter with the
        metric injected per lane (kernels are ℓ2 only).

    Returns
    -------
    BatchTrace
        Full trajectories and per-step cost breakdowns for every lane.
    """
    from ..algorithms.vectorized import KernelAlgorithm
    from .kernels import fusion_enabled, run_fused

    if metric is not None:
        metric = get_metric(metric)
        if metric.name == "euclidean":
            metric = None  # ℓ2 fast path is bit-identical by construction
    instances = list(instances)
    if not instances:
        raise ValueError("simulate_batch needs at least one instance")
    T = instances[0].length
    dim = instances[0].dim
    for i, inst in enumerate(instances):
        if inst.length != T:
            raise ValueError(
                f"all instances must share one length: lane 0 has T={T}, "
                f"lane {i} has T={inst.length}"
            )
        if inst.dim != dim:
            raise ValueError(
                f"all instances must share one dimension: lane 0 has d={dim}, "
                f"lane {i} has d={inst.dim}"
            )
    B = len(instances)
    deltas = np.broadcast_to(np.asarray(delta, dtype=np.float64), (B,))
    caps = np.array([inst.online_cap(float(dl))
                     for inst, dl in zip(instances, deltas)])
    D = np.array([inst.D for inst in instances])
    serve_after_move = np.array(
        [inst.cost_model.serves_after_move for inst in instances], dtype=bool
    )
    counts_service = np.array(
        [inst.cost_model.counts_service for inst in instances], dtype=bool
    )
    tol = caps + cap_tolerance(caps)  # cap_tolerance broadcasts elementwise

    algo = _resolve_algorithm(algorithm, metric=metric)
    if isinstance(algo, KernelAlgorithm):
        fused = (fusion_enabled() if fuse is None else fuse) and T > 0
        big = (_packed_stack([inst.requests for inst in instances])
               if fused and counts_service.all() else None)
        if big is not None:
            m = np.array([inst.m for inst in instances])
            return run_fused(
                algo.kernel, algo.reference,
                np.stack([inst.start for inst in instances]),
                big, caps, D, m, serve_after_move, tol,
            )
        algo = algo.scalar_reference()
    algo.reset_batch(instances, caps)
    state = BatchState.initial(np.stack([inst.start for inst in instances]))
    trace = BatchTrace.allocate(B, T, dim, algorithm=algo.name)
    trace.positions[:, 0] = state.positions
    steps = _gather_steps(instances, T)

    for t in range(T):
        step = steps[t]
        proposed, movement, service, moved = advance_lanes(
            algo, t, state.positions, step,
            caps=caps, tol=tol, D=D, serve_after_move=serve_after_move,
            counts_service=counts_service, metric=metric,
        )
        trace.positions[:, t + 1] = proposed
        trace.movement_costs[:, t] = movement
        trace.service_costs[:, t] = service
        trace.distances_moved[:, t] = moved
        trace.request_counts[:, t] = step.counts
        # Commit a private copy so a decide_batch that mutates or returns
        # the positions array cannot corrupt the accounting (the same
        # defensive copy the scalar simulator makes).
        state.advance(np.array(proposed, copy=True), movement, service, moved)
    return trace
