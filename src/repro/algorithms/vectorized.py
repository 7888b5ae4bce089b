"""Batched forms of the online algorithms.

Every registry algorithm runs under :func:`repro.core.engine.simulate_batch`
in one of two batched forms:

* its fused step kernel (:data:`repro.core.kernels.KERNELS`), wrapped
  here as :class:`KernelAlgorithm`.  The engine hands packed ℓ2 request
  stacks straight to :func:`~repro.core.kernels.run_fused`; serve waves
  step the same kernel one step at a time through
  :meth:`KernelAlgorithm.decide_batch`;
* :class:`ScalarBatchAdapter`, which plays one scalar
  :class:`~repro.algorithms.base.OnlineAlgorithm` per lane.  It is the
  paper-faithful reference: every algorithm without a kernel, and every
  kernel-capable run the kernel cannot take (ragged stacks, non-ℓ2
  metrics, movement-only lanes, fusion switched off), goes through it.
  ``coin-flip`` has no kernel: each lane's copy draws from its own RNG
  stream, one draw per step with requests.

:func:`as_vectorized` resolves a registry name (or scalar factory) to the
batched form registered in :data:`VECTORIZED`, the adapter otherwise.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, Sequence

import numpy as np

from ..core.engine import BatchStepRequests, VectorizedAlgorithm
from ..core.instance import MSPInstance
from ..core.kernels import KERNELS, KernelContext, kernel_for
from .base import OnlineAlgorithm
from .registry import ALGORITHMS

__all__ = [
    "VECTORIZED",
    "KernelAlgorithm",
    "ScalarBatchAdapter",
    "as_vectorized",
    "make_vectorized",
]


class ScalarBatchAdapter(VectorizedAlgorithm):
    """Run any scalar algorithm under the batched engine, one copy per lane.

    The adapter owns ``B`` independent algorithm objects built from
    ``factory`` and forwards each lane's requests to its own copy, keeping
    the scalar ``position`` attribute in sync with the engine's state.
    Results are bit-identical to ``B`` separate scalar runs by
    construction; the engine still amortizes trace allocation, move
    validation and cost accounting across lanes.
    """

    def __init__(self, factory: Callable[[], OnlineAlgorithm], name: str | None = None) -> None:
        super().__init__()
        self._factory = factory
        self._algorithms: list[OnlineAlgorithm] = []
        #: Metric injected into every lane algorithm before reset; ``None``
        #: leaves each algorithm's Euclidean default untouched.
        self.metric = None
        if name is not None:
            self.name = name

    def reset_batch(self, instances: Sequence[MSPInstance], caps: np.ndarray) -> None:
        super().reset_batch(instances, caps)
        self._algorithms = [self._factory() for _ in self.instances]
        for alg, inst, cap in zip(self._algorithms, self.instances, self.caps):
            if self.metric is not None:
                alg.metric = self.metric
            alg.reset(inst, float(cap))
        if self._algorithms:
            self.name = self._algorithms[0].name

    def decide_batch(
        self, t: int, positions: np.ndarray, step: BatchStepRequests
    ) -> np.ndarray:
        out = np.empty_like(positions)
        for i, alg in enumerate(self._algorithms):
            out[i] = alg.decide(t, step.batch(i))
            # The scalar simulator updates ``position`` after validating the
            # move; the engine validates the whole batch afterwards, so sync
            # here with a private copy the algorithm cannot alias.
            alg.position = np.array(out[i], dtype=np.float64, copy=True)
        return out

    def export_lane_states(self) -> list:
        # The scalar algorithm object *is* the lane state: carrying it
        # across batch recompositions preserves every internal attribute.
        return list(self._algorithms)

    def import_lane_states(self, states) -> None:
        if len(states) != self.batch_size:
            raise ValueError(f"expected {self.batch_size} lane states, got {len(states)}")
        self._algorithms = [
            fresh if carried is None else carried
            for fresh, carried in zip(self._algorithms, states)
        ]


class KernelAlgorithm(VectorizedAlgorithm):
    """A registry algorithm whose batched form is its fused step kernel.

    ``name`` is the registry name the kernel is bound to in
    :data:`~repro.core.kernels.KERNELS`; ``factory`` builds the scalar
    algorithm the kernel replays.  One scalar instance, :attr:`reference`,
    supplies the variant parameters the kernel reads and the trace label.

    :func:`~repro.core.engine.simulate_batch` runs packed ℓ2 stacks
    through :func:`~repro.core.kernels.run_fused` and every other run
    through :meth:`scalar_reference`.  :meth:`decide_batch` steps the
    kernel at block size ``K = 1`` — the serve layer's cross-lane waves,
    where every lane has the same request count (possibly zero).  The
    kernel's state arrays export and import by lane row, so a lane
    stepped under changing wave compositions decides bit-identically.
    Kernels with the ``"stack"`` layout pool earlier steps, which a
    one-step wave does not carry, so they cannot be stepped this way.
    """

    def __init__(self, name: str, factory: Callable[[], OnlineAlgorithm]) -> None:
        super().__init__()
        kernel = kernel_for(name)
        if kernel is None:
            raise KeyError(f"no fused kernel is registered for {name!r}")
        self.kernel = kernel
        self._factory = factory
        self.reference = factory()
        self.name = self.reference.name
        self._advance: Callable | None = None
        self._state: Dict[str, np.ndarray] = {}

    def scalar_reference(self) -> ScalarBatchAdapter:
        """The scalar algorithms behind this kernel, one per lane."""
        return ScalarBatchAdapter(self._factory, name=self.name)

    def reset_batch(self, instances: Sequence[MSPInstance], caps: np.ndarray) -> None:
        super().reset_batch(instances, caps)
        ctx = KernelContext(
            algorithm=self.reference, caps=self.caps, D=self.D,
            m=np.array([inst.m for inst in self.instances], dtype=np.float64),
            dim=self.instances[0].dim,
        )
        self._advance = self.kernel.build(ctx)
        self._state = ctx.state

    def decide_batch(
        self, t: int, positions: np.ndarray, step: BatchStepRequests
    ) -> np.ndarray:
        layout = self.kernel.layout
        if layout == "stack":
            raise TypeError(
                f"{self.name!r} pools requests of earlier steps, so its kernel "
                "cannot be stepped one step at a time; use scalar_reference()"
            )
        B, d = positions.shape
        if step.points is not None:
            points = step.points
        elif not np.any(step.counts):
            points = np.empty((B, 0, d))
        else:
            raise ValueError(
                "a kernel steps uniform waves: every lane needs the same request count"
            )
        if layout == "time_major":
            block = np.ascontiguousarray(points.transpose(1, 0, 2))[None]
        else:
            block = points[:, None]
        out = np.empty((1, B, d))
        self._advance(out, positions, block, t)
        return out[0]

    def export_lane_states(self) -> list:
        if not self._state:  # stateless kernel
            return [None] * self.batch_size
        return [{key: arr[i].copy() for key, arr in self._state.items()}
                for i in range(self.batch_size)]

    def import_lane_states(self, states) -> None:
        if len(states) != self.batch_size:
            raise ValueError(f"expected {self.batch_size} lane states, got {len(states)}")
        # ``None`` is a fresh lane, whose state is all zeros.
        for key, arr in self._state.items():
            for i, carried in enumerate(states):
                arr[i] = 0 if carried is None else carried[key]


#: Registry names with a batched form — every kernel-bound name; everything
#: else resolves to :class:`ScalarBatchAdapter`.
VECTORIZED: Dict[str, Callable[[], VectorizedAlgorithm]] = {
    name: partial(KernelAlgorithm, name, ALGORITHMS[name]) for name in KERNELS
}


def make_vectorized(name: str, metric=None) -> VectorizedAlgorithm:
    """The batched form of a registry algorithm.

    The :data:`VECTORIZED` entry when ``name`` has one, otherwise the
    scalar algorithm wrapped in :class:`ScalarBatchAdapter`.  Under a
    non-Euclidean ``metric`` the entries are skipped — kernels hardcode
    ℓ2 — and every algorithm runs through the adapter with the metric
    injected per lane.
    """
    non_euclidean = metric is not None and metric.name != "euclidean"
    if name in VECTORIZED and not non_euclidean:
        return VECTORIZED[name]()
    try:
        factory = ALGORITHMS[name]
    except KeyError:
        raise KeyError(
            f"unknown algorithm {name!r}; available: {', '.join(sorted(ALGORITHMS))}"
        ) from None
    adapter = ScalarBatchAdapter(factory, name=name)
    if non_euclidean:
        adapter.metric = metric
    return adapter


def as_vectorized(
    algorithm: VectorizedAlgorithm | str | Callable[[], OnlineAlgorithm],
    metric=None,
) -> VectorizedAlgorithm:
    """Coerce an algorithm spec to a :class:`VectorizedAlgorithm`.

    Accepts an already-batched algorithm (returned as is), a registry name
    (resolved via :func:`make_vectorized`), or a zero-arg factory of scalar
    algorithms (wrapped in the adapter).  A scalar algorithm *instance* is
    rejected: one stateful object cannot serve ``B`` lanes — pass its class
    or a factory instead.
    """
    if isinstance(algorithm, VectorizedAlgorithm):
        return algorithm
    if isinstance(algorithm, str):
        return make_vectorized(algorithm, metric=metric)
    if isinstance(algorithm, OnlineAlgorithm):
        raise TypeError(
            f"cannot batch the scalar algorithm instance {algorithm!r}: one stateful "
            "object cannot play several lanes — pass its class or a zero-arg factory"
        )
    if callable(algorithm):
        adapter = ScalarBatchAdapter(algorithm)
        if metric is not None and metric.name != "euclidean":
            adapter.metric = metric
        return adapter
    raise TypeError(f"cannot interpret {algorithm!r} as a batched algorithm")
