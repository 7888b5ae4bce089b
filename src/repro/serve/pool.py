"""Cross-lane tick loop over live sessions.

The pool is the serve layer's engine room: every tick it groups sessions
that have a pending step and share ``(algorithm, params, dim, cost_model)``,
packs each group into wide :func:`~repro.core.engine.advance_lanes`
calls — the exact per-step body of ``simulate_batch`` — and commits each
lane's row back to its session.  Kernel-capable groups
(:func:`poolable`) step the fused kernel at block size ``K = 1``
(:class:`~repro.algorithms.vectorized.KernelAlgorithm`), one wave per
request count; every other group is one scalar-adapter wave.

Bit-parity licensing
--------------------

A streamed lane must reproduce a standalone batch run of the same
instance bit-for-bit.  Three properties make cross-lane packing safe:

* the engine's arithmetic is row-wise (``einsum`` norms, per-row clamp,
  per-row service sums), so a lane's floats never depend on its batch
  neighbours — the same licensing the mega-batcher relies on;
* every poolable algorithm's decision is independent of the step index
  ``t`` and of the batch composition given carried per-lane state, which
  sessions import/export around each wave
  (:meth:`~repro.core.engine.VectorizedAlgorithm.export_lane_states`);
* kernel waves are sub-grouped by per-step request count ``r``, so every
  lane of a wave sees a uniformly packed ``(B, r, d)`` (or all-empty)
  step — the only shape a kernel steps.

Scalar-adapter lanes (algorithms without a kernel such as ``coin-flip``,
kernels that pool earlier steps, or constructor parameters) may consume
``t``, and their waves may be ragged.  The adapter plays one scalar
algorithm object per lane, so neither matters: the wave hands it each
lane's own step index and each lane's own requests.  With fusion
disabled (``--no-fuse`` / :func:`~repro.core.kernels.fusion_enabled`),
*all* groups take that adapter path through the scalar reference
rules — bit-identical, just slower.

The carried object of an adapter lane is the scalar algorithm itself,
and it decides in place.  A wave that raises after some of its lanes
decided (a cap violation, or a request the metric rejects) therefore
rebuilds every lane's object by replaying its committed history, so no
lane keeps the uncommitted step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..algorithms.registry import make_algorithm
from ..algorithms.vectorized import VECTORIZED, ScalarBatchAdapter
from ..core.engine import BatchStepRequests, VectorizedAlgorithm, advance_lanes
from ..core.kernels import fusion_enabled, kernel_for
from ..core.metric import Metric, get_metric
from ..core.requests import RequestBatch
from ..core.validation import cap_tolerance
from .session import OnlineSession, SessionSpec

__all__ = ["SessionPool", "poolable"]

#: Cap on cached kernel-wave runtimes before a full rebuild; membership
#: churn (sessions opening/closing, request counts shifting between
#: sub-waves) creates new compositions, and rebinding is cheap relative
#: to leaking.
_RUNTIME_CACHE_LIMIT = 64


def poolable(spec: SessionSpec) -> bool:
    """Whether lanes of this spec step fused-kernel waves.

    True for parameter-free algorithms with a fused kernel under the
    default metric — those decide independently of ``t`` and of batch
    composition (given carried lane state).  Kernels with the
    ``"stack"`` layout (``lazy``, ``move-to-min``) pool requests of
    earlier steps, which a one-step wave does not carry.  Everything
    else (including every non-euclidean lane: kernels hardcode ℓ2) runs
    through the scalar adapter.
    """
    kernel = kernel_for(spec.algorithm)
    return (spec.algorithm in VECTORIZED and not spec.algorithm_params
            and spec.metric == "euclidean"
            and (kernel is None or kernel.layout != "stack"))


def _spec_metric(spec: SessionSpec) -> Metric | None:
    """The lane's metric instance; ``None`` keeps the exact ℓ2 hot path."""
    return None if spec.metric == "euclidean" else get_metric(spec.metric)


def _build_algorithm(spec: SessionSpec, kernel: bool) -> VectorizedAlgorithm:
    """A wave's fused kernel, or its per-lane scalar reference."""
    if kernel:
        return VECTORIZED[spec.algorithm]()
    kwargs = spec.algorithm_kwargs()
    adapter = ScalarBatchAdapter(lambda: make_algorithm(spec.algorithm, **kwargs))
    adapter.metric = _spec_metric(spec)
    return adapter


class _OneStep:
    """Single-step request-sequence stand-in for :class:`BatchStepRequests`."""

    __slots__ = ("_batch",)

    def __init__(self, points: np.ndarray) -> None:
        self._batch = RequestBatch(points)

    def __getitem__(self, t: int) -> RequestBatch:
        return self._batch


@dataclass
class _WaveRuntime:
    """One bound wave composition: algorithm plus per-lane engine arrays."""

    algo: VectorizedAlgorithm
    caps: np.ndarray
    tol: np.ndarray
    D: np.ndarray
    serve_after_move: np.ndarray
    counts_service: np.ndarray
    metric: "Metric | None"


class SessionPool:
    """Owns live sessions and advances them through shared engine waves.

    Parameters
    ----------
    fuse:
        Force cross-lane wave packing on/off; ``None`` (default) follows
        the global :func:`~repro.core.kernels.fusion_enabled` toggle at
        construction — the same switch the CLI's ``--no-fuse`` flips.
        The choice is fixed for the pool's lifetime, because a lane's
        carried state belongs to the form (wave or scalar) that made it.
    """

    def __init__(self, *, fuse: bool | None = None) -> None:
        #: Whether poolable lanes are packed into multi-lane waves.
        self.wide = fusion_enabled() if fuse is None else bool(fuse)
        self.sessions: dict[str, OnlineSession] = {}
        self._wave_runtimes: dict[tuple, _WaveRuntime] = {}
        self._seq = 0

    def __len__(self) -> int:
        return len(self.sessions)

    # -- session lifecycle -----------------------------------------------

    def open(self, spec: SessionSpec, session_id: str | None = None) -> OnlineSession:
        if session_id is None:
            self._seq += 1
            session_id = f"s{self._seq}"
        session_id = str(session_id)
        if session_id in self.sessions:
            raise ValueError(f"session {session_id!r} is already open")
        session = OnlineSession(spec, session_id)
        self.sessions[session_id] = session
        return session

    def get(self, session_id: str) -> OnlineSession:
        try:
            return self.sessions[session_id]
        except KeyError:
            raise KeyError(f"no open session {session_id!r}") from None

    def feed(self, session_id: str, points, at: int | None = None) -> bool:
        return self.get(session_id).feed(points, at=at)

    def close(self, session_id: str) -> OnlineSession:
        """Drain a session's queue, mark it closed and release it."""
        session = self.get(session_id)
        while session.pending:
            self.tick()
        session.closed = True
        del self.sessions[session_id]
        self._wave_runtimes = {
            key: rt for key, rt in self._wave_runtimes.items()
            if session_id not in key[1]
        }
        return session

    # -- the tick loop ---------------------------------------------------

    def tick(self) -> int:
        """Advance every session with a pending step by exactly one step.

        Returns the number of lanes advanced.  A
        :class:`~repro.core.validation.MovementCapViolation` (or any
        other error) in a wave aborts that wave before any of its lanes
        commit (the batch engine's semantics) and leaves every lane's
        carried state as it was; groups that ran earlier in the tick
        keep their step, so callers should treat a violation as fatal
        for the offending session and re-tick.
        """
        groups: dict[tuple, list[OnlineSession]] = {}
        for session in self.sessions.values():
            if session.pending:
                groups.setdefault(session.spec.group_key, []).append(session)
        advanced = 0
        wide = self.wide
        for lanes in groups.values():
            if wide and poolable(lanes[0].spec):
                # Sub-group by this step's request count so each wave is
                # uniformly packed (or uniformly empty) — see the module
                # docstring's parity licensing.
                sub_waves: dict[int, list[OnlineSession]] = {}
                for session in lanes:
                    r = int(session.pending[0].shape[0])
                    sub_waves.setdefault(r, []).append(session)
                for sub in sub_waves.values():
                    self._advance_wave(sub, kernel=True)
            else:
                self._advance_wave(lanes, kernel=False)
            advanced += len(lanes)
        return advanced

    def drain(self) -> int:
        """Tick until no session has pending steps; returns lanes advanced."""
        advanced = 0
        while True:
            n = self.tick()
            if n == 0:
                return advanced
            advanced += n

    # -- wave internals --------------------------------------------------

    def _bind(self, sessions: Sequence[OnlineSession], kernel: bool) -> _WaveRuntime:
        """Build the engine-side arrays and algorithm for one composition.

        Mirrors ``simulate_batch``'s prologue exactly: per-lane caps via
        ``online_cap``, ``D`` and the cost-model mask off the instances,
        ``tol = caps + cap_tolerance(caps)``.
        """
        algo = _build_algorithm(sessions[0].spec, kernel)
        instances = [s.proto_instance for s in sessions]
        caps = np.array(
            [inst.online_cap(float(s.spec.delta)) for s, inst in zip(sessions, instances)],
            dtype=np.float64,
        )
        algo.reset_batch(instances, caps)
        return _WaveRuntime(
            algo=algo,
            caps=caps,
            tol=caps + cap_tolerance(caps),
            D=np.array([inst.D for inst in instances], dtype=np.float64),
            serve_after_move=np.array(
                [inst.cost_model.serves_after_move for inst in instances], dtype=bool
            ),
            counts_service=np.array(
                [inst.cost_model.counts_service for inst in instances], dtype=bool
            ),
            metric=_spec_metric(sessions[0].spec),
        )

    def _runtime_for(self, sessions: Sequence[OnlineSession], kernel: bool) -> _WaveRuntime:
        if not kernel:
            # Adapter lanes carry their own algorithm objects and the
            # adapter builds only the fresh ones, so binding per wave is
            # cheap, and lane sets that change every tick (staggered
            # feeds) never churn the kernel runtimes out of the cache.
            return self._bind(sessions, kernel)
        # A kernel wave's form follows from its group key, so the
        # composition alone keys its runtime.
        key = (sessions[0].spec.group_key, tuple(s.session_id for s in sessions))
        runtime = self._wave_runtimes.get(key)
        if runtime is None:
            if len(self._wave_runtimes) >= _RUNTIME_CACHE_LIMIT:
                self._wave_runtimes.clear()
            runtime = self._bind(sessions, kernel)
            self._wave_runtimes[key] = runtime
        return runtime

    def _advance_wave(
        self, sessions: Sequence[OnlineSession], kernel: bool
    ) -> None:
        runtime = self._runtime_for(sessions, kernel)
        algo = runtime.algo
        # Sessions own the truth of their lane's decision state; the
        # (possibly recomposed) algorithm instance is rehydrated per wave.
        algo.import_lane_states([s.lane_state for s in sessions])
        positions = np.stack([s.position for s in sessions])
        pts = [s.pending[0] for s in sessions]
        counts = np.array([p.shape[0] for p in pts], dtype=np.int64)
        r = int(counts[0])
        packed = np.stack(pts) if r > 0 and bool(np.all(counts == r)) else None
        step = BatchStepRequests([_OneStep(p) for p in pts], 0, counts, packed)
        # Waves may mix sessions at different step indices, so each lane
        # gets its own.  Kernels never read ``t`` (part of the poolable()
        # contract); the scalar adapter hands each lane its index.
        t = np.array([s.steps for s in sessions])
        try:
            proposed, movement, service, moved = advance_lanes(
                algo, t, positions, step,
                caps=runtime.caps, tol=runtime.tol,
                D=runtime.D, serve_after_move=runtime.serve_after_move,
                counts_service=runtime.counts_service, metric=runtime.metric,
            )
        except Exception:
            # No lane commits.  A kernel lane's carried state is a copy of
            # its rows, so the sessions still hold their pre-wave state;
            # an adapter lane's object may have decided in place and is
            # rebuilt from its history.
            if not kernel:
                for session in sessions:
                    session.lane_state = _replayed_lane_state(session)
            raise
        states = algo.export_lane_states()
        for i, session in enumerate(sessions):
            session.algorithm_label = algo.name
            session.commit_step(
                np.array(proposed[i], copy=True),
                movement[i], service[i], moved[i],
                states[i],
            )


def _replayed_lane_state(session: OnlineSession) -> object:
    """An adapter lane's carried object after exactly its committed steps.

    Replays the session's history through a fresh single-lane pool of
    adapter waves — the deterministic replay a checkpoint resume uses —
    so the rebuilt object is bit-identical to the one it replaces.
    """
    replay = SessionPool(fuse=False)
    shadow = replay.open(session.spec)
    shadow.feed_steps(session.history, at=0)
    replay.drain()
    return shadow.lane_state
