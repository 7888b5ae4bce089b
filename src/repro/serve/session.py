"""One engine lane as a long-lived, incrementally-fed session.

A :class:`SessionSpec` is the wire-format description of a lane — enough
to rebuild the exact :class:`~repro.core.instance.MSPInstance` the batch
engine would run, which is what makes streamed results checkable against
:func:`repro.api.run` after the fact.  An :class:`OnlineSession` then
carries the live lane: the request steps fed so far, the current server
position, per-step cost records bit-identical to a
:class:`~repro.core.engine.BatchTrace` row, and the opaque carried
decision state exported by the algorithm between ticks.

Sessions never advance themselves — :class:`~repro.serve.pool.SessionPool`
packs pending steps of compatible sessions into wide
:func:`~repro.core.engine.advance_lanes` calls and commits the results
back here.  That split keeps this module free of engine and algorithm
code (specs only check algorithm names against the registry) and makes
a session trivially serializable: its durable identity is ``(spec,
request history)``; everything else is deterministic replay.
The session folds each committed step into a running stream digest, so
reading it never rehashes the history.
"""

from __future__ import annotations

import hashlib
import math
from collections import deque
from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from ..core.costs import CostModel
from ..core.metric import as_points
from ..core.instance import MSPInstance
from ..core.requests import RequestSequence
from ..core.trace import Trace

__all__ = ["OnlineSession", "SessionSpec", "request_stream_digest"]


def _stream_hasher(dim: int):
    return hashlib.sha256(b"dim=%d" % int(dim))


def _hash_step(h, arr: np.ndarray) -> None:
    """Fold one float64 step of at least one dimension into ``h``."""
    h.update(b"|%d" % len(arr))
    h.update(arr.tobytes())


def request_stream_digest(batches: Iterable[np.ndarray], dim: int) -> str:
    """SHA-256 over a request stream's exact float64 contents.

    Two streams digest equally iff they have the same per-step counts and
    bit-identical coordinates — the identity used to assert that a resumed
    session completed the *same* trace an uninterrupted run would have.
    :meth:`OnlineSession.stream_digest` folds the same bytes in step by
    step; this whole-stream form verifies checkpoints on load.
    """
    h = _stream_hasher(dim)
    for pts in batches:
        _hash_step(h, np.ascontiguousarray(pts, dtype=np.float64))
    return h.hexdigest()


@dataclass(frozen=True)
class SessionSpec:
    """Durable description of one serve lane.

    Attributes mirror :class:`~repro.core.instance.MSPInstance` plus the
    online knobs: ``delta`` (resource augmentation) and the algorithm
    selection.  ``algorithm_params`` is a sorted tuple of ``(name, value)``
    pairs so specs hash, compare and JSON-round-trip deterministically.
    """

    algorithm: str
    dim: int
    start: tuple
    D: float = 1.0
    m: float = 1.0
    cost_model: str = "move-first"
    delta: float = 0.0
    algorithm_params: tuple = ()
    metric: str = "euclidean"

    def __post_init__(self) -> None:
        from ..algorithms.registry import ALGORITHMS
        from ..core.metric import METRICS

        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        for name in ("D", "m", "delta"):
            if not math.isfinite(float(getattr(self, name))):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.metric not in METRICS:
            raise ValueError(
                f"metric must be one of {tuple(sorted(METRICS))}, got {self.metric!r}")
        if int(self.dim) <= 0:
            raise ValueError(f"dim must be positive, got {self.dim}")
        object.__setattr__(self, "dim", int(self.dim))
        start = tuple(float(x) for x in self.start)
        if len(start) != self.dim:
            raise ValueError(
                f"start has dimension {len(start)}, spec says dim={self.dim}"
            )
        object.__setattr__(self, "start", start)
        CostModel(self.cost_model)  # raises on unknown value
        if float(self.delta) < 0.0:
            raise ValueError(f"delta must be non-negative, got {self.delta}")
        params = self.algorithm_params
        if isinstance(params, Mapping):
            params = params.items()
        object.__setattr__(
            self,
            "algorithm_params",
            tuple(sorted((str(k), v) for k, v in params)),
        )

    # -- derived views ---------------------------------------------------

    @property
    def cost_model_enum(self) -> CostModel:
        return CostModel(self.cost_model)

    @property
    def group_key(self) -> tuple:
        """Sessions sharing this key may ride one cross-lane engine wave."""
        return (self.algorithm, self.algorithm_params, self.dim, self.cost_model,
                self.metric)

    def algorithm_kwargs(self) -> dict:
        return dict(self.algorithm_params)

    def proto_instance(self) -> MSPInstance:
        """A zero-step instance carrying this spec's ``D``/``m``/cost model.

        ``reset_batch`` reads per-lane parameters off instances; the serve
        layer hands it these protos so a streamed lane binds exactly like
        a batch lane would.
        """
        return MSPInstance(
            requests=RequestSequence([], dim=self.dim),
            start=np.array(self.start, dtype=np.float64),
            D=self.D,
            m=self.m,
            cost_model=self.cost_model_enum,
        )

    def instance(self, history: Sequence[np.ndarray]) -> MSPInstance:
        """The batch-engine instance over an explicit request history."""
        return MSPInstance(
            requests=RequestSequence(list(history), dim=self.dim),
            start=np.array(self.start, dtype=np.float64),
            D=self.D,
            m=self.m,
            cost_model=self.cost_model_enum,
        )

    @property
    def cap(self) -> float:
        """Online movement cap :math:`(1+\\delta) m` — the engine's formula."""
        return self.proto_instance().online_cap(float(self.delta))

    # -- wire format -----------------------------------------------------

    def to_dict(self) -> dict:
        # metric is omitted at its default so pre-metric spec payloads
        # (and their hashes) are reproduced byte-for-byte.
        payload = {
            "algorithm": self.algorithm,
            "dim": self.dim,
            "start": list(self.start),
            "D": self.D,
            "m": self.m,
            "cost_model": self.cost_model,
            "delta": self.delta,
            "algorithm_params": {k: v for k, v in self.algorithm_params},
        }
        if self.metric != "euclidean":
            payload["metric"] = self.metric
        return payload

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SessionSpec":
        known = {
            "algorithm", "dim", "start", "D", "m",
            "cost_model", "delta", "algorithm_params", "metric",
        }
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown SessionSpec fields: {sorted(unknown)}")
        if "algorithm" not in data or "dim" not in data or "start" not in data:
            raise ValueError("SessionSpec needs at least algorithm, dim and start")
        return cls(
            algorithm=str(data["algorithm"]),
            dim=int(data["dim"]),
            start=tuple(data["start"]),
            D=float(data.get("D", 1.0)),
            m=float(data.get("m", 1.0)),
            cost_model=str(data.get("cost_model", "move-first")),
            delta=float(data.get("delta", 0.0)),
            algorithm_params=tuple(sorted(dict(data.get("algorithm_params", {})).items())),
            metric=str(data.get("metric", "euclidean")),
        )


class OnlineSession:
    """The live state of one streamed lane.

    ``feed`` enqueues request steps; the pool drains the queue through the
    engine and calls :meth:`commit_step` with the lane's row of each wave.
    All committed records reproduce a batch run of :meth:`instance`
    bit-for-bit — per-step costs, positions, carried decision state.
    """

    def __init__(self, spec: SessionSpec, session_id: str) -> None:
        self.spec = spec
        self.session_id = str(session_id)
        self.proto_instance = spec.proto_instance()
        self.position = np.array(spec.start, dtype=np.float64)
        self.steps = 0
        self.history: list[np.ndarray] = []
        self._digest = _stream_hasher(spec.dim)
        self.pending: deque[np.ndarray] = deque()
        #: Opaque per-lane decision state (``export_lane_states`` entry);
        #: ``None`` until the first committed step.  In-process only.
        self.lane_state: Any = None
        self.closed = False
        #: Trace label; the pool stamps the bound algorithm's ``name``.
        self.algorithm_label = spec.algorithm
        self._positions: list[np.ndarray] = []
        self._movement: list[float] = []
        self._service: list[float] = []
        self._distance: list[float] = []

    # -- ingestion -------------------------------------------------------

    @property
    def next_index(self) -> int:
        """Index of the step the next fed batch will occupy."""
        return self.steps + len(self.pending)

    def feed(self, points: Any, at: int | None = None) -> bool:
        """Enqueue the requests of one step; returns whether it was new.

        ``at`` is the client's step index for the batch, a non-negative
        integer.  Re-feeding an index the session has already seen with
        the same requests is a no-op returning ``False`` — that
        idempotency is what lets a client blindly replay its stream after
        a server crash, regardless of where the checkpoint landed.
        Re-feeding it with different requests, or feeding beyond
        :attr:`next_index` (a gap), is an error.
        """
        if self.closed:
            raise RuntimeError(f"session {self.session_id!r} is closed")
        if at is None:
            at = self.next_index
        elif isinstance(at, bool) or not isinstance(at, (int, np.integer)) or at < 0:
            raise ValueError(
                f"session {self.session_id!r}: 'at' must be a non-negative "
                f"integer step index, got {at!r}"
            )
        at = int(at)
        pts = as_points(points, dim=self.spec.dim) if points is not None \
            else np.empty((0, self.spec.dim))
        if at < self.next_index:
            seen = self.history[at] if at < self.steps else self.pending[at - self.steps]
            if seen.shape != pts.shape or seen.tobytes() != pts.tobytes():
                raise ValueError(
                    f"session {self.session_id!r}: step {at} was already fed "
                    "with different requests"
                )
            return False
        if at > self.next_index:
            raise ValueError(
                f"session {self.session_id!r}: feed at step {at} leaves a gap "
                f"(next expected step is {self.next_index})"
            )
        self.pending.append(pts)
        return True

    def feed_steps(self, steps: Iterable[Any], at: int | None = None) -> int:
        """Enqueue several consecutive steps; returns how many were new."""
        applied = 0
        index = at
        for points in steps:
            if self.feed(points, at=index):
                applied += 1
            if index is not None:
                index += 1
        return applied

    # -- engine commit (called by the pool) ------------------------------

    def commit_step(
        self,
        position: np.ndarray,
        movement: float,
        service: float,
        distance: float,
        lane_state: Any,
    ) -> None:
        """Record one validated engine step for this lane."""
        points = self.pending.popleft()
        self.history.append(points)
        _hash_step(self._digest, points)
        self.position = position
        self._positions.append(position)
        self._movement.append(float(movement))
        self._service.append(float(service))
        self._distance.append(float(distance))
        self.lane_state = lane_state
        self.steps += 1

    # -- read-side views -------------------------------------------------

    @property
    def movement_cost(self) -> float:
        return float(np.asarray(self._movement, dtype=np.float64).sum())

    @property
    def service_cost(self) -> float:
        return float(np.asarray(self._service, dtype=np.float64).sum())

    @property
    def total_cost(self) -> float:
        return self.movement_cost + self.service_cost

    def state(self) -> dict:
        """JSON-able snapshot of the lane (the ``state`` protocol reply)."""
        return {
            "session": self.session_id,
            "algorithm": self.spec.algorithm,
            "steps": self.steps,
            "pending": len(self.pending),
            "closed": self.closed,
            "position": [float(x) for x in self.position],
            "movement_cost": self.movement_cost,
            "service_cost": self.service_cost,
            "total_cost": self.total_cost,
        }

    def trace(self) -> Trace:
        """Committed steps as an ordinary :class:`~repro.core.trace.Trace`.

        Bit-identical to ``simulate_batch([self.instance()], ...).trace(0)``
        — the parity suite holds the serve layer to exactly that.
        """
        T = self.steps
        positions = np.empty((T + 1, self.spec.dim), dtype=np.float64)
        positions[0] = np.array(self.spec.start, dtype=np.float64)
        for t, pos in enumerate(self._positions):
            positions[t + 1] = pos
        return Trace(
            positions=positions,
            movement_costs=np.asarray(self._movement, dtype=np.float64),
            service_costs=np.asarray(self._service, dtype=np.float64),
            distances_moved=np.asarray(self._distance, dtype=np.float64),
            request_counts=np.asarray(
                [p.shape[0] for p in self.history], dtype=np.int64
            ),
            algorithm=self.algorithm_label,
        )

    def instance(self) -> MSPInstance:
        """The batch-engine instance equivalent to the steps committed so far."""
        return self.spec.instance(self.history)

    def stream_digest(self) -> str:
        """Digest of the committed request stream (see :func:`request_stream_digest`)."""
        return self._digest.copy().hexdigest()

    def final_payload(self) -> dict:
        """The content-addressed result payload saved when a session closes."""
        trace = self.trace()
        return {
            "session": self.session_id,
            "spec": self.spec.to_dict(),
            "steps": self.steps,
            "stream_digest": self.stream_digest(),
            "algorithm": self.algorithm_label,
            "positions": trace.positions,
            "movement_costs": trace.movement_costs,
            "service_costs": trace.service_costs,
            "distances_moved": trace.distances_moved,
            "request_counts": trace.request_counts,
            "movement_cost": self.movement_cost,
            "service_cost": self.service_cost,
            "total_cost": self.total_cost,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"OnlineSession({self.session_id!r}, alg={self.spec.algorithm!r}, "
            f"steps={self.steps}, pending={len(self.pending)})"
        )
