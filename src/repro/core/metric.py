"""The :class:`Metric` abstraction — one engine, many spaces.

The Mobile Server Problem is stated over arbitrary metric spaces; this
module is where the engine meets that generality.  A :class:`Metric`
bundles the operations a simulation needs — ``distance``,
``distances_to``, geodesic ``move_towards`` / ``clamp_step``,
``interpolate`` — plus their batched ``(B, d)`` counterparts for the
lock-step engine.  The fused :mod:`repro.core.kernels` paths are ℓ2-only:
:func:`repro.core.engine.simulate_batch` runs them for the Euclidean
metric alone, and every other metric falls back to the reference loop.

Three families are registered:

``euclidean``
    ℓ2 — the fast default.  Its methods delegate to the module-level
    functions below, so the code path of every existing experiment is
    bit-identical.
``l1`` / ``linf``
    Minkowski norms.  Straight lines are geodesics in any normed space,
    so ``move_towards`` is the same scaled segment walk with the norm
    swapped.
``graph``
    Weighted-graph shortest path over a
    :class:`repro.pagemigration.graph.MigrationNetwork`, with
    precomputed all-pairs tables and *edge-interpolated* server
    positions: a point is a ``(u, v, t)`` triple — fraction ``t`` along
    edge ``(u, v)`` — encoded as a 3-vector so graph instances flow
    through the same ``float64`` arrays as Euclidean ones.  Node ``j``
    is ``(j, j, 0)``.

Scalar-vs-batched bit parity is part of the contract: every batched
method performs the exact same float64 arithmetic per row as its scalar
counterpart (see ``tests/test_metric.py``).

The module-level Euclidean helpers (:func:`distance`,
:func:`move_towards`, :func:`row_norms`, …) are importable directly —
they are the engine's hot path and the arithmetic reference the batched
engine's bit-parity contract is written against.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Sequence

import numpy as np

__all__ = [
    "EPS",
    "EuclideanMetric",
    "GraphMetric",
    "METRICS",
    "Metric",
    "MinkowskiMetric",
    "as_point",
    "as_points",
    "available_metrics",
    "batched_move_towards",
    "bounding_box",
    "centroid",
    "clamp_step",
    "direction",
    "distance",
    "distances_to",
    "get_metric",
    "graph_point",
    "interpolate",
    "move_towards",
    "norm",
    "pairwise_distances",
    "register_metric",
    "row_norms",
    "total_path_length",
]

#: Absolute tolerance used when validating movement-cap constraints.  The
#: simulator allows moves to exceed the cap by ``EPS * (1 + cap)`` to absorb
#: floating-point round-off in ``direction``/``move_towards`` chains.
EPS: float = 1e-9


# ---------------------------------------------------------------------------
# Module-level Euclidean primitives (the engine's ℓ2 hot path).
# Arithmetic must not change — the bit-parity contract of the batched
# engine and every golden table is written against these exact reduction
# orders.
# ---------------------------------------------------------------------------


def as_point(p: Sequence[float] | np.ndarray, dim: int | None = None) -> np.ndarray:
    """Return ``p`` as a float64 vector of shape ``(d,)``.

    Parameters
    ----------
    p:
        A scalar (treated as a 1-D point), sequence, or array.
    dim:
        If given, validate that the point has exactly this dimension.

    Raises
    ------
    ValueError
        If ``p`` is not interpretable as a single point or the dimension
        does not match ``dim``.
    """
    arr = np.asarray(p, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1:
        raise ValueError(f"expected a single point, got array of shape {arr.shape}")
    if dim is not None and arr.shape[0] != dim:
        raise ValueError(f"expected dimension {dim}, got {arr.shape[0]}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"point contains non-finite coordinates: {arr}")
    return arr


def as_points(ps: Iterable[Sequence[float]] | np.ndarray, dim: int | None = None) -> np.ndarray:
    """Return ``ps`` as a float64 batch of shape ``(r, d)``.

    A single point is promoted to a batch of one.  An empty input yields an
    array of shape ``(0, dim or 0)``.
    """
    arr = np.asarray(ps, dtype=np.float64)
    if arr.size == 0:
        d = dim if dim is not None else (arr.shape[-1] if arr.ndim == 2 else 0)
        return np.empty((0, d), dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise ValueError(f"expected a batch of points, got array of shape {arr.shape}")
    if dim is not None and arr.shape[1] != dim:
        raise ValueError(f"expected dimension {dim}, got {arr.shape[1]}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("point batch contains non-finite coordinates")
    return arr


def _sq_norm(v: np.ndarray) -> float:
    """Squared norm via ``einsum``.

    ``np.dot`` may use FMA-fused BLAS kernels whose rounding differs from
    the batched ``einsum("ij,ij->i")`` reductions by 1 ulp; routing every
    scalar norm through the same ``einsum`` contraction keeps the scalar
    and batched engines bit-for-bit identical.
    """
    return float(np.einsum("i,i->", v, v))


def norm(v: np.ndarray) -> float:
    """Euclidean norm of a vector, as a Python float."""
    return float(np.sqrt(_sq_norm(v)))


def distance(a: np.ndarray, b: np.ndarray) -> float:
    """Euclidean distance between two points."""
    d = np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)
    return float(np.sqrt(_sq_norm(d)))


def distances_to(p: np.ndarray, batch: np.ndarray) -> np.ndarray:
    """Distances from point ``p`` to each row of ``batch``; shape ``(r,)``.

    This is the hot path of request answering: one subtraction, one square,
    one reduction — no Python-level loop.
    """
    diff = batch - p
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


def pairwise_distances(batch_a: np.ndarray, batch_b: np.ndarray) -> np.ndarray:
    """All pairwise distances; shape ``(len(a), len(b))``."""
    diff = batch_a[:, None, :] - batch_b[None, :, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))


def direction(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Unit vector from ``src`` towards ``dst``; zero vector if coincident."""
    v = dst - src
    n = np.sqrt(_sq_norm(v))
    if n <= 0.0:
        return np.zeros_like(v)
    return v / n


def move_towards(src: np.ndarray, dst: np.ndarray, step: float) -> np.ndarray:
    """Move from ``src`` towards ``dst`` by at most ``step``.

    Returns ``dst`` itself (not a copy of ``src``) when the target is within
    reach, so that repeated calls converge exactly.
    """
    if step < 0.0:
        raise ValueError(f"step must be non-negative, got {step}")
    v = dst - src
    n = np.sqrt(_sq_norm(v))
    if n <= step:
        return np.array(dst, dtype=np.float64, copy=True)
    return src + (step / n) * v


#: Clamping a proposed move ``src -> dst`` to a movement cap is the same
#: operation as a bounded directed move, so ``clamp_step`` is an alias of
#: :func:`move_towards` (kept for readability at call sites that think in
#: terms of cap enforcement rather than pursuit).
clamp_step = move_towards


def row_norms(vs: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a ``(B, d)`` array; shape ``(B,)``."""
    return np.sqrt(np.einsum("ij,ij->i", vs, vs))


def batched_move_towards(src: np.ndarray, dst: np.ndarray, steps: np.ndarray | float) -> np.ndarray:
    """Row-wise :func:`move_towards` for ``(B, d)`` stacks of points.

    Each lane ``i`` moves from ``src[i]`` towards ``dst[i]`` by at most
    ``steps[i]`` (``steps`` broadcasts, so a scalar cap is fine).  Rows whose
    destination is within reach land exactly on ``dst[i]``, matching the
    scalar function's convergence guarantee; the per-row arithmetic is
    identical to the scalar path so results agree bit-for-bit.
    """
    src = np.asarray(src, dtype=np.float64)
    dst = np.asarray(dst, dtype=np.float64)
    steps = np.broadcast_to(np.asarray(steps, dtype=np.float64), src.shape[:1])
    if np.any(steps < 0.0):
        raise ValueError("steps must be non-negative")
    v = dst - src
    n = row_norms(v)
    reached = n <= steps
    safe_n = np.where(reached, 1.0, n)  # avoid 0/0 on zero-length moves
    out = src + (steps / safe_n)[:, None] * v
    out[reached] = dst[reached]
    return out


def interpolate(a: np.ndarray, b: np.ndarray, t: float) -> np.ndarray:
    """Affine interpolation ``(1 - t) * a + t * b``."""
    return (1.0 - t) * a + t * b


def total_path_length(path: np.ndarray) -> float:
    """Total Euclidean length of a polyline given as an ``(n, d)`` array."""
    path = np.asarray(path, dtype=np.float64)
    if path.ndim != 2 or path.shape[0] < 2:
        return 0.0
    seg = np.diff(path, axis=0)
    return float(np.sqrt(np.einsum("ij,ij->i", seg, seg)).sum())


def centroid(batch: np.ndarray, weights: np.ndarray | None = None) -> np.ndarray:
    """(Weighted) arithmetic mean of a batch of points."""
    batch = as_points(batch)
    if batch.shape[0] == 0:
        raise ValueError("centroid of an empty batch is undefined")
    if weights is None:
        return batch.mean(axis=0)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (batch.shape[0],):
        raise ValueError("weights must have one entry per point")
    total = weights.sum()
    if total <= 0:
        raise ValueError("weights must have positive sum")
    return (weights[:, None] * batch).sum(axis=0) / total


def bounding_box(batch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Axis-aligned bounding box ``(lo, hi)`` of a non-empty batch."""
    batch = as_points(batch)
    if batch.shape[0] == 0:
        raise ValueError("bounding box of an empty batch is undefined")
    return batch.min(axis=0), batch.max(axis=0)


# ---------------------------------------------------------------------------
# The Metric interface
# ---------------------------------------------------------------------------


class Metric:
    """Distance + geodesic operations over one space.

    Subclasses implement the scalar core (``distance``, ``move_towards``);
    the batched defaults loop per lane with identical arithmetic, and fast
    metrics override them with whole-batch array passes.  ``clamp_step``
    is the cap-enforcement alias of ``move_towards``, exactly as in the
    module-level Euclidean functions.

    Attributes
    ----------
    name:
        Registry name (``"euclidean"``, ``"l1"``, ``"linf"``, ``"graph"``).
    """

    name: str = ""

    # -- scalar core -------------------------------------------------------

    def distance(self, a: np.ndarray, b: np.ndarray) -> float:
        raise NotImplementedError

    def move_towards(self, src: np.ndarray, dst: np.ndarray, step: float) -> np.ndarray:
        raise NotImplementedError

    def clamp_step(self, src: np.ndarray, dst: np.ndarray, step: float) -> np.ndarray:
        """Cap-enforcement alias of :meth:`move_towards`."""
        return self.move_towards(src, dst, step)

    def interpolate(self, a: np.ndarray, b: np.ndarray, t: float) -> np.ndarray:
        """Point a fraction ``t`` along the geodesic from ``a`` to ``b``."""
        if not 0.0 <= t <= 1.0:
            raise ValueError(f"interpolation fraction must be in [0, 1], got {t}")
        return self.move_towards(a, b, t * self.distance(a, b))

    def distances_to(self, p: np.ndarray, batch: np.ndarray) -> np.ndarray:
        """Distances from ``p`` to each row of ``batch``; shape ``(r,)``."""
        return np.array([self.distance(p, batch[i]) for i in range(batch.shape[0])],
                        dtype=np.float64)

    def pairwise_distances(self, batch_a: np.ndarray, batch_b: np.ndarray) -> np.ndarray:
        """All pairwise distances; shape ``(len(a), len(b))``."""
        return np.stack([self.distances_to(batch_a[i], batch_b)
                         for i in range(batch_a.shape[0])]) \
            if batch_a.shape[0] else np.empty((0, batch_b.shape[0]))

    # -- batched (B, d) counterparts ---------------------------------------

    def batched_distances(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Row-wise distances between two ``(B, d)`` stacks; shape ``(B,)``."""
        return np.array([self.distance(a[i], b[i]) for i in range(a.shape[0])],
                        dtype=np.float64)

    def batched_move_towards(self, src: np.ndarray, dst: np.ndarray,
                             steps: np.ndarray | float) -> np.ndarray:
        """Row-wise :meth:`move_towards`; ``steps`` broadcasts per lane."""
        src = np.asarray(src, dtype=np.float64)
        dst = np.asarray(dst, dtype=np.float64)
        steps = np.broadcast_to(np.asarray(steps, dtype=np.float64), src.shape[:1])
        return np.stack([self.move_towards(src[i], dst[i], float(steps[i]))
                         for i in range(src.shape[0])])

    # -- validation --------------------------------------------------------

    def validate_point(self, p: np.ndarray) -> None:
        """Raise ``ValueError`` if ``p`` is not a point of this space."""
        as_point(p)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.name!r})"


class EuclideanMetric(Metric):
    """ℓ2 — delegates to the module-level primitives, hence bit-identical
    to every pre-``Metric`` code path."""

    name = "euclidean"

    def distance(self, a: np.ndarray, b: np.ndarray) -> float:
        return distance(a, b)

    def move_towards(self, src: np.ndarray, dst: np.ndarray, step: float) -> np.ndarray:
        return move_towards(src, dst, step)

    def interpolate(self, a: np.ndarray, b: np.ndarray, t: float) -> np.ndarray:
        return interpolate(a, b, t)

    def distances_to(self, p: np.ndarray, batch: np.ndarray) -> np.ndarray:
        return distances_to(p, batch)

    def pairwise_distances(self, batch_a: np.ndarray, batch_b: np.ndarray) -> np.ndarray:
        return pairwise_distances(batch_a, batch_b)

    def batched_distances(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return row_norms(np.asarray(b, dtype=np.float64) - np.asarray(a, dtype=np.float64))

    def batched_move_towards(self, src: np.ndarray, dst: np.ndarray,
                             steps: np.ndarray | float) -> np.ndarray:
        return batched_move_towards(src, dst, steps)


class MinkowskiMetric(Metric):
    """ℓp norms for ``p`` in {1, ∞}.  Straight segments are geodesics in
    any normed space, so moves are the Euclidean segment walk with the
    norm swapped — same ``reached``/``safe_n`` structure as
    :func:`batched_move_towards`, so scalar and batched rows agree
    bit-for-bit."""

    def __init__(self, p: float) -> None:
        if p not in (1, np.inf):
            raise ValueError(f"only l1 and linf are registered Minkowski metrics, got p={p}")
        self.p = p
        self.name = "l1" if p == 1 else "linf"

    def _norm(self, v: np.ndarray) -> float:
        a = np.abs(v)
        return float(a.sum()) if self.p == 1 else (float(a.max()) if a.size else 0.0)

    def _row_norms(self, vs: np.ndarray) -> np.ndarray:
        a = np.abs(vs)
        return a.sum(axis=1) if self.p == 1 else a.max(axis=1)

    def distance(self, a: np.ndarray, b: np.ndarray) -> float:
        return self._norm(np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64))

    def distances_to(self, p: np.ndarray, batch: np.ndarray) -> np.ndarray:
        if batch.shape[0] == 0:
            return np.empty(0, dtype=np.float64)
        return self._row_norms(batch - p)

    def pairwise_distances(self, batch_a: np.ndarray, batch_b: np.ndarray) -> np.ndarray:
        diff = np.abs(batch_a[:, None, :] - batch_b[None, :, :])
        return diff.sum(axis=2) if self.p == 1 else diff.max(axis=2)

    def move_towards(self, src: np.ndarray, dst: np.ndarray, step: float) -> np.ndarray:
        if step < 0.0:
            raise ValueError(f"step must be non-negative, got {step}")
        v = dst - src
        n = self._norm(v)
        if n <= step:
            return np.array(dst, dtype=np.float64, copy=True)
        return src + (step / n) * v

    def batched_distances(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self._row_norms(np.asarray(b, dtype=np.float64) - np.asarray(a, dtype=np.float64))

    def batched_move_towards(self, src: np.ndarray, dst: np.ndarray,
                             steps: np.ndarray | float) -> np.ndarray:
        src = np.asarray(src, dtype=np.float64)
        dst = np.asarray(dst, dtype=np.float64)
        steps = np.broadcast_to(np.asarray(steps, dtype=np.float64), src.shape[:1])
        if np.any(steps < 0.0):
            raise ValueError("steps must be non-negative")
        v = dst - src
        n = self._row_norms(v)
        reached = n <= steps
        safe_n = np.where(reached, 1.0, n)
        out = src + (steps / safe_n)[:, None] * v
        out[reached] = dst[reached]
        return out


# ---------------------------------------------------------------------------
# Weighted-graph shortest-path metric
# ---------------------------------------------------------------------------


def graph_point(u: int, v: int | None = None, t: float = 0.0) -> np.ndarray:
    """Encode a graph position as the canonical ``(u, v, t)`` 3-vector.

    ``t`` is the fraction travelled along edge ``(u, v)``; node ``j`` is
    ``(j, j, 0)``.  The canonical form orients every edge point with
    ``u < v`` and collapses ``t`` in {0, 1} to the endpoint node, so equal
    positions have equal encodings.
    """
    u = int(u)
    if v is None:
        return np.array([float(u), float(u), 0.0])
    v = int(v)
    t = float(t)
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"edge fraction must be in [0, 1], got {t}")
    if u == v:
        if t != 0.0:
            raise ValueError(f"node point ({u}, {u}) must have t=0, got t={t}")
        return np.array([float(u), float(u), 0.0])
    if t == 0.0:
        return np.array([float(u), float(u), 0.0])
    if t == 1.0:
        return np.array([float(v), float(v), 0.0])
    if u > v:
        u, v, t = v, u, 1.0 - t
    return np.array([float(u), float(v), float(t)])


class GraphMetric(Metric):
    """Shortest-path metric over a weighted graph.

    Built from a :class:`repro.pagemigration.graph.MigrationNetwork`: its
    precomputed all-pairs ``distances`` table *is* the node-to-node
    metric (bit-for-bit — the page-migration parity tests rely on it),
    and geodesic moves walk cached shortest node paths, landing mid-edge
    when the step budget runs out.  Points use the ``(u, v, t)`` encoding
    of :func:`graph_point`.
    """

    name = "graph"

    def __init__(self, network, name: str = "graph") -> None:
        self.network = network
        self.name = name
        self._table = np.asarray(network.distances, dtype=np.float64)
        # Points name nodes by *index* into ``network.nodes`` (labels may be
        # tuples, e.g. grid graphs); map back to labels at the graph edge.
        self._labels = list(network.nodes)
        self._index = {v: i for i, v in enumerate(self._labels)}
        self._paths: dict[tuple[int, int], list[int]] = {}

    # -- encoding ----------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return int(self._table.shape[0])

    def _decode(self, p: np.ndarray) -> tuple[int, int, float]:
        p = np.asarray(p, dtype=np.float64)
        if p.shape != (3,):
            raise ValueError(
                f"graph points are (u, v, t) 3-vectors, got shape {p.shape}")
        # One tolist() reads Python floats; rounding NumPy scalars one by
        # one dominates every graph step otherwise.
        x, y, t = p.tolist()
        u, v = int(round(x)), int(round(y))
        n = self.n_nodes
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"graph point names nodes ({u}, {v}) outside 0..{n - 1}")
        if u == v:
            if t != 0.0:
                raise ValueError(f"node point ({u}, {u}) must have t=0, got t={t}")
            return u, v, 0.0
        if not 0.0 < t < 1.0:
            raise ValueError(f"edge point fraction must be in (0, 1), got {t}")
        if not self.network.graph.has_edge(self._labels[u], self._labels[v]):
            raise ValueError(f"({u}, {v}) is not an edge of the network")
        return u, v, t

    def validate_point(self, p: np.ndarray) -> None:
        self._decode(p)

    def _edge_weight(self, u: int, v: int) -> float:
        return float(self.network.graph[self._labels[u]][self._labels[v]].get("weight", 1.0))

    def _node_path(self, i: int, j: int) -> list[int]:
        """Cached shortest node path ``i -> j`` as indices (deterministic Dijkstra)."""
        key = (i, j)
        if key not in self._paths:
            import networkx as nx

            labels = nx.dijkstra_path(
                self.network.graph, self._labels[i], self._labels[j], weight="weight")
            self._paths[key] = [self._index[v] for v in labels]
        return self._paths[key]

    def _to_nodes(self, p: np.ndarray) -> list[tuple[int, float]]:
        """``(node, distance from p to that node)`` anchor candidates."""
        u, v, t = self._decode(p)
        if u == v:
            return [(u, 0.0)]
        w = self._edge_weight(u, v)
        return [(u, t * w), (v, (1.0 - t) * w)]

    # -- scalar core -------------------------------------------------------

    def distance(self, a: np.ndarray, b: np.ndarray) -> float:
        ua, va, ta = self._decode(a)
        ub, vb, tb = self._decode(b)
        best = np.inf
        # Direct along a shared edge (the only geodesic avoiding nodes).
        if ua != va and {ua, va} == {ub, vb}:
            tb_here = tb if (ua, va) == (ub, vb) else 1.0 - tb
            best = abs(ta - tb_here) * self._edge_weight(ua, va)
        for i, da in self._to_nodes(a):
            for j, db in self._to_nodes(b):
                best = min(best, da + float(self._table[i, j]) + db)
        return float(best)

    def move_towards(self, src: np.ndarray, dst: np.ndarray, step: float) -> np.ndarray:
        if step < 0.0:
            raise ValueError(f"step must be non-negative, got {step}")
        total = self.distance(src, dst)
        if total <= step:
            return np.array(graph_point(*self._decode(dst)), dtype=np.float64)
        ua, va, ta = self._decode(src)
        ub, vb, tb = self._decode(dst)
        # Shared-edge direct walk when it realizes the distance.
        if ua != va and {ua, va} == {ub, vb}:
            tb_here = tb if (ua, va) == (ub, vb) else 1.0 - tb
            w = self._edge_weight(ua, va)
            if abs(ta - tb_here) * w <= total:
                frac = step / w
                t_new = ta + frac if tb_here > ta else ta - frac
                return graph_point(ua, va, t_new)
        # Otherwise: pick the (entry node, exit node) pair realizing the
        # shortest route, then walk src -> entry -> ... -> exit -> dst.
        best = None
        for i, da in self._to_nodes(src):
            for j, db in self._to_nodes(dst):
                length = da + float(self._table[i, j]) + db
                if best is None or length < best[0]:
                    best = (length, i, j, da, db)
        _, entry, exit_, d_entry, _ = best
        remaining = step
        # Leg 1: along src's edge to the entry node.
        if remaining < d_entry:
            w = self._edge_weight(ua, va)
            frac = remaining / w
            t_new = ta - frac if entry == ua else ta + frac
            return graph_point(ua, va, t_new)
        remaining -= d_entry
        # Leg 2: along the shortest node path.
        path = self._node_path(entry, exit_)
        for a_node, b_node in zip(path, path[1:]):
            w = self._edge_weight(a_node, b_node)
            if remaining < w:
                return graph_point(a_node, b_node, remaining / w)
            remaining -= w
        # Leg 3: along dst's edge (remaining < d_exit since total > step).
        w = self._edge_weight(ub, vb)
        frac = remaining / w
        t_new = frac if exit_ == ub else 1.0 - frac
        return graph_point(ub, vb, t_new)

    def node_point(self, j: int) -> np.ndarray:
        """The canonical encoding of node ``j``."""
        return graph_point(int(j))

    def nearest_node(self, p: np.ndarray) -> int:
        """The closer endpoint of ``p``'s edge (ties to the smaller index)."""
        anchors = self._to_nodes(p)
        return min(anchors, key=lambda a: (a[1], a[0]))[0]


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

#: name -> zero-argument factory.  Factories run once; instances are cached.
METRICS: Dict[str, Callable[[], Metric]] = {}
_INSTANCES: Dict[str, Metric] = {}


def register_metric(name: str, factory: Callable[[], Metric],
                    overwrite: bool = False) -> None:
    """Register a metric under a stable name (mirrors the other registries)."""
    if name in METRICS and not overwrite:
        raise KeyError(f"metric {name!r} already registered")
    METRICS[name] = factory
    _INSTANCES.pop(name, None)


def get_metric(metric: str | Metric | None) -> Metric:
    """Resolve a metric name (or pass a :class:`Metric` instance through).

    ``None`` resolves to the Euclidean default, so every existing call
    site keeps its exact behaviour without naming a metric.
    """
    if metric is None:
        metric = "euclidean"
    if isinstance(metric, Metric):
        return metric
    if metric not in METRICS:
        raise KeyError(
            f"unknown metric {metric!r}; available: {', '.join(sorted(METRICS))}")
    if metric not in _INSTANCES:
        _INSTANCES[metric] = METRICS[metric]()
    return _INSTANCES[metric]


def available_metrics() -> list[str]:
    """Sorted registry keys."""
    return sorted(METRICS)


def _default_graph_metric() -> Metric:
    # Lazy import: the canonical small road network lives with the graph
    # workloads, which depend on this module.
    from ..workloads.graphnet import default_network

    return GraphMetric(default_network())


register_metric("euclidean", EuclideanMetric)
register_metric("l1", lambda: MinkowskiMetric(1))
register_metric("linf", lambda: MinkowskiMetric(np.inf))
register_metric("graph", _default_graph_metric)
