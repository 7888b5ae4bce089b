"""Fused step kernels: the batched form of every kernel-capable algorithm.

A registry algorithm exists in at most two forms: the scalar
:class:`~repro.algorithms.base.OnlineAlgorithm` (the paper-faithful
reference) and the :class:`StepKernel` registered here under its
registry name.  There is no third, hand-batched form: an algorithm
without a kernel (``coin-flip``, the classical ``pm-*`` and k-server
rules, ...) runs its scalar rule once per lane.  :func:`repro.core.engine.simulate_batch` hands a packed
ℓ2 request stack straight to :func:`run_fused`, which advances a whole
block of ``K`` steps per Python iteration and validates caps, accumulates
movement/service costs and writes trace columns *per block* instead of
per step.  Every other run (ragged stacks, non-ℓ2 metrics, movement-only
lanes, fusion switched off) plays the scalar rules through
:class:`~repro.algorithms.vectorized.ScalarBatchAdapter`.  The serve
layer steps the same kernels one step at a time (``K = 1``, see
:class:`~repro.algorithms.vectorized.KernelAlgorithm`).

Kernel layouts
--------------

*Stateless* kernels (``greedy-centroid``, ``nearest-chaser``,
``static``) decide from ``(positions, step points, caps)`` alone.  They
consume the request stack **time-major** — ``(K, r, B, d)`` blocks — so
block reductions run over long contiguous inner axes.

*Median-family* kernels (``mtc``, ``greedy-center``, ``follow-last``
and its smoothed variant) target the tie-broken geometric median through
the cross-lane batched solver
(:func:`repro.median.batched_request_center`).  They consume
**batch-major** ``(B, K, r, d)`` blocks of the packed stack, because the
batched median solver's ``r``-reductions must run over a contiguous
trailing axis to match the scalar solver's summation order.

*Stack* kernels (``lazy`` and its aggressive variant, ``move-to-min``)
pool requests of earlier steps into one median, so they receive the
whole contiguous ``(B, T, r, d)`` stack and slice it themselves.  A
one-step serve wave does not carry those earlier steps, so stack kernels
only ever run through :func:`run_fused`.

Every kernel is *built* per run: :attr:`StepKernel.build` receives a
:class:`KernelContext` (the scalar algorithm instance plus the per-lane
``caps``/``D``/``m`` arrays) and returns an ``advance`` closure.  The
builder puts the kernel's carried state into ``ctx.state`` as named
``(B, ...)`` arrays (warm starts, pursuit targets, accumulators) that
``advance`` updates in place; row ``i`` is lane ``i``'s state, which is
what lets serve waves export and import lanes between recompositions.
The registry entries in :data:`KERNELS` are immutable and shared, and
nothing can leak between runs or between cells packed into one
mega-batch.

Bit-parity contract
-------------------

A kernel performs, per lane and step, the exact float64 arithmetic of
its scalar algorithm.  Facts asserted empirically in
``tests/test_kernels.py`` license the reformulations:

* a sum of two squares via slice adds (``sq[..., 0] + sq[..., 1]``) is
  bit-identical to NumPy's ``einsum`` sum-of-products **only** for
  ``d <= 2`` — every norm here gates on that and falls back to the
  ``einsum`` the scalar path uses for ``d >= 3``;
* reductions over a *middle* axis (the centroid ``mean`` over ``r``)
  add terms in the same order regardless of which axis of the operand
  they ran over, so the layout change does not move bits;
* ``ndarray.sum`` over a *last* axis switches to pairwise blocking at
  length 8, so time-major service sums match the scalar order only for
  ``r < 8`` — larger ``r`` pays a transpose, while the batch-major
  service pass reduces over the trailing ``r`` exactly as the scalar
  path does at any ``r``;
* scalar ``np.dot`` contractions are reproduced with vector-shaped
  ``matmul`` (same BLAS ``ddot``), never ``einsum`` — see
  :mod:`repro.median.batched`.

Movement distances are recomputed from the committed trajectory (never
shortcut through the clamp's ``min``), the clamp mirrors
:func:`~repro.core.metric.batched_move_towards` term for term, and
``tests/test_kernels.py`` asserts bit-identical traces against the
scalar reference loop for every registered kernel under both cost
models, mixed per-lane caps/``D`` and δ sweeps.

Reference switch
----------------

:func:`set_fusion` / the :func:`fusion` context manager toggle every
fused fast path at once — the engine's kernel dispatch, the cross-cell
mega-batching in :mod:`repro.api.runtime` and the serve layer's
cross-lane waves — which is what the CLI ``--no-fuse`` flag flips to
produce a scalar reference run.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict

import numpy as np

from .validation import MovementCapViolation

if TYPE_CHECKING:  # pragma: no cover - import only for type hints
    from .engine import BatchTrace

__all__ = [
    "DEFAULT_BLOCK",
    "KERNELS",
    "KernelContext",
    "StepKernel",
    "fusion",
    "fusion_enabled",
    "kernel_for",
    "run_fused",
    "set_fusion",
]

#: Steps advanced per Python iteration of the fused runner.  Bounds the
#: block scratch at ``O(K * B * r * d)`` floats while amortizing the
#: validation / service / trace writes over ``K`` steps.
DEFAULT_BLOCK = 64

_FUSION_ENABLED = True


def fusion_enabled() -> bool:
    """Whether the fused fast paths (kernels + mega-batching) are active."""
    return _FUSION_ENABLED


def set_fusion(enabled: bool) -> bool:
    """Toggle the fused fast paths globally; returns the previous setting."""
    global _FUSION_ENABLED
    previous = _FUSION_ENABLED
    _FUSION_ENABLED = bool(enabled)
    return previous


@contextlib.contextmanager
def fusion(enabled: bool):
    """Context manager form of :func:`set_fusion` (restores on exit)."""
    previous = set_fusion(enabled)
    try:
        yield
    finally:
        set_fusion(previous)


@dataclass(frozen=True)
class KernelContext:
    """Per-run inputs a kernel builder closes over.

    Attributes
    ----------
    algorithm:
        The scalar :class:`~repro.algorithms.base.OnlineAlgorithm` the
        kernel replays — variant kernels read their ablation parameters
        (``step_scale``, ``tie_break``, ``cap_fraction``, ``smoothing``,
        ``threshold_factor``, ``window``, ``phase_requests``) from it.
    caps, D, m:
        Per-lane ``(B,)`` arrays: movement caps, the paper's ``D`` and
        the instances' ``m`` (the lazy threshold's scale factor).
    dim:
        The dimension ``d`` of the space.
    state:
        Filled by the builder: the kernel's carried per-lane state as
        named ``(B, ...)`` arrays, all zero for a fresh lane.
    """

    algorithm: object
    caps: np.ndarray
    D: np.ndarray
    m: np.ndarray
    dim: int
    state: Dict[str, np.ndarray] = field(default_factory=dict)


@dataclass(frozen=True)
class StepKernel:
    """A fused decision rule: fill blocks of trajectory rows at once.

    ``build(ctx)`` returns a per-run ``advance(out, start, points, t0)``
    closure where

    * ``out`` — ``(K, B, d)`` trajectory rows to fill (``out[k]`` is the
      position *after* step ``t0 + k``),
    * ``start`` — ``(B, d)`` positions entering the block (read-only),
    * ``points`` — the requests in the kernel's declared :attr:`layout`:
      the ``(K, r, B, d)`` time-major block, the ``(B, K, r, d)``
      batch-major block, or the whole contiguous ``(B, T, r, d)`` stack
      (``"stack"`` kernels slice ``points[:, t0 + k]`` themselves),
    * ``t0`` — absolute index of the block's first step,

    and must perform, per lane and step, arithmetic bit-identical to the
    scalar algorithm.  Blocks with ``r = 0`` (steps without requests,
    which only one-step serve waves produce) follow the scalar rule for
    an empty batch.
    """

    name: str
    build: Callable[[KernelContext], Callable]
    layout: str = field(default="time_major")


def _time_major_stack(big: np.ndarray) -> np.ndarray:
    """Copy a ``(B, T, r, d)`` request stack into ``(T, r, B, d)`` layout.

    A naive ``ascontiguousarray(transpose(...))`` copies 16-byte rows and
    is ~2x slower than the whole fused simulation; for ``d <= 2`` the
    points reinterpret as one scalar per request (complex128 for ``d=2``)
    and the copy becomes a single cache-blocked 2-D transpose.  Views and
    copies never touch float bits.
    """
    B, T, r, d = big.shape
    big = np.ascontiguousarray(big)
    if d == 1:
        flat = big.reshape(B, T * r)
    elif d == 2:
        flat = big.view(np.complex128).reshape(B, T * r)
    else:
        out = big.reshape(B, T * r, d).transpose(1, 0, 2)
        return np.ascontiguousarray(out).reshape(T, r, B, d)
    M = flat.shape[1]
    if (M * flat.itemsize) % 4096 == 0:
        # A page-multiple row stride makes the transpose gather hit one
        # cache set per column — pad a row element to break the stride.
        padded = np.empty((B, M + 1), dtype=flat.dtype)
        padded[:, :M] = flat
        flat = padded[:, :M]
    return np.ascontiguousarray(flat.T).view(np.float64).reshape(T, r, B, d)


class _ClampScratch:
    """Per-advance buffers for the clamped-move recurrence.

    The recurrence is overhead-bound (ten NumPy calls on ``(B, d)``
    operands per step), so every call writes into preallocated buffers;
    ``weight`` starts at 1.0 so masked-out stale values stay finite.
    """

    def __init__(self, B: int, d: int) -> None:
        self.v = np.empty((B, d))
        self.sq = np.empty((B, d))
        self.n = np.empty(B)
        self.weight = np.ones(B)
        self.reached = np.empty(B, dtype=bool)
        self.weight_col = self.weight[:, None]
        self.reached_col = self.reached[:, None]


# The clamp recurrence is pure dispatch overhead at these array sizes
# (ten tiny ufunc calls per simulated step), so bind the ufuncs once.
_sub = np.subtract
_mul = np.multiply
_add = np.add
_sqrt = np.sqrt
_le = np.less_equal
_div = np.divide
_copyto = np.copyto


def _clamped_move(out: np.ndarray, src: np.ndarray, dst: np.ndarray,
                  caps: np.ndarray, s: _ClampScratch) -> None:
    """One :func:`~repro.core.metric.batched_move_towards` step into ``out``.

    Mirrors the library clamp bit-for-bit: the same sum-of-squares row
    norms (slice adds only where that is exactly ``einsum``'s order, see
    module docstring), the ``safe_n`` guard against 0/0, the
    ``(caps / n)`` scaling, and exact landing on reached targets.
    """
    _sub(dst, src, out=s.v)
    if s.v.shape[1] == 2:
        _mul(s.v, s.v, out=s.sq)
        _add(s.sq[:, 0], s.sq[:, 1], out=s.n)
    else:
        np.einsum("ij,ij->i", s.v, s.v, out=s.n)
    _sqrt(s.n, out=s.n)
    _le(s.n, caps, out=s.reached)
    _copyto(s.n, 1.0, where=s.reached)
    _div(caps, s.n, out=s.weight)
    _mul(s.v, s.weight_col, out=out)
    _add(out, src, out=out)
    _copyto(out, dst, where=s.reached_col)
    return s.reached.all()


# -- stateless time-major kernels ------------------------------------------


def _advance_greedy_centroid(out: np.ndarray, start: np.ndarray,
                             points: np.ndarray, caps: np.ndarray,
                             scratch: _ClampScratch) -> None:
    # The centroid targets are position-independent, so the whole block's
    # targets reduce in one pass; only the tiny (B, d) clamp recurrence
    # stays sequential.  For d >= 2 the scalar (r, d) mean is a
    # non-trailing-axis reduction whatever the layout, but at d == 1
    # NumPy collapses the trailing unit axis and the scalar mean blocks
    # pairwise over r — mirror that exactly once r reaches the pairwise
    # threshold.
    K, r, B, d = points.shape
    if r == 1:
        # Mean of a single request is that request, bit for bit.
        targets = points[:, 0]
    elif d == 1 and r >= 8:
        flat = np.ascontiguousarray(points[..., 0].transpose(0, 2, 1))
        targets = flat.mean(axis=2)[..., None]  # (K, B, 1)
    else:
        targets = points.mean(axis=1)  # (K, B, d)
    # Exact-landing fast-forward: when a step lands every lane exactly on
    # its target (the clamp's ``out[reached] = dst`` rule), the position
    # no longer depends on history — so any following streak of steps
    # whose target-to-target hop is within every lane's cap just *is* the
    # target chain, bit for bit.  ``chain_ok[k]`` precomputes that hop
    # test (the clamp's own norm and ``<=`` comparison) for step k.
    if K > 1:
        tv = targets[1:] - targets[:-1]
        if d == 2:
            tsq = tv * tv
            tn = tsq[..., 0] + tsq[..., 1]
        else:
            tn = np.einsum("kbd,kbd->kb", tv, tv)
        np.sqrt(tn, out=tn)
        chain_ok = (tn <= caps).all(axis=1)  # (K-1,)
    else:
        chain_ok = np.zeros(0, dtype=bool)
    # run[k]: length of the chain_ok streak covering steps k, k+1, ...
    run = np.zeros(K + 1, dtype=np.int64)
    for k in range(K - 2, -1, -1):
        run[k + 1] = run[k + 2] + 1 if chain_ok[k] else 0

    positions = start
    k = 0
    while k < K:
        all_reached = _clamped_move(out[k], positions, targets[k], caps, scratch)
        positions = out[k]
        k += 1
        if all_reached and k < K:
            span = int(run[k])
            if span:
                out[k:k + span] = targets[k:k + span]
                positions = out[k + span - 1]
                k += span


def _advance_nearest_chaser(out: np.ndarray, start: np.ndarray,
                            points: np.ndarray, caps: np.ndarray,
                            scratch: _ClampScratch) -> None:
    K, r, B, d = points.shape
    if r == 1:
        # A single request is trivially the nearest one.
        positions = start
        for k in range(K):
            _clamped_move(out[k], positions, points[k, 0], caps, scratch)
            positions = out[k]
        return
    lanes = np.arange(B)
    dbuf = np.empty((r, B, d))
    dists = np.empty((r, B))
    positions = start
    for k in range(K):
        pts = points[k]
        np.subtract(pts, positions[None, :, :], out=dbuf)
        if d == 2:
            np.multiply(dbuf, dbuf, out=dbuf)
            np.add(dbuf[..., 0], dbuf[..., 1], out=dists)
        else:
            np.einsum("rbd,rbd->rb", dbuf, dbuf, out=dists)
        # sqrt *before* argmin, like the scalar rule: rounding in the sqrt
        # can merge near-ties, and the tie-break must match exactly.
        np.sqrt(dists, out=dists)
        nearest = pts[np.argmin(dists, axis=0), lanes]
        _clamped_move(out[k], positions, nearest, caps, scratch)
        positions = out[k]


def _advance_static(out: np.ndarray, start: np.ndarray,
                    points: np.ndarray, caps: np.ndarray,
                    scratch: _ClampScratch) -> None:
    out[:] = start


def _stateless(fn: Callable) -> Callable[[KernelContext], Callable]:
    """Wrap a stateless time-major advance function as a builder."""

    def build(ctx: KernelContext) -> Callable:
        caps = ctx.caps
        scratch = _ClampScratch(caps.shape[0], ctx.dim)

        def advance(out, start, points, t0):
            if points.shape[1] == 0:
                out[:] = start  # no requests: every stateless rule stays put
                return
            fn(out, start, points, caps, scratch)

        return advance

    return build


# -- median-family batch-major kernels -------------------------------------
#
# These kernels call the center rules of repro.median.batched on every
# lane at once; the scalar algorithms call the same functions on one-lane
# stacks.  They slice one (B, r, d) step at a time out of the batch-major
# block (or the whole stack), and a lane's answer does not depend on the
# stack it rides in, so every lane matches its scalar run bit-for-bit.


def _masked_pursuit(out_k: np.ndarray, positions: np.ndarray,
                    target: np.ndarray, has: np.ndarray, caps: np.ndarray,
                    tgt_buf: np.ndarray, steps_buf: np.ndarray,
                    s: _ClampScratch) -> np.ndarray:
    """One full-cap chase of per-lane pursuit targets into ``out_k``.

    Lanes without a target (``has`` False) stay put (a zero step towards
    their own position, exactly the scalar ``return self.position``).
    Returns the scalar ``reached`` mask (``|out - tgt| <= 1e-12`` in
    every coordinate) for the caller's target-clearing rule.
    """
    np.copyto(tgt_buf, positions)
    np.copyto(tgt_buf, target, where=has[:, None])
    steps_buf.fill(0.0)
    np.copyto(steps_buf, caps, where=has)
    _clamped_move(out_k, positions, tgt_buf, steps_buf, s)
    return np.all(np.abs(out_k - tgt_buf) <= 1e-12, axis=1)


def _build_greedy_center(ctx: KernelContext) -> Callable:
    from ..median.batched import batched_request_center

    caps = ctx.caps
    s = _ClampScratch(caps.shape[0], ctx.dim)

    def advance(out, start, points, t0):
        if points.shape[2] == 0:
            out[:] = start  # no requests: stay put
            return
        positions = start
        for k in range(out.shape[0]):
            c = batched_request_center(points[:, k], positions)
            _clamped_move(out[k], positions, c, caps, s)
            positions = out[k]

    return advance


def _build_mtc(ctx: KernelContext) -> Callable:
    from ..median.batched import (
        batched_midpoint_center,
        batched_request_center,
        batched_weiszfeld,
    )

    algo = ctx.algorithm
    caps, D = ctx.caps, ctx.D
    B = caps.shape[0]
    tie = algo.tie_break
    step_scale = algo.step_scale
    capped = caps * algo.cap_fraction
    s = _ClampScratch(B, ctx.dim)
    desired = np.empty(B)
    steps = np.empty(B)
    # The "closest" tie-break warm-starts each lane's solver at its
    # previous center; lanes without one yet start cold.
    warm = ctx.state["warm"] = np.zeros((B, ctx.dim))
    warm_ok = ctx.state["warm_ok"] = np.zeros(B, dtype=bool)

    def advance(out, start, points, t0):
        r = points.shape[2]
        if r == 0:
            out[:] = start  # no requests: stay put, warm starts untouched
            return
        # The damping min{1, r/D} reads this block's own request count.
        scale = (np.full(B, step_scale) if step_scale is not None
                 else np.minimum(1.0, r / D))
        positions = start
        for k in range(out.shape[0]):
            pts = points[:, k]
            if tie == "closest":
                c = batched_request_center(pts, positions,
                                           warm_starts=warm, warm_mask=warm_ok)
                warm[:] = c
                warm_ok.fill(True)
            elif tie == "weiszfeld":
                c = batched_weiszfeld(pts)
            else:  # midpoint
                c = batched_midpoint_center(pts)
            # dist = ‖c − position‖, then the damped
            # min{scale·dist, cap_fraction·cap} clamp of the scalar rule.
            _sub(c, positions, out=s.v)
            np.einsum("ij,ij->i", s.v, s.v, out=s.n)
            _sqrt(s.n, out=s.n)
            _mul(scale, s.n, out=desired)
            np.minimum(desired, capped, out=steps)
            _le(s.n, steps, out=s.reached)
            _copyto(s.n, 1.0, where=s.reached)
            _div(steps, s.n, out=s.weight)
            _mul(s.v, s.weight_col, out=out[k])
            _add(out[k], positions, out=out[k])
            _copyto(out[k], c, where=s.reached_col)
            positions = out[k]

    return advance


def _build_follow_last(ctx: KernelContext) -> Callable:
    from ..median.batched import batched_request_center

    caps = ctx.caps
    smoothing = ctx.algorithm.smoothing
    B, d = caps.shape[0], ctx.dim
    s = _ClampScratch(B, d)
    tgt_buf = np.empty((B, d))
    steps_buf = np.empty(B)
    target = ctx.state["target"] = np.zeros((B, d))
    has = ctx.state["has"] = np.zeros(B, dtype=bool)

    def advance(out, start, points, t0):
        r = points.shape[2]
        positions = start
        for k in range(out.shape[0]):
            if r:
                c = batched_request_center(points[:, k], positions)
                # A lane's first center is adopted outright; the scalar
                # rule smooths only from its second step with requests on.
                smoothed = (1.0 - smoothing) * target + smoothing * c
                np.copyto(target, np.where(has[:, None], smoothed, c))
                has.fill(True)
            # The smoothed target persists after being reached, and an
            # empty step keeps chasing it — no clearing rule.
            _masked_pursuit(out[k], positions, target, has, caps,
                            tgt_buf, steps_buf, s)
            positions = out[k]

    return advance


def _build_lazy(ctx: KernelContext) -> Callable:
    from ..median.batched import batched_request_center

    algo, caps = ctx.algorithm, ctx.caps
    thresholds = algo.threshold_factor * ctx.D * ctx.m
    window = algo.window
    B, d = caps.shape[0], ctx.dim
    s = _ClampScratch(B, d)
    tgt_buf = np.empty((B, d))
    steps_buf = np.empty(B)
    acc = ctx.state["accumulated"] = np.zeros(B)
    target = ctx.state["target"] = np.zeros((B, d))
    has = ctx.state["has"] = np.zeros(B, dtype=bool)

    def advance(out, start, big, t0):
        r = big.shape[2]
        positions = start
        for k in range(out.shape[0]):
            t = t0 + k
            pts = big[:, t]
            # Accumulate each lane's service cost at the pre-move
            # position (RequestBatch.service_cost, vectorized).
            diff = pts - positions[:, None, :]
            np.add(acc, np.sqrt(np.einsum("brd,brd->br", diff, diff)).sum(axis=1),
                   out=acc)
            trig = ~has & (acc > thresholds)
            if np.any(trig):
                idx = np.nonzero(trig)[0]
                w = min(t + 1, window)
                pooled = big[idx, t + 1 - w:t + 1].reshape(idx.size, w * r, d)
                target[idx] = batched_request_center(pooled, positions[idx])
                acc[idx] = 0.0
                has[idx] = True
            reached = _masked_pursuit(out[k], positions, target, has, caps,
                                      tgt_buf, steps_buf, s)
            np.logical_and(has, ~reached, out=has)
            positions = out[k]

    return advance


def _build_move_to_min(ctx: KernelContext) -> Callable:
    from ..median.batched import batched_request_center

    algo, caps = ctx.algorithm, ctx.caps
    B, d = caps.shape[0], ctx.dim
    if algo.phase_requests is not None:
        size = np.full(B, int(algo.phase_requests), dtype=np.int64)
    else:
        size = np.maximum(1, np.ceil(ctx.D).astype(np.int64))
    s = _ClampScratch(B, d)
    tgt_buf = np.empty((B, d))
    steps_buf = np.empty(B)
    counts = ctx.state["phase_count"] = np.zeros(B, dtype=np.int64)
    phase_start = ctx.state["phase_start"] = np.zeros(B, dtype=np.int64)
    target = ctx.state["target"] = np.zeros((B, d))
    has = ctx.state["has"] = np.zeros(B, dtype=bool)

    def advance(out, start, big, t0):
        r = big.shape[2]
        positions = start
        for k in range(out.shape[0]):
            t = t0 + k
            np.add(counts, r, out=counts)
            trig = counts >= size
            if np.any(trig):
                # Lanes can be on different phase cadences (per-lane D):
                # group the triggered lanes by phase length so each
                # group pools a uniform (L*r, d) stack.
                lengths = t + 1 - phase_start
                for L in np.unique(lengths[trig]):
                    sel = np.nonzero(trig & (lengths == L))[0]
                    pooled = big[sel, t + 1 - L:t + 1].reshape(
                        sel.size, int(L) * r, d)
                    target[sel] = batched_request_center(pooled, positions[sel])
                counts[trig] = 0
                phase_start[trig] = t + 1
                has[trig] = True
            reached = _masked_pursuit(out[k], positions, target, has, caps,
                                      tgt_buf, steps_buf, s)
            np.logical_and(has, ~reached, out=has)
            positions = out[k]

    return advance


_FOLLOW_LAST = StepKernel("follow-last", _build_follow_last, layout="batch_major")
_LAZY = StepKernel("lazy", _build_lazy, layout="stack")

#: Registered kernels, keyed by algorithm registry name — the one place
#: an algorithm is bound to its batched form.  Registry variants
#: (``lazy-aggressive``, ``follow-smooth``) share their family's kernel;
#: the builder reads the variant parameters off the scalar instance.
#: Binding by name, never by class, keeps subclasses of a kerneled
#: algorithm (``mtc-answer-first``, the multi-agent MtC) on the scalar
#: reference path.
KERNELS: Dict[str, StepKernel] = {
    "greedy-centroid": StepKernel("greedy-centroid",
                                  _stateless(_advance_greedy_centroid)),
    "nearest-chaser": StepKernel("nearest-chaser",
                                 _stateless(_advance_nearest_chaser)),
    "static": StepKernel("static", _stateless(_advance_static)),
    "mtc": StepKernel("mtc", _build_mtc, layout="batch_major"),
    "greedy-center": StepKernel("greedy-center", _build_greedy_center,
                                layout="batch_major"),
    "follow-last": _FOLLOW_LAST,
    "follow-smooth": _FOLLOW_LAST,
    "lazy": _LAZY,
    "lazy-aggressive": _LAZY,
    "move-to-min": StepKernel("move-to-min", _build_move_to_min, layout="stack"),
}


def kernel_for(name: str) -> StepKernel | None:
    """The kernel bound to registry name ``name``, or ``None``."""
    return KERNELS.get(name)


def run_fused(
    kernel: StepKernel,
    algo,
    starts: np.ndarray,
    big: np.ndarray,
    caps: np.ndarray,
    D: np.ndarray,
    m: np.ndarray,
    serve_after_move: np.ndarray,
    tol: np.ndarray,
    block: int = DEFAULT_BLOCK,
) -> "BatchTrace":
    """Play a packed request stack through a kernel, ``block`` steps at a time.

    Parameters mirror the engine loop's precomputed per-lane arrays:
    ``algo`` is the scalar algorithm instance (the kernel builder reads
    variant parameters from it; its ``name`` labels the trace),
    ``starts`` is ``(B, d)``, ``big`` the packed ``(B, T, r, d)`` request
    stack, ``caps``/``D``/``m``/``tol`` are ``(B,)`` and
    ``serve_after_move`` is ``(B,)`` bool (one flag per lane's cost
    model).

    Returns a :class:`~repro.core.engine.BatchTrace` bit-identical to the
    scalar reference loop's: movement distances are recomputed from the
    committed trajectory (not read back from the clamp), validation
    checks each block before the next one runs, and service costs reduce
    a step's requests in exactly the scalar order (see module docstring).
    """
    from .engine import BatchTrace  # deferred: engine imports this module

    B, T, r, dim = big.shape
    algorithm_name = algo.name
    advance = kernel.build(KernelContext(algorithm=algo, caps=caps, D=D, m=m, dim=dim))
    layout = kernel.layout
    batch_major = layout != "time_major"
    if batch_major:
        stack = np.ascontiguousarray(big)  # kernels slice (B, r, d) steps
        points = None
    else:
        stack = None
        points = _time_major_stack(big)  # (T, r, B, d)
    # Pad the lane axis when a (B, d) row is a page multiple, so the
    # final trajectory transpose doesn't gather on one cache set.
    B_pad = B + 1 if (B * dim * 8) % 4096 == 0 else B
    traj_buf = np.empty((T + 1, B_pad, dim))
    traj = traj_buf[:, :B]
    traj[0] = starts

    # Every element below is overwritten, so skip allocate()'s zeroing.
    trace = BatchTrace(
        positions=np.empty((B, T + 1, dim)),
        movement_costs=np.empty((B, T)),
        service_costs=np.empty((B, T)),
        distances_moved=np.empty((B, T)),
        # Packed stacks are uniform by construction.
        request_counts=np.full((B, T), r, dtype=np.int64),
        algorithm=algorithm_name,
    )

    all_serve_after = bool(serve_after_move.all())
    none_serve_after = not serve_after_move.any()
    Kmax = min(block, T)
    seg = np.empty((Kmax, B, dim))
    over = np.empty((Kmax, B), dtype=bool)
    serving_buf = None if all_serve_after or none_serve_after else np.empty((Kmax, B, dim))
    moved_tm = np.empty((T, B))
    if batch_major:
        # Batch-major service pass: reduce each step's requests over the
        # trailing r axis, exactly the per-step loop's (B, r) sum order.
        diff = np.empty((B, Kmax, r, dim))
        svc = np.empty((B, Kmax, r))
        service_tm = None
    else:
        diff = np.empty((Kmax, r, B, dim))
        svc = np.empty((Kmax, r, B))
        # Time-major cost accumulator; transposed into the trace once at
        # the end (a copy never moves float bits).
        service_tm = np.empty((T, B))

    for t0 in range(0, T, block):
        t1 = min(t0 + block, T)
        K = t1 - t0
        out = traj[t0 + 1:t1 + 1]
        if layout == "time_major":
            advance(out, traj[t0], points[t0:t1], t0)
        else:
            advance(out, traj[t0], stack if layout == "stack" else stack[:, t0:t1], t0)

        sg, mv, ov = seg[:K], moved_tm[t0:t1], over[:K]
        np.subtract(out, traj[t0:t1], out=sg)
        if dim == 2:
            np.multiply(sg, sg, out=sg)
            np.add(sg[..., 0], sg[..., 1], out=mv)
        else:
            np.einsum("kbd,kbd->kb", sg, sg, out=mv)
        np.sqrt(mv, out=mv)
        np.greater(mv, tol, out=ov)
        if ov.any():
            # First offending step, then first offending lane — exactly
            # the order the per-step loop raises in.  Blocks after this
            # one were never advanced, matching the loop's early exit.
            k, lane = np.unravel_index(int(np.argmax(ov)), ov.shape)
            raise MovementCapViolation(
                t0 + int(k), float(mv[k, lane]), float(caps[lane]),
                f"{algorithm_name}[lane {lane}]",
            )

        if all_serve_after:
            serving = out
        elif none_serve_after:
            serving = traj[t0:t1]
        else:
            serving = serving_buf[:K]
            np.copyto(serving, traj[t0:t1])
            np.copyto(serving, out, where=serve_after_move[None, :, None])

        if batch_major:
            db, sv = diff[:, :K], svc[:, :K]
            np.subtract(stack[:, t0:t1], serving.transpose(1, 0, 2)[:, :, None, :],
                        out=db)
            np.einsum("bkrd,bkrd->bkr", db, db, out=sv)
            np.sqrt(sv, out=sv)
            if r == 1:
                trace.service_costs[:, t0:t1] = sv[:, :, 0]
            else:
                sv.sum(axis=2, out=trace.service_costs[:, t0:t1])
            continue

        pblock = points[t0:t1]
        db, sv = diff[:K], svc[:K]
        np.subtract(pblock, serving[:, None, :, :], out=db)
        if dim == 2:
            np.multiply(db, db, out=db)
            np.add(db[..., 0], db[..., 1], out=sv)
        else:
            np.einsum("krbd,krbd->krb", db, db, out=sv)
        np.sqrt(sv, out=sv)
        if r == 1:
            service_tm[t0:t1] = sv[:, 0]
        elif r < 8:
            # Below length 8 NumPy's pairwise sum is plain sequential, so
            # the middle-axis reduction matches the loop's order.
            sv.sum(axis=1, out=service_tm[t0:t1])
        else:
            # At r >= 8 the loop's last-axis sum blocks pairwise; pay a
            # transpose so this reduction blocks identically.
            np.ascontiguousarray(sv.transpose(0, 2, 1)).sum(axis=2, out=service_tm[t0:t1])

    if dim == 2:
        flat = traj_buf.view(np.complex128).reshape(T + 1, B_pad)[:, :B]
        np.copyto(trace.positions.view(np.complex128).reshape(B, T + 1), flat.T)
    elif dim == 1:
        flat = traj_buf.reshape(T + 1, B_pad)[:, :B]
        np.copyto(trace.positions.reshape(B, T + 1), flat.T)
    else:
        trace.positions[:] = traj.transpose(1, 0, 2)
    trace.distances_moved[:] = moved_tm.T
    if not batch_major:
        trace.service_costs[:] = service_tm.T
    np.multiply(D[:, None], trace.distances_moved, out=trace.movement_costs)
    return trace
