"""The online simulation engine.

:func:`simulate` plays an :class:`~repro.algorithms.base.OnlineAlgorithm`
against an :class:`~repro.core.instance.MSPInstance`, producing a
:class:`~repro.core.trace.Trace`.  The loop is deliberately small: reveal
the batch, ask the algorithm for its new position, validate the movement
cap, account costs under the instance's cost model.

Resource augmentation is expressed through ``delta``: the algorithm's cap is
:math:`(1+\\delta) m` while costs stay identical, matching Section 3 of the
paper.  ``delta=0`` recovers the un-augmented problem.

For sweeps over many instances, :mod:`repro.core.engine` provides
:func:`~repro.core.engine.simulate_batch`, which plays ``B`` same-length
instances in lock-step with vectorized accounting and reproduces this
scalar loop bit-for-bit per lane.

.. note::
   Prefer the scenario layer (:func:`repro.api.run`) over calling this
   module directly: anything expressible as *source × algorithm × seeds*
   gets engine selection, capability validation and store caching there.
   This entry point stays public for step-level custom loops (callbacks,
   adaptive opponents).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

import numpy as np

from .metric import Metric, distances_to, get_metric
from .instance import MovingClientInstance, MSPInstance
from .trace import Trace
from .validation import check_move

if TYPE_CHECKING:  # imported only for type hints; avoids a core<->algorithms cycle
    from ..algorithms.base import OnlineAlgorithm

__all__ = ["simulate", "simulate_moving_client", "replay_cost", "StepCallback"]

#: Optional observer invoked after every step with
#: ``(t, old_position, new_position, batch_points)``.
StepCallback = Callable[[int, np.ndarray, np.ndarray, np.ndarray], None]


def simulate(
    instance: MSPInstance,
    algorithm: "OnlineAlgorithm",
    delta: float = 0.0,
    callback: StepCallback | None = None,
    metric: "str | Metric | None" = None,
) -> Trace:
    """Run ``algorithm`` on ``instance`` with augmentation ``delta``.

    Parameters
    ----------
    instance:
        The problem input (requests, start, ``D``, ``m``, cost model).
    algorithm:
        Any online algorithm; it is ``reset`` with cap :math:`(1+\\delta)m`.
    delta:
        Resource-augmentation factor :math:`\\delta \\ge 0`.
    callback:
        Optional per-step observer (used by the potential-function
        analysis); receives positions *after* validation.
    metric:
        The space the run is measured in — a registry name or
        :class:`~repro.core.metric.Metric` instance.  ``None`` (and the
        Euclidean instance) keep the exact ℓ2 hot path; the instance is
        also injected as ``algorithm.metric`` *before* ``reset`` so
        metric-aware algorithms pick it up.

    Returns
    -------
    Trace
        Full trajectory and per-step cost breakdown.
    """
    if metric is not None:
        metric = get_metric(metric)
        algorithm.metric = metric
        if metric.name == "euclidean":
            metric = None  # ℓ2 fast path is bit-identical by construction
    cap = instance.online_cap(delta)
    algorithm.reset(instance, cap)
    requests = instance.requests
    T = requests.length
    trace = Trace.allocate(T, instance.dim, algorithm=algorithm.name)
    trace.positions[0] = algorithm.position
    D = instance.D
    serve_after_move = instance.cost_model.serves_after_move
    counts_service = instance.cost_model.counts_service

    # ``pos`` is the simulator's private copy of the pre-move position.  It
    # must never alias ``algorithm.position``: a decide() that mutates its
    # position in place and returns it (legal-looking but against the API
    # contract) would otherwise corrupt movement accounting and the trace.
    pos = np.array(algorithm.position, dtype=np.float64, copy=True)
    for t in range(T):
        batch = requests[t]
        new_pos = np.asarray(algorithm.decide(t, batch), dtype=np.float64)
        moved = check_move(t, pos, new_pos, cap, algorithm.name, metric=metric)
        serving_pos = new_pos if serve_after_move else pos
        if batch.count and counts_service:
            if metric is None:
                service = float(distances_to(serving_pos, batch.points).sum())
            else:
                service = float(metric.distances_to(serving_pos, batch.points).sum())
        else:
            service = 0.0
        trace.positions[t + 1] = new_pos  # copies values out of new_pos
        trace.movement_costs[t] = D * moved
        trace.service_costs[t] = service
        trace.distances_moved[t] = moved
        trace.request_counts[t] = batch.count
        if callback is not None:
            callback(t, pos, new_pos, batch.points)
        algorithm.position = new_pos
        pos = np.array(new_pos, dtype=np.float64, copy=True)
    return trace


def simulate_moving_client(
    instance: MovingClientInstance,
    algorithm: "OnlineAlgorithm",
    delta: float = 0.0,
    callback: StepCallback | None = None,
) -> Trace:
    """Run the Moving Client variant (Section 5).

    The variant is the move-first model with one request per step at the
    agent's position; the agent's speed constraint is validated by the
    instance itself at construction.
    """
    return simulate(instance.as_msp(), algorithm, delta=delta, callback=callback)


def replay_cost(
    instance: MSPInstance,
    positions: np.ndarray,
    validate_cap: float | None = None,
) -> Trace:
    """Cost a *given* server trajectory on an instance.

    Used to evaluate offline solutions (DP outputs, analytic adversary
    trajectories) under exactly the same accounting as online runs,
    cost model included (a movement-only instance charges no service).

    Parameters
    ----------
    positions:
        ``(T + 1, d)`` trajectory including the starting position, or
        ``(T, d)`` of post-move positions (the start is prepended).
    validate_cap:
        When given, every step is checked against this cap.
    """
    requests = instance.requests
    T = requests.length
    positions = np.asarray(positions, dtype=np.float64)
    if positions.ndim != 2:
        raise ValueError(f"positions must be 2-D, got shape {positions.shape}")
    if positions.shape[0] == T:
        positions = np.vstack([instance.start[None, :], positions])
    if positions.shape[0] != T + 1:
        raise ValueError(
            f"need T+1={T + 1} positions (or T={T} post-move rows), got {positions.shape[0]}"
        )
    if positions.shape[1] != instance.dim:
        raise ValueError("trajectory dimension mismatch")

    trace = Trace.allocate(T, instance.dim, algorithm="replay")
    trace.positions[:] = positions
    seg = np.diff(positions, axis=0)
    moved = np.sqrt(np.einsum("ij,ij->i", seg, seg))
    trace.distances_moved[:] = moved
    trace.movement_costs[:] = instance.D * moved
    serve_after_move = instance.cost_model.serves_after_move
    counts_service = instance.cost_model.counts_service
    for t in range(T):
        batch = requests[t]
        trace.request_counts[t] = batch.count
        if batch.count and counts_service:
            serving_pos = positions[t + 1] if serve_after_move else positions[t]
            trace.service_costs[t] = float(distances_to(serving_pos, batch.points).sum())
    if validate_cap is not None:
        trace.validate_against_cap(validate_cap)
    return trace
