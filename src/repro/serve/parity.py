"""Streamed ↔ batch parity bridges.

The serve subsystem's correctness claim is *bit-identity*: a trace
streamed request-by-request through :class:`~repro.serve.OnlineSession`
equals a :func:`~repro.core.engine.simulate_batch` run of the composed
instance, float for float.  This module holds the pieces that state and
check that claim:

* :func:`batch_reference` — the batch-engine trace a finished (or
  partial) session must match;
* :func:`session_specs_for` / :func:`stream_scenario` — lower a
  declarative :class:`~repro.api.scenario.Scenario` to session specs and
  play its lanes through a :class:`~repro.serve.SessionPool`, so streamed
  results are checkable against :func:`repro.api.run` (same per-lane
  costs, same scenario digest addressing the inline result);
* :func:`trace_json` — a canonical text rendering of a trace.  JSON
  ``repr`` round-trips Python floats exactly, so two bit-identical
  traces render to byte-identical text — unlike ``.npz`` archives, whose
  zip metadata embeds timestamps.  The CI smoke job byte-diffs these.
"""

from __future__ import annotations

import json
from typing import Sequence

import numpy as np

from ..core.trace import Trace
from .pool import SessionPool
from .session import OnlineSession, SessionSpec

__all__ = [
    "batch_reference",
    "session_specs_for",
    "stream_scenario",
    "trace_json",
]


def batch_reference(
    spec: SessionSpec,
    history: Sequence[np.ndarray],
    *,
    fuse: bool | None = None,
) -> Trace:
    """The batch-engine trace for a session's spec and request history.

    Resolves the algorithm exactly as :func:`repro.api.run` does — the
    registry name when the spec carries no parameters (so fused kernels
    engage), a scalar factory otherwise.
    """
    from ..algorithms.registry import make_algorithm
    from ..core.engine import simulate_batch

    if spec.algorithm_params:
        kwargs = spec.algorithm_kwargs()
        algorithm = lambda: make_algorithm(spec.algorithm, **kwargs)  # noqa: E731
    else:
        algorithm = spec.algorithm
    batch = simulate_batch(
        [spec.instance(history)], algorithm, delta=spec.delta, fuse=fuse
    )
    return batch.trace(0)


def session_specs_for(scenario) -> list[tuple[SessionSpec, list[np.ndarray]]]:
    """Lower a scenario's per-seed instances to ``(spec, history)`` pairs.

    The spec reproduces each materialised instance's geometry and the
    scenario's algorithm selection, so streaming the returned history
    through a session plays the exact run :func:`repro.api.run` would.
    """
    from ..api.runtime import build_instances

    instances, _ = build_instances(scenario)
    lowered = []
    for inst in instances:
        spec = SessionSpec(
            algorithm=scenario.algorithm,
            dim=inst.dim,
            start=tuple(float(x) for x in inst.start),
            D=float(inst.D),
            m=float(inst.m),
            cost_model=inst.cost_model.value,
            delta=float(scenario.delta),
            algorithm_params=scenario.algorithm_params,
        )
        lowered.append((spec, [batch.points for batch in inst.requests]))
    return lowered


def stream_scenario(scenario, *, fuse: bool | None = None) -> list[OnlineSession]:
    """Play every lane of a scenario through a serve pool, step by step.

    All lanes are fed in lock-step (one request step per tick across the
    whole pool), exercising the cross-lane wave packing.  Returns the
    sessions after their streams are drained; compare their traces and
    totals against the scenario's :func:`repro.api.run` result.
    """
    pool = SessionPool(fuse=fuse)
    lowered = session_specs_for(scenario)
    sessions = [pool.open(spec, f"lane{i}") for i, (spec, _) in enumerate(lowered)]
    T = max((len(history) for _, history in lowered), default=0)
    for t in range(T):
        for session, (_, history) in zip(sessions, lowered):
            if t < len(history):
                session.feed(history[t])
        pool.tick()
    pool.drain()
    return sessions


def trace_json(trace: Trace) -> str:
    """Canonical JSON text of a trace; bit-identical traces ⇒ equal bytes."""
    return json.dumps(
        {
            "algorithm": trace.algorithm,
            "positions": trace.positions.tolist(),
            "movement_costs": trace.movement_costs.tolist(),
            "service_costs": trace.service_costs.tolist(),
            "distances_moved": trace.distances_moved.tolist(),
            "request_counts": trace.request_counts.tolist(),
            "total_cost": trace.total_cost,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
