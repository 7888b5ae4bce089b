"""Streaming serve subsystem: the batched engine as a long-lived service.

Everything else in this repository is offline — build the instance, run
``T`` steps, reduce.  This package inverts that: requests arrive one step
at a time, per tenant/client, and the engine advances *incrementally*
while a server process stays up.

Layers
------

:class:`OnlineSession` (``session.py``)
    One engine lane: feed request steps, read positions and costs so
    far, slice the finished run back into a :class:`~repro.core.trace.Trace`.

:class:`SessionPool` (``pool.py``)
    The tick loop.  Live sessions sharing ``(algorithm, params, dim,
    cost_model)`` are packed into one wide cross-lane
    :func:`~repro.core.engine.advance_lanes` call per tick, which steps
    the algorithm's fused kernel one step at a time — the same per-lane
    arithmetic as :func:`~repro.core.engine.simulate_batch`, so a
    streamed lane is bit-identical to a batch run of the composed
    instance (the licensing the mega-batcher already proved per lane).

``checkpoint.py``
    Durable checkpoints through the content-addressed
    :class:`~repro.core.store.ResultsStore` (atomic tmp+rename): the
    request history is the checkpoint, resume replays it through the
    engine, so a SIGKILL'd server completes traces bit-identically to an
    uninterrupted run.  Each checkpoint wave appends one immutable segment
    holding every due session's new steps and rewrites one small pinned
    head mapping each open session to its newest segment, so a checkpoint
    costs O(new steps) and two store writes.

:class:`ServeServer` (``server.py``)
    The asyncio ingestion front end behind ``mobile-server serve`` —
    stdin/JSONL or a TCP line protocol: open sessions, feed steps, query
    state, read traces, close.

``parity.py``
    The streamed-vs-batch bridges: batch references for a session and
    scenario streaming, so a finished streamed session is checked
    against :func:`repro.api.run` at equal digests.
"""

from .checkpoint import (
    CheckpointError,
    CheckpointLog,
    final_result_digest,
    head_digest,
    save_final_result,
    save_session_checkpoint,
)
from .parity import batch_reference, session_specs_for, stream_scenario, trace_json
from .pool import SessionPool, poolable
from .server import ServeServer
from .session import OnlineSession, SessionSpec, request_stream_digest

__all__ = [
    "CheckpointError",
    "CheckpointLog",
    "OnlineSession",
    "ServeServer",
    "SessionPool",
    "SessionSpec",
    "batch_reference",
    "final_result_digest",
    "head_digest",
    "poolable",
    "request_stream_digest",
    "save_final_result",
    "save_session_checkpoint",
    "session_specs_for",
    "stream_scenario",
    "trace_json",
]
