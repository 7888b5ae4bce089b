"""The long-lived ingestion front end behind ``mobile-server serve``.

A newline-delimited JSON protocol over stdin/stdout (default) or a TCP
socket (``--port``; port ``0`` picks an ephemeral one, announced on the
first stdout line).  Each request line is one JSON object with an
``op``; each reply is one JSON object with ``ok``.

Operations
----------

``{"op": "open", "session": id?, "spec": {...}}``
    Open a session (spec fields: ``algorithm``, ``dim``, ``start``, and
    optionally ``D``, ``m``, ``cost_model``, ``delta``,
    ``algorithm_params``).  Idempotent: re-opening an existing session
    with an equal spec reports its current step count — which is how a
    client blindly replays its script after a server crash.

``{"op": "feed", "session": id, "points": [[..], ..], "at": t?}``
    Feed the requests of one step (``points`` may be ``[]``) and advance
    the engine.  ``steps: [[[..],..], ..]`` feeds several consecutive
    steps at once.  ``at`` is the client-side step index, a non-negative
    integer: steps the session has already seen are acknowledged as
    duplicates instead of re-applied, so replay after resume is exact
    regardless of where the last checkpoint landed.  A re-fed step whose
    points differ from the recorded ones is an error.

``{"op": "feed-many", "feeds": [{"session": .., "points": ..}, ..]}``
    Batch ingestion: enqueue every feed, then drain once — sessions
    sharing an algorithm group advance in wide cross-lane waves (the
    serve benchmark's fast path).

``{"op": "state" | "trace" | "close", "session": id}``
    Query a lane's position/costs, read its full per-step trace
    (canonical JSON arrays — byte-diffable against a batch run), or
    close it: the final payload graduates to a content-addressed store
    entry, the session leaves the head and its segments no open session
    still references are deleted.

``{"op": "shutdown"}``
    Checkpoint every open session plus the head and exit cleanly.

Crash safety: opening a session records it in the server's head, and
every ``checkpoint_every`` committed steps (and at shutdown) one
checkpoint wave appends the due sessions' new steps as one segment and
rewrites the head — two atomic tmp+rename store writes, pinned against
gc while the server lives.  After a SIGKILL, ``--resume`` reloads the
head, verifies each session's segment chain and replays its history
through the engine, which restores positions, costs *and* carried
algorithm state bit-exactly (determinism), so the completed trace
equals an uninterrupted run's byte for byte.
"""

from __future__ import annotations

import asyncio
import json
import sys
from typing import Any, Mapping

from ..core.store import ResultsStore
from .checkpoint import CheckpointLog, save_final_result, save_session_checkpoint
from .parity import trace_json
from .pool import SessionPool
from .session import SessionSpec

__all__ = ["ServeServer"]


class ServeServer:
    """Protocol handler plus checkpoint cadence around a :class:`SessionPool`.

    The engine work is synchronous and CPU-bound; asyncio only multiplexes
    ingestion (stdin or sockets), so one server process is one engine.
    """

    def __init__(
        self,
        store_root,
        *,
        server_id: str = "serve",
        checkpoint_every: int = 16,
        fuse: bool | None = None,
    ) -> None:
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        self.store = ResultsStore(store_root)
        self.server_id = str(server_id)
        self.checkpoint_every = int(checkpoint_every)
        self.pool = SessionPool(fuse=fuse)
        self.checkpoints = CheckpointLog(self.store, self.server_id)
        self._stopping = False

    # -- lifecycle -------------------------------------------------------

    def resume(self) -> list[str]:
        """Restore every head session by replaying its verified history.

        Returns the restored session ids.  The restored sessions keep
        their stored segment chains, so resuming writes nothing; a broken
        chain raises :class:`~repro.serve.checkpoint.CheckpointError`
        naming the session.
        """
        restored = []
        for session_id, spec, history in self.checkpoints.restore():
            self.pool.open(spec, session_id).feed_steps(history, at=0)
            restored.append(session_id)
        # Deterministic replay: the engine re-derives positions, costs
        # and carried algorithm state from the request history.
        self.pool.drain()
        return restored

    def _checkpoint_due(self) -> None:
        """One checkpoint wave over the sessions a cadence past their last."""
        head = self.checkpoints.head
        due = [session for session_id, session in self.pool.sessions.items()
               if session.steps - head[session_id]["steps"] >= self.checkpoint_every]
        if due:
            save_session_checkpoint(self.checkpoints, due)

    def checkpoint_all(self) -> None:
        """Checkpoint every open session's unsaved steps plus the head."""
        if save_session_checkpoint(self.checkpoints,
                                   list(self.pool.sessions.values())) is None:
            self.checkpoints.save_head()

    # -- request handling ------------------------------------------------

    def handle(self, request: Mapping[str, Any]) -> dict:
        """Dispatch one decoded protocol request; never raises."""
        try:
            op = request.get("op")
            if op == "open":
                return self._op_open(request)
            if op == "feed":
                return self._op_feed(request)
            if op == "feed-many":
                return self._op_feed_many(request)
            if op == "state":
                return {"ok": True, **self.pool.get(self._sid(request)).state()}
            if op == "trace":
                session = self.pool.get(self._sid(request))
                return {"ok": True, "session": session.session_id,
                        "trace": json.loads(trace_json(session.trace()))}
            if op == "close":
                return self._op_close(request)
            if op == "shutdown":
                self.checkpoint_all()
                self._stopping = True
                return {"ok": True, "shutdown": True}
            if op == "ping":
                return {"ok": True}
            return {"ok": False, "error": f"unknown op {op!r}"}
        except Exception as exc:  # protocol surface: errors become replies
            return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}

    def handle_line(self, line: str | bytes) -> dict:
        try:
            request = json.loads(line)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            return {"ok": False, "error": f"bad JSON: {exc}"}
        if not isinstance(request, dict):
            return {"ok": False, "error": "request must be a JSON object"}
        return self.handle(request)

    @staticmethod
    def _sid(request: Mapping[str, Any]) -> str:
        session_id = request.get("session")
        if session_id is None:
            raise ValueError("request needs a 'session' field")
        return str(session_id)

    def _op_open(self, request: Mapping[str, Any]) -> dict:
        spec = SessionSpec.from_dict(request.get("spec") or {})
        session_id = request.get("session")
        if session_id is not None and str(session_id) in self.pool.sessions:
            existing = self.pool.get(str(session_id))
            if existing.spec != spec:
                return {"ok": False, "error":
                        f"session {session_id!r} is open with a different spec"}
            return {"ok": True, "session": existing.session_id,
                    "steps": existing.steps, "existing": True}
        session = self.pool.open(spec, session_id)
        self.checkpoints.open(session)
        return {"ok": True, "session": session.session_id,
                "steps": session.steps, "existing": False}

    @staticmethod
    def _enqueue(session, request: Mapping[str, Any]) -> int:
        at = request.get("at")
        if "steps" in request:
            return session.feed_steps(request["steps"], at=at)
        return int(session.feed(request.get("points"), at=at))

    @staticmethod
    def _unqueue(fed: list) -> None:
        """Pop the steps this call enqueued off each session's queue."""
        for session, enqueued in fed:
            for _ in range(min(enqueued, len(session.pending))):
                session.pending.pop()

    def _drain_or_rollback(self, fed: list) -> None:
        """Drain the pool; on engine failure, unqueue what this call fed.

        No wave commits partially (the engine validates before any
        commit), so popping the just-fed tail restores the pre-call
        queues and the error reply leaves the server consistent.
        """
        try:
            self.pool.drain()
        except Exception:
            self._unqueue(fed)
            raise

    def _op_feed(self, request: Mapping[str, Any]) -> dict:
        session = self.pool.get(self._sid(request))
        enqueued = self._enqueue(session, request)
        self._drain_or_rollback([(session, enqueued)])
        self._checkpoint_due()
        return {"ok": True, "session": session.session_id,
                "applied": enqueued, "steps": session.steps,
                "total_cost": session.total_cost}

    def _op_feed_many(self, request: Mapping[str, Any]) -> dict:
        feeds = request.get("feeds")
        if not isinstance(feeds, list):
            raise ValueError("feed-many needs a 'feeds' list")
        fed = []
        applied = 0
        try:
            for item in feeds:
                session = self.pool.get(self._sid(item))
                enqueued = self._enqueue(session, item)
                fed.append((session, enqueued))
                applied += enqueued
        except Exception:
            self._unqueue(fed)  # a rejected feed rejects the whole request
            raise
        self._drain_or_rollback(fed)
        self._checkpoint_due()
        return {"ok": True, "applied": applied,
                "sessions": len({s.session_id for s, _ in fed})}

    def _op_close(self, request: Mapping[str, Any]) -> dict:
        session_id = self._sid(request)
        session = self.pool.close(session_id)
        digest = save_final_result(self.store, session)
        self.checkpoints.close(session_id)
        return {"ok": True, "final": True, "digest": digest,
                "stream_digest": session.stream_digest(), **session.state()}

    # -- transports ------------------------------------------------------

    async def serve_stdio(self, out=None) -> None:
        """Serve newline-delimited JSON over stdin/stdout until EOF/shutdown."""
        out = out or sys.stdout
        loop = asyncio.get_running_loop()
        reader = asyncio.StreamReader()
        protocol = asyncio.StreamReaderProtocol(reader)
        await loop.connect_read_pipe(lambda: protocol, sys.stdin)
        while not self._stopping:
            line = await reader.readline()
            if not line:
                break
            if not line.strip():
                continue
            reply = self.handle_line(line)
            out.write(json.dumps(reply) + "\n")
            out.flush()
        if not self._stopping:
            # EOF without an explicit shutdown: leave resumable state.
            self.checkpoint_all()

    async def serve_tcp(self, host: str = "127.0.0.1", port: int = 0, out=None) -> None:
        """Serve the same line protocol over TCP; announces the bound port."""
        out = out or sys.stdout
        stop = asyncio.Event()

        async def client(reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
            try:
                while not self._stopping:
                    line = await reader.readline()
                    if not line:
                        break
                    if not line.strip():
                        continue
                    reply = self.handle_line(line)
                    writer.write((json.dumps(reply) + "\n").encode())
                    await writer.drain()
                    if self._stopping:
                        stop.set()
            finally:
                writer.close()

        server = await asyncio.start_server(client, host, port)
        bound = server.sockets[0].getsockname()
        out.write(f"listening on {bound[0]}:{bound[1]}\n")
        out.flush()
        async with server:
            await stop.wait()

    def run(self, *, host: str = "127.0.0.1", port: int | None = None) -> None:
        """Blocking entry point used by the CLI."""
        if port is None:
            asyncio.run(self.serve_stdio())
        else:
            asyncio.run(self.serve_tcp(host, port))
