"""Durable serve-session checkpoints: append-only segments plus one head.

A serve checkpoint is deliberately *not* a pickle of live state: the
algorithms carry in-process handles (RNG streams, scalar algorithm
objects) that cannot be serialized portably.  Instead a checkpoint stores
the session's durable identity — its :class:`~repro.serve.session.SessionSpec`
plus the exact request history committed so far — and resume *replays*
that history through the incremental engine.  Replay is deterministic
(the whole repo's bit-parity contract), so a resumed session reaches the
same position, costs and carried state an uninterrupted run would hold,
and the completed trace is bit-identical.

Layout
------

A checkpoint costs O(new steps) and exactly two store writes, however
many sessions are due and however long their histories are:

* **Segments** are immutable, content-addressed entries.  One checkpoint
  wave writes *one* segment holding every due session's new window — its
  per-step request counts, its points, its first step, the digest of the
  session's previous segment (``prev``) and the running stream digest at
  the window's end.  A session's segments form a ``prev`` chain back to
  step 0.  The address hashes the server id and each window's
  ``(first, steps, prev, stream digest)``; the stream digest covers every
  request up to the window's end, so the address is a function of the
  content without hashing the points twice.
* **The head** is one mutable slot per server (its digest hashes only the
  server id — never payload contents, never wall-clock time, CLK001-
  linted).  It maps each open session to ``{spec, steps, tip,
  stream_digest}``, where ``tip`` is the session's newest segment.  The
  head is written after the segment, so a crash between the two writes
  resumes the previous consistent state and leaves an unreferenced
  segment for :meth:`ResultsStore.gc`.

Resume walks each session's chain from its tip, concatenates the windows
and re-verifies the history against the head's stream digest with
:func:`~repro.serve.session.request_stream_digest`; a missing, torn or
tampered segment raises :class:`CheckpointError` naming the session.
The head and every live segment are pinned for the lifetime of the
owning process, so a :meth:`ResultsStore.gc` pass in that process never
evicts a live chain.  Pins do not cross processes, so every wave also
re-stamps the live segments' mtimes: another process's LRU gc evicts
them only after every entry not used since the last wave (``gc(0)``
from another process still evicts them).  Closing a session drops it
from the head, then deletes the segments no open session references
any more.

Finished sessions graduate to an ordinary *content-addressed* result:
:func:`final_result_digest` hashes the spec plus the stream digest, so
any server (or an inline batch run) completing the same stream writes
the same entry.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Mapping, Sequence

import numpy as np

from ..core.store import ResultsStore, digest_key
from .session import OnlineSession, SessionSpec, request_stream_digest

__all__ = [
    "CheckpointError",
    "CheckpointLog",
    "final_result_digest",
    "head_digest",
    "save_final_result",
    "save_session_checkpoint",
]

# The head took over the pre-segment manifest's slot, so an old-format
# manifest is found there and rejected instead of silently ignored.
_HEAD_FN = "repro.serve.checkpoint:manifest"
_SEGMENT_FN = "repro.serve.checkpoint:segment"
_FINAL_FN = "repro.serve.checkpoint:final"


class CheckpointError(ValueError):
    """A head or segment chain that cannot be resumed."""


def head_digest(server_id: str) -> str:
    """Mutable-slot address of a server's head record."""
    return digest_key(_HEAD_FN, {"server": str(server_id)})


def final_result_digest(spec: SessionSpec, stream_digest: str) -> str:
    """Content address of a *finished* session's result payload."""
    return digest_key(_FINAL_FN, {"spec": spec.to_dict(),
                                  "stream": stream_digest})


class CheckpointLog:
    """One server's durable session state: the head and its segment chains.

    ``head`` mirrors the stored head record (session id -> ``{spec,
    steps, tip, stream_digest}``); ``chains`` lists each open session's
    segments oldest first, and ``refs`` counts the open sessions whose
    chain holds each segment.
    """

    def __init__(self, store: ResultsStore, server_id: str) -> None:
        self.store = store
        self.server_id = str(server_id)
        self.head: dict[str, dict] = {}
        self.chains: dict[str, list[str]] = {}
        self.refs: Counter = Counter()

    def save_head(self) -> None:
        """Write the head, or drop it once no session is open."""
        digest = head_digest(self.server_id)
        if not self.head:
            self.store.unpin(digest)
            self.store.delete(digest)
            return
        self.store.pin(digest)
        self.store.save(digest, {"kind": "serve-head", "server": self.server_id,
                                 "sessions": self.head})

    def open(self, session: OnlineSession) -> None:
        """Record a new, empty session in the head (the only write)."""
        self.head[session.session_id] = {
            "spec": session.spec.to_dict(), "steps": session.steps,
            "tip": None, "stream_digest": session.stream_digest(),
        }
        self.chains[session.session_id] = []
        self.save_head()

    def close(self, session_id: str) -> None:
        """Drop a session from the head, then its now-unreferenced segments."""
        del self.head[session_id]
        self.save_head()
        for digest in self.chains.pop(session_id):
            self.refs[digest] -= 1
            if not self.refs[digest]:
                del self.refs[digest]
                self.store.unpin(digest)
                self.store.delete(digest)

    def restore(self) -> list[tuple[str, SessionSpec, list[np.ndarray]]]:
        """Load the stored head and every session's verified history.

        Returns ``(session id, spec, request history)`` per open session
        and adopts the stored tips, so nothing is rewritten.  Raises
        :class:`CheckpointError` naming the session on a broken chain.
        """
        try:
            payload = self.store.load(head_digest(self.server_id))
        except FileNotFoundError:
            return []
        except Exception as exc:
            raise CheckpointError(
                f"server {self.server_id!r}: head is unreadable ({exc})") from exc
        kind = payload.get("kind") if isinstance(payload, Mapping) else None
        if kind == "serve-manifest":
            raise CheckpointError(
                f"server {self.server_id!r}: the store holds a manifest in the "
                "old per-session-slot format, which this version cannot resume")
        if kind != "serve-head":
            raise CheckpointError(f"entry for server {self.server_id!r} is not a serve head")
        segments: dict[str, Any] = {}
        head: dict[str, dict] = {}
        chains: dict[str, list[str]] = {}
        restored = []
        for session_id, entry in payload["sessions"].items():
            try:
                spec = SessionSpec.from_dict(entry["spec"])
                chain, history = self._load_chain(session_id, entry, spec.dim, segments)
            except Exception as exc:
                raise CheckpointError(f"session {session_id!r}: {exc}") from exc
            head[session_id] = entry
            chains[session_id] = chain
            restored.append((session_id, spec, history))
        # Adopt and pin only once the whole head has verified, so a
        # failed resume leaves this log empty.
        self.head, self.chains = head, chains
        self.refs = Counter(digest for chain in chains.values() for digest in chain)
        for digest in self.refs:
            self.store.pin(digest)
        self.store.pin(head_digest(self.server_id))
        return restored

    def _load_chain(self, session_id: str, entry: Mapping, dim: int,
                    segments: dict) -> tuple[list[str], list[np.ndarray]]:
        """Walk ``entry``'s ``prev`` chain; returns (chain, history), oldest first."""
        chain: list[str] = []
        windows: list[list[np.ndarray]] = []
        end = int(entry["steps"])
        digest = entry["tip"]
        while digest is not None:
            if digest not in segments:
                try:
                    segments[digest] = self.store.load(digest)
                except Exception as exc:
                    raise CheckpointError(
                        f"segment {digest} is missing or unreadable ({exc})") from exc
            segment = segments[digest]
            window = segment["sessions"][session_id]
            first, steps = int(window["first"]), int(window["steps"])
            if not 0 <= first < end or first + steps != end:
                raise CheckpointError(f"segment {digest} does not continue the chain")
            # A short or shifted slice cannot pass the digest check below.
            counts = segment["counts"][window["counts_at"]:][:steps]
            values = segment["points"][window["values_at"]:][:int(counts.sum()) * dim]
            windows.append(np.split(values.reshape(-1, dim), np.cumsum(counts)[:-1]))
            chain.append(digest)
            end, digest = first, window["prev"]
        if end != 0:
            raise CheckpointError(f"chain ends at step {end}, not 0")
        history = [pts for window in reversed(windows) for pts in window]
        if request_stream_digest(history, dim) != entry["stream_digest"]:
            raise CheckpointError("history failed its stream-digest check")
        return chain[::-1], history


def save_session_checkpoint(log: CheckpointLog, sessions: Sequence[OnlineSession]) -> str | None:
    """Checkpoint one wave: one segment for ``sessions``' new steps, then the head.

    Returns the segment digest, or ``None`` when no session has a step
    past its last checkpoint.  The segment is pinned before the write so
    an interleaved ``gc`` pass in this process never evicts it.
    """
    windows: dict[str, dict] = {}
    counts: list[int] = []
    values: list[np.ndarray] = []
    values_at = 0
    for session in sessions:
        entry = log.head[session.session_id]
        first = entry["steps"]
        steps = session.history[first:]
        if not steps:
            continue
        windows[session.session_id] = {
            "first": first, "steps": len(steps), "prev": entry["tip"],
            "stream_digest": session.stream_digest(),
            "counts_at": len(counts), "values_at": values_at,
        }
        for pts in steps:
            counts.append(pts.shape[0])
            values.append(pts.ravel())
            values_at += pts.size
    if not windows:
        return None
    # Pins guard only this process; re-stamping every live segment keeps
    # the chains no older than this wave for another process's LRU gc.
    for live in log.refs:
        log.store.touch(live)
    digest = digest_key(_SEGMENT_FN, {
        "server": log.server_id,
        "windows": {sid: [w["first"], w["steps"], w["prev"], w["stream_digest"]]
                    for sid, w in windows.items()},
    })
    log.store.pin(digest)
    log.store.save(digest, {
        "kind": "serve-segment",
        "server": log.server_id,
        "sessions": windows,
        "counts": np.asarray(counts, dtype=np.int64),
        "points": np.concatenate(values),
    })
    for session_id, window in windows.items():
        log.head[session_id].update(steps=window["first"] + window["steps"], tip=digest,
                                    stream_digest=window["stream_digest"])
        log.chains[session_id].append(digest)
        log.refs[digest] += 1
    log.save_head()
    return digest


def save_final_result(store: ResultsStore, session: OnlineSession) -> str:
    """Graduate a finished session to a content-addressed result entry."""
    digest = final_result_digest(session.spec, session.stream_digest())
    store.save(digest, session.final_payload())
    return digest
