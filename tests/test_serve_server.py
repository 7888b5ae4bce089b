"""The serve front end (:class:`repro.serve.server.ServeServer`).

Protocol semantics in-process — open idempotency, ``at``-indexed replay,
error replies, checkpoint cadence, close/graduation, resume — plus the
crash drill the CI ``serve-smoke`` job scripts: a real ``mobile-server
serve`` subprocess SIGKILLed mid-stream, resumed with ``--resume``, its
replayed trace byte-diffed against an uninterrupted inline batch run.
"""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np

from repro.core.store import ResultsStore
from repro.serve import (
    batch_reference,
    final_result_digest,
    load_manifest,
    load_session_checkpoint,
    session_checkpoint_digest,
    trace_json,
)
from repro.serve.server import ServeServer

_SRC = str(Path(__file__).resolve().parent.parent / "src")

SPEC = {"algorithm": "mtc", "dim": 2, "start": [0.0, 0.0],
        "D": 1.5, "m": 0.7, "cost_model": "move-first", "delta": 0.25}


def spec_history(steps=20, seed=5, dim=2):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=(int(rng.integers(0, 4)), dim)).tolist()
            for _ in range(steps)]


def make_server(tmp_path, **kw):
    return ServeServer(tmp_path / "store", server_id="srv", **kw)


class TestProtocol:
    def test_open_feed_state_trace_close(self, tmp_path):
        server = make_server(tmp_path)
        reply = server.handle({"op": "open", "session": "s1", "spec": SPEC})
        assert reply == {"ok": True, "session": "s1", "steps": 0, "existing": False}

        history = spec_history(6)
        for t, points in enumerate(history):
            reply = server.handle({"op": "feed", "session": "s1",
                                   "points": points, "at": t})
            assert reply["ok"] and reply["applied"] == 1 and reply["steps"] == t + 1

        state = server.handle({"op": "state", "session": "s1"})
        assert state["ok"] and state["steps"] == 6 and not state["closed"]

        trace = server.handle({"op": "trace", "session": "s1"})["trace"]
        from repro.serve import SessionSpec
        reference = batch_reference(SessionSpec.from_dict(SPEC),
                                    [np.asarray(p).reshape(-1, 2) for p in history])
        assert json.dumps(trace, sort_keys=True, separators=(",", ":")) == \
            trace_json(reference)

        closed = server.handle({"op": "close", "session": "s1"})
        assert closed["ok"] and closed["final"] and closed["closed"]
        assert closed["digest"] == final_result_digest(
            SessionSpec.from_dict(SPEC), closed["stream_digest"])
        assert server.store.load_or_none(closed["digest"]) is not None

    def test_open_is_idempotent_mismatch_is_error(self, tmp_path):
        server = make_server(tmp_path)
        server.handle({"op": "open", "session": "s1", "spec": SPEC})
        again = server.handle({"op": "open", "session": "s1", "spec": SPEC})
        assert again == {"ok": True, "session": "s1", "steps": 0, "existing": True}
        other = dict(SPEC, delta=0.5)
        reply = server.handle({"op": "open", "session": "s1", "spec": other})
        assert not reply["ok"] and "different spec" in reply["error"]

    def test_duplicate_feed_acknowledged_gap_is_error(self, tmp_path):
        server = make_server(tmp_path)
        server.handle({"op": "open", "session": "s1", "spec": SPEC})
        pts = [[0.5, 0.5]]
        first = server.handle({"op": "feed", "session": "s1", "points": pts, "at": 0})
        assert first["applied"] == 1
        dup = server.handle({"op": "feed", "session": "s1", "points": pts, "at": 0})
        assert dup["ok"] and dup["applied"] == 0 and dup["steps"] == 1
        gap = server.handle({"op": "feed", "session": "s1", "points": pts, "at": 7})
        assert not gap["ok"] and "gap" in gap["error"]

    def test_at_must_be_a_non_negative_integer(self, tmp_path):
        server = make_server(tmp_path)
        server.handle({"op": "open", "session": "s1", "spec": SPEC})
        line = '{"op": "feed", "session": "s1", "points": [[0.5, 0.5]], "at": %s}'
        assert server.handle_line(line % "0")["applied"] == 1
        for bad in ("1.5", "1.0", "-1", "true", '"1"'):
            reply = server.handle_line(line % bad)
            assert not reply["ok"] and "non-negative integer" in reply["error"], bad
        state = server.handle({"op": "state", "session": "s1"})
        assert state["steps"] == 1 and state["pending"] == 0

    def test_conflicting_replay_is_error_identical_replay_is_noop(self, tmp_path):
        server = make_server(tmp_path)
        server.handle({"op": "open", "session": "s1", "spec": SPEC})
        first = server.handle_line(
            '{"op": "feed", "session": "s1", "points": [[1e308, 1e308]], "at": 0}')
        assert first["ok"] and first["applied"] == 1
        same = server.handle_line(
            '{"op": "feed", "session": "s1", "points": [[1e308, 1e308]], "at": 0}')
        assert same["ok"] and same["applied"] == 0
        for points in ("[]", "[[1e308, 1e307]]", "[[1e308, 1e308], [0.0, 0.0]]"):
            reply = server.handle_line(
                '{"op": "feed", "session": "s1", "points": %s, "at": 0}' % points)
            assert not reply["ok"] and "different requests" in reply["error"], points
        # A conflicting step inside a feed-many rejects the whole request.
        reply = server.handle({"op": "feed-many", "feeds": [
            {"session": "s1", "points": [[0.0, 1.0]], "at": 1},
            {"session": "s1", "points": [], "at": 0},
        ]})
        assert not reply["ok"] and "different requests" in reply["error"]
        state = server.handle({"op": "state", "session": "s1"})
        assert state["steps"] == 1 and state["pending"] == 0

    def test_error_replies_never_raise(self, tmp_path):
        server = make_server(tmp_path)
        assert not server.handle({"op": "nope"})["ok"]
        assert not server.handle({"op": "feed", "session": "ghost",
                                  "points": []})["ok"]
        assert not server.handle({"op": "state"})["ok"]  # missing session field
        assert not server.handle_line(b"{broken json")["ok"]
        assert not server.handle_line(b"[1, 2]")["ok"]
        bad_spec = server.handle({"op": "open", "spec": {"algorithm": "mtc"}})
        assert not bad_spec["ok"]

    def test_feed_many_batches_across_sessions(self, tmp_path):
        server = make_server(tmp_path)
        for sid in ("a", "b", "c"):
            server.handle({"op": "open", "session": sid, "spec": SPEC})
        histories = {sid: spec_history(10, seed=ord(sid)) for sid in "abc"}
        reply = server.handle({"op": "feed-many", "feeds": [
            {"session": sid, "steps": histories[sid], "at": 0} for sid in "abc"
        ]})
        assert reply["ok"] and reply["applied"] == 30 and reply["sessions"] == 3
        from repro.serve import SessionSpec
        for sid in "abc":
            got = server.handle({"op": "trace", "session": sid})["trace"]
            want = batch_reference(
                SessionSpec.from_dict(SPEC),
                [np.asarray(p).reshape(-1, 2) for p in histories[sid]])
            assert json.dumps(got, sort_keys=True, separators=(",", ":")) == \
                trace_json(want)

    def test_shutdown_checkpoints_and_stops(self, tmp_path):
        server = make_server(tmp_path)
        server.handle({"op": "open", "session": "s1", "spec": SPEC})
        server.handle({"op": "feed", "session": "s1", "points": [[1.0, 0.0]]})
        reply = server.handle({"op": "shutdown"})
        assert reply == {"ok": True, "shutdown": True}
        assert server._stopping
        spec, history = load_session_checkpoint(server.store, "srv", "s1")
        assert len(history) == 1


class TestCheckpointing:
    def test_cadence_and_manifest(self, tmp_path):
        server = make_server(tmp_path, checkpoint_every=4)
        server.handle({"op": "open", "session": "s1", "spec": SPEC})
        assert load_manifest(server.store, "srv") == ["s1"]
        history = spec_history(6)
        for t in range(3):
            server.handle({"op": "feed", "session": "s1",
                           "points": history[t], "at": t})
        # Below cadence: checkpoint still holds the open-time snapshot.
        _, ckpt = load_session_checkpoint(server.store, "srv", "s1")
        assert len(ckpt) == 0
        server.handle({"op": "feed", "session": "s1", "points": history[3], "at": 3})
        _, ckpt = load_session_checkpoint(server.store, "srv", "s1")
        assert len(ckpt) == 4

    def test_open_sessions_pinned_against_gc(self, tmp_path):
        server = make_server(tmp_path)
        server.handle({"op": "open", "session": "s1", "spec": SPEC})
        digest = session_checkpoint_digest("srv", "s1")
        assert digest in server.store.pinned()
        server.store.gc(0)
        assert server.store.load_or_none(digest) is not None
        server.handle({"op": "close", "session": "s1"})
        assert digest not in server.store.pinned()
        assert server.store.load_or_none(digest) is None

    def test_resume_restores_bit_identical_state(self, tmp_path):
        history = spec_history(20)
        server = make_server(tmp_path, checkpoint_every=4)
        server.handle({"op": "open", "session": "s1", "spec": SPEC})
        for t in range(11):
            server.handle({"op": "feed", "session": "s1",
                           "points": history[t], "at": t})
        # Simulate a crash: drop the server object without shutdown.  The
        # last cadence checkpoint (step 8) plus the client's replay with
        # 'at' indices must reconstruct the stream exactly.
        del server

        revived = make_server(tmp_path, checkpoint_every=4)
        assert revived.resume() == ["s1"]
        reopened = revived.handle({"op": "open", "session": "s1", "spec": SPEC})
        assert reopened["existing"] and reopened["steps"] == 8
        for t in range(20):  # blind full replay; dups acknowledged
            revived.handle({"op": "feed", "session": "s1",
                            "points": history[t], "at": t})
        got = revived.handle({"op": "trace", "session": "s1"})["trace"]
        from repro.serve import SessionSpec
        want = batch_reference(SessionSpec.from_dict(SPEC),
                               [np.asarray(p).reshape(-1, 2) for p in history])
        assert json.dumps(got, sort_keys=True, separators=(",", ":")) == \
            trace_json(want)


class _Client:
    """Line-protocol driver for a ``mobile-server serve`` subprocess."""

    def __init__(self, store: Path, *, resume=False, checkpoint_every=7):
        cmd = [sys.executable, "-m", "repro", "serve",
               "--store", str(store), "--server-id", "smoke",
               "--checkpoint-every", str(checkpoint_every)]
        if resume:
            cmd.append("--resume")
        self.proc = subprocess.Popen(
            cmd, env=dict(os.environ, PYTHONPATH=_SRC),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True)

    def call(self, request: dict) -> dict:
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        assert line, "server died mid-conversation"
        return json.loads(line)

    def kill(self):
        self.proc.send_signal(signal.SIGKILL)
        self.proc.wait(timeout=30)

    def finish(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(timeout=30)


class TestServeSmoke:
    def test_sigkill_resume_byte_identical(self, tmp_path):
        """The CI serve-smoke drill: kill -9 mid-stream, resume, byte-diff."""
        store_root = tmp_path / "store"
        history = spec_history(40, seed=9)

        client = _Client(store_root)
        try:
            assert client.call({"op": "open", "session": "s1", "spec": SPEC})["ok"]
            for t in range(23):
                assert client.call({"op": "feed", "session": "s1",
                                    "points": history[t], "at": t})["ok"]
            client.kill()
        finally:
            client.finish()

        revived = _Client(store_root, resume=True)
        try:
            reply = revived.call({"op": "open", "session": "s1", "spec": SPEC})
            assert reply["ok"] and reply["existing"]
            assert 0 < reply["steps"] <= 23  # restored from the last checkpoint
            for t in range(40):  # blind replay of the whole script
                assert revived.call({"op": "feed", "session": "s1",
                                     "points": history[t], "at": t})["ok"]
            streamed = revived.call({"op": "trace", "session": "s1"})["trace"]
            closed = revived.call({"op": "close", "session": "s1"})
            assert closed["ok"]
            assert revived.call({"op": "shutdown"})["ok"]
        finally:
            revived.finish()

        from repro.serve import SessionSpec
        spec = SessionSpec.from_dict(SPEC)
        reference = batch_reference(
            spec, [np.asarray(p).reshape(-1, 2) for p in history])
        assert json.dumps(streamed, sort_keys=True, separators=(",", ":")) == \
            trace_json(reference)
        # The graduated final entry is content-addressed by (spec, stream).
        assert closed["digest"] == final_result_digest(spec, closed["stream_digest"])
        assert ResultsStore(store_root).load_or_none(closed["digest"]) is not None
