"""The serve front end (:class:`repro.serve.server.ServeServer`).

Protocol semantics in-process — open idempotency, ``at``-indexed replay,
error replies, checkpoint cadence, close/graduation, resume — the
durability of the segment chains behind resume, plus the crash drill the
CI ``serve-smoke`` job scripts: a real ``mobile-server serve`` subprocess
SIGKILLed mid-stream, resumed with ``--resume``, its replayed trace
byte-diffed against an uninterrupted inline batch run, and a resume from
a chain with a deleted segment refused with exit status 2.
"""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.store import ResultsStore
from repro.serve import (
    CheckpointError,
    CheckpointLog,
    batch_reference,
    final_result_digest,
    head_digest,
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


def checkpointed(store, server_id="srv"):
    """Session id -> checkpointed request history, as a resume would see it."""
    return {sid: history
            for sid, _, history in CheckpointLog(store, server_id).restore()}


def feed_all(server, sid, history, start=0, stop=None):
    for t in range(start, len(history) if stop is None else stop):
        assert server.handle({"op": "feed", "session": sid,
                              "points": history[t], "at": t})["ok"]


def assert_matches_batch(server, sid, history):
    from repro.serve import SessionSpec
    got = server.handle({"op": "trace", "session": sid})["trace"]
    want = batch_reference(SessionSpec.from_dict(SPEC),
                           [np.asarray(p).reshape(-1, 2) for p in history])
    assert json.dumps(got, sort_keys=True, separators=(",", ":")) == trace_json(want)


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

    def test_failed_shared_wave_leaves_other_lanes_intact(self, tmp_path):
        # pm-coin-flip under the graph metric runs through the scalar
        # adapter: its three lanes share one wave, and each lane's coin
        # flip consumes its RNG in place.  A request naming a node that
        # does not exist fails the wave after the earlier lanes decided;
        # they must not keep that step, or their streams drift.
        from repro.core.metric import get_metric
        from repro.serve import SessionSpec

        graph = get_metric("graph")
        spec = {"algorithm": "pm-coin-flip", "dim": 3, "start": [0.0, 0.0, 0.0],
                "D": 2.0, "m": 50.0, "cost_model": "move-first", "delta": 0.0,
                "metric": "graph"}
        rng = np.random.default_rng(3)
        histories = {sid: [[graph.node_point(int(rng.integers(0, graph.n_nodes))).tolist()]
                           for _ in range(12)] for sid in "abc"}
        server = make_server(tmp_path)
        for sid in "abc":
            assert server.handle({"op": "open", "session": sid, "spec": spec})["ok"]

        def feed_many(t, points):
            return server.handle({"op": "feed-many", "feeds": [
                {"session": sid, "points": points[sid], "at": t} for sid in "abc"]})

        for t in range(6):
            assert feed_many(t, {sid: histories[sid][t] for sid in "abc"})["ok"]
        bad = {"a": histories["a"][6], "b": histories["b"][6], "c": [[0.0, 99.0, 0.0]]}
        reply = feed_many(6, bad)
        assert not reply["ok"] and "outside" in reply["error"]
        for t in range(6, 12):
            assert feed_many(t, {sid: histories[sid][t] for sid in "abc"})["ok"]
        for sid in "abc":
            got = server.handle({"op": "trace", "session": sid})["trace"]
            want = batch_reference(SessionSpec.from_dict(spec),
                                   [np.asarray(p) for p in histories[sid]])
            assert json.dumps(got, sort_keys=True, separators=(",", ":")) == \
                trace_json(want)

    def test_shutdown_checkpoints_and_stops(self, tmp_path):
        server = make_server(tmp_path)
        server.handle({"op": "open", "session": "s1", "spec": SPEC})
        server.handle({"op": "feed", "session": "s1", "points": [[1.0, 0.0]]})
        reply = server.handle({"op": "shutdown"})
        assert reply == {"ok": True, "shutdown": True}
        assert server._stopping
        assert len(checkpointed(server.store)["s1"]) == 1

    def test_non_utf8_bytes_reply_bad_json_and_keep_serving(self, tmp_path):
        server = make_server(tmp_path)
        reply = server.handle_line(b"\xff\xfe{")
        assert not reply["ok"] and reply["error"].startswith("bad JSON: ")
        assert server.handle_line(b'{"op": "ping"}') == {"ok": True}

    def test_open_rejects_unknown_algorithm_and_writes_nothing(self, tmp_path):
        server = make_server(tmp_path)
        reply = server.handle({"op": "open", "session": "s1",
                               "spec": dict(SPEC, algorithm="nope")})
        assert not reply["ok"] and "unknown algorithm 'nope'" in reply["error"]
        assert len(server.pool) == 0 and len(server.store) == 0

    @pytest.mark.parametrize("field", ["D", "m", "delta"])
    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity"])
    def test_open_rejects_non_finite_knobs_and_writes_nothing(self, tmp_path, field, value):
        server = make_server(tmp_path)
        line = json.dumps({"op": "open", "session": "s1", "spec": SPEC})
        line = line.replace(f'"{field}": {SPEC[field]}', f'"{field}": {value}')
        assert value in line
        reply = server.handle_line(line)
        assert not reply["ok"] and f"{field} must be finite" in reply["error"]
        assert len(server.pool) == 0 and len(server.store) == 0


class TestCheckpointing:
    def test_cadence_and_head(self, tmp_path):
        server = make_server(tmp_path, checkpoint_every=4)
        server.handle({"op": "open", "session": "s1", "spec": SPEC})
        assert list(checkpointed(server.store)) == ["s1"]
        history = spec_history(6)
        for t in range(3):
            server.handle({"op": "feed", "session": "s1",
                           "points": history[t], "at": t})
        # Below cadence: the head still holds the open-time snapshot.
        assert len(checkpointed(server.store)["s1"]) == 0
        server.handle({"op": "feed", "session": "s1", "points": history[3], "at": 3})
        assert len(checkpointed(server.store)["s1"]) == 4

    def test_open_sessions_pinned_against_gc(self, tmp_path):
        server = make_server(tmp_path, checkpoint_every=2)
        server.handle({"op": "open", "session": "s1", "spec": SPEC})
        digest = head_digest("srv")
        assert digest in server.store.pinned()
        server.store.gc(0)
        assert server.store.load_or_none(digest) is not None
        feed_all(server, "s1", spec_history(4))
        segments = server.checkpoints.chains["s1"]
        assert len(segments) == 2 and set(segments) <= server.store.pinned()
        server.handle({"op": "close", "session": "s1"})
        for entry in [digest, *segments]:
            assert entry not in server.store.pinned()
            assert server.store.load_or_none(entry) is None

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


class TestDurability:
    """Segment chains: every way a checkpoint can be damaged or cut short."""

    def _checkpointed_server(self, tmp_path, steps=12, sessions=("s1",)):
        server = make_server(tmp_path, checkpoint_every=4)
        for sid in sessions:
            server.handle({"op": "open", "session": sid, "spec": SPEC})
        history = spec_history(steps)
        for t in range(steps):
            assert server.handle({"op": "feed-many", "feeds": [
                {"session": sid, "points": history[t], "at": t}
                for sid in sessions]})["ok"]
        return server, history

    @pytest.mark.parametrize("damage", ["delete", "garbage", "tamper"])
    def test_broken_non_tip_segment_fails_resume(self, tmp_path, damage):
        server, _ = self._checkpointed_server(tmp_path)
        chain = list(server.checkpoints.chains["s1"])
        assert len(chain) == 3
        victim = chain[1]
        store = server.store
        del server
        if damage == "delete":
            assert store.delete(victim)
        elif damage == "garbage":
            store.path_for(victim).write_bytes(b"not an npz archive")
        else:
            payload = store.load(victim)
            payload["points"][0] += 1.0
            store.save(victim, payload)
        revived = make_server(tmp_path, checkpoint_every=4)
        with pytest.raises(CheckpointError, match="session 's1'"):
            revived.resume()
        assert len(revived.pool) == 0  # never a shorter or different trace

    def test_failed_resume_adopts_and_pins_nothing(self, tmp_path):
        server, history = self._checkpointed_server(tmp_path, steps=8, sessions=("a",))
        server.handle({"op": "open", "session": "b", "spec": SPEC})
        feed_all(server, "b", history)
        victim = server.checkpoints.chains["b"][0]
        assert victim not in server.checkpoints.chains["a"]
        store = server.store
        del server
        assert store.delete(victim)
        revived = make_server(tmp_path, checkpoint_every=4)
        with pytest.raises(CheckpointError, match="session 'b'"):
            revived.resume()
        # Session 'a' verified before 'b' failed, yet nothing was adopted.
        log = revived.checkpoints
        assert log.head == {} and log.chains == {} and not log.refs
        assert not revived.store.pinned()
        assert len(revived.pool) == 0

    def test_crash_between_segment_and_head_resumes_previous_state(self, tmp_path):
        server, _ = self._checkpointed_server(tmp_path, steps=6)
        tip = server.checkpoints.head["s1"]["tip"]
        history = spec_history(20)

        def crash():
            raise RuntimeError("killed before the head write")

        server.checkpoints.save_head = crash
        feed_all(server, "s1", history, 6, 7)
        reply = server.handle({"op": "feed", "session": "s1",
                               "points": history[7], "at": 7})
        assert not reply["ok"] and "killed" in reply["error"]
        assert len(server.store) == 3  # head, the step-4 segment and the orphan
        del server

        revived = make_server(tmp_path, checkpoint_every=4)
        assert revived.resume() == ["s1"]
        assert revived.pool.get("s1").steps == 4
        assert revived.checkpoints.head["s1"]["tip"] == tip
        feed_all(revived, "s1", history)
        assert_matches_batch(revived, "s1", history)

    def test_gc_zero_keeps_every_live_chain(self, tmp_path):
        server, history = self._checkpointed_server(tmp_path, sessions=("a", "b", "c"))
        server.store.gc(0)
        revived = make_server(tmp_path, checkpoint_every=4)
        assert sorted(revived.resume()) == ["a", "b", "c"]
        for sid in "abc":
            assert revived.pool.get(sid).steps == 12
            assert_matches_batch(revived, sid, history)

    def test_gc_from_another_process_keeps_live_chains(self, tmp_path):
        server, _ = self._checkpointed_server(tmp_path, steps=8)
        history = spec_history(12)
        # Another process's handle on the same store: it sees no pins.
        other = ResultsStore(tmp_path / "store")
        fillers = [f"filler-{i}" for i in range(3)]
        for digest in fillers:
            other.save(digest, {"data": np.arange(64.0)})
        # Age the first two waves' segments below the fillers, as a long
        # run would; the next wave must re-stamp them.
        for digest, age in [(d, 200) for d in server.checkpoints.refs] + \
                [(d, 100) for d in fillers]:
            old = os.stat(other.path_for(digest)).st_mtime - age
            os.utime(other.path_for(digest), (old, old))
        feed_all(server, "s1", history, 8)
        chain = list(server.checkpoints.chains["s1"])
        assert len(chain) == 3
        live = [head_digest("srv"), *chain]
        other.gc(sum(other.path_for(d).stat().st_size for d in live))
        assert other.entry_digests() == set(live)
        del server

        revived = make_server(tmp_path, checkpoint_every=4)
        assert revived.resume() == ["s1"]
        assert revived.pool.get("s1").steps == 12
        assert_matches_batch(revived, "s1", history)

    def test_closing_every_session_leaves_only_final_results(self, tmp_path):
        server, _ = self._checkpointed_server(tmp_path, steps=10, sessions=("a", "b"))
        server.handle({"op": "open", "session": "c", "spec": SPEC})
        finals = {server.handle({"op": "close", "session": sid})["digest"]
                  for sid in ("a", "c", "b")}
        assert server.store.entry_digests() == finals
        assert not server.store.pinned()

    def test_resume_then_feed_extends_chain_without_rewriting(self, tmp_path):
        server, _ = self._checkpointed_server(tmp_path, steps=8)
        old_chain = list(server.checkpoints.chains["s1"])
        old_bytes = {d: server.store.path_for(d).read_bytes() for d in old_chain}
        del server

        revived = make_server(tmp_path, checkpoint_every=4)
        saved = []
        save = revived.store.save
        revived.store.save = lambda digest, payload: (saved.append(digest),
                                                      save(digest, payload))[1]
        revived.resume()
        assert saved == []  # restored sessions adopt their tips
        history = spec_history(20)
        feed_all(revived, "s1", history)
        chain = revived.checkpoints.chains["s1"]
        assert chain[:len(old_chain)] == old_chain and len(chain) == 5
        assert not set(saved) & set(old_chain)
        for digest, blob in old_bytes.items():
            assert revived.store.path_for(digest).read_bytes() == blob
        assert_matches_batch(revived, "s1", history)

    def test_old_format_manifest_is_rejected(self, tmp_path):
        store = ResultsStore(tmp_path / "store")
        store.save(head_digest("srv"), {"kind": "serve-manifest", "server": "srv",
                                        "sessions": ["s1"]})
        with pytest.raises(CheckpointError, match="old per-session-slot format"):
            make_server(tmp_path).resume()


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

    def test_resume_with_deleted_segment_exits_2_naming_session(self, tmp_path):
        """The CI drill's second half: a broken chain refuses to resume."""
        store_root = tmp_path / "store"
        history = spec_history(23, seed=9)
        client = _Client(store_root)
        try:
            assert client.call({"op": "open", "session": "s1", "spec": SPEC})["ok"]
            for t in range(23):
                assert client.call({"op": "feed", "session": "s1",
                                    "points": history[t], "at": t})["ok"]
            client.kill()
        finally:
            client.finish()

        store = ResultsStore(store_root)
        tip = store.load(head_digest("smoke"))["sessions"]["s1"]["tip"]
        non_tip = store.load(tip)["sessions"]["s1"]["prev"]
        assert store.delete(non_tip)
        done = subprocess.run(
            [sys.executable, "-m", "repro", "serve", "--store", str(store_root),
             "--server-id", "smoke", "--resume"],
            env=dict(os.environ, PYTHONPATH=_SRC), stdin=subprocess.DEVNULL,
            capture_output=True, text=True, timeout=120)
        assert done.returncode == 2
        lines = done.stderr.strip().splitlines()
        assert len(lines) == 1 and "session 's1'" in lines[0], done.stderr
