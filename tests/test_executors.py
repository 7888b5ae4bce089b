"""Tests for the pluggable executor backends and the distributed spool.

Synthetic cell functions live at module level so every backend can
resolve them by dotted path (in-process threads and pool children alike);
they drop marker files so the tests can count real executions.  The
end-to-end distributed test drives two real ``mobile-server worker``
subprocesses against a spool directory and asserts the tables are
bit-identical to a ``jobs=1`` inline run.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.store import ResultsStore, digest_key
from repro.experiments import run_all_detailed
from repro.experiments.executors import (
    EXECUTOR_NAMES,
    InlineExecutor,
    ProcessExecutor,
    Spool,
    SpoolExecutor,
    SpoolTaskError,
    make_executor,
    run_worker,
)
from repro.experiments.orchestrator import SweepSpec, WorkUnit, execute
from repro.experiments.runner import ExperimentResult

_MODULE = "test_executors"
_SRC = str(Path(__file__).resolve().parent.parent / "src")


def _mark(workdir: str, name: str) -> None:
    Path(workdir, name.replace("/", "_")).touch()


def cell_value(value: float, workdir: str) -> dict:
    _mark(workdir, f"value-{value}")
    return {"value": value, "arr": np.arange(4) * value}


def cell_combine(keys: list, workdir: str, deps: dict) -> dict:
    _mark(workdir, "combine")
    return {"total": sum(deps[k]["value"] for k in keys)}


def cell_poison(workdir: str) -> dict:
    raise RuntimeError("this cell is poisoned")


def cell_none(workdir: str) -> None:
    """None is a legal payload (pack_payload supports it)."""
    _mark(workdir, "none-cell")
    return None


def finalize_none(results: dict, scale: float, seed: int) -> ExperimentResult:
    assert results["none"] is None
    return ExperimentResult("EX", "none", ["ok"], [[1.0]],
                            notes=["criterion: synthetic"], passed=True)


def _none_spec(workdir: str) -> SweepSpec:
    unit = WorkUnit("none", f"{_MODULE}:cell_none", {"workdir": workdir})
    return SweepSpec("EX", (unit,), f"{_MODULE}:finalize_none")


def cell_slow(seconds: float) -> dict:
    time.sleep(seconds)
    return {"ok": True}


def finalize_first_value(results: dict, scale: float, seed: int) -> ExperimentResult:
    ok = next(iter(results.values()))["ok"]
    return ExperimentResult("EX", "slow", ["ok"], [[float(ok)]],
                            notes=["criterion: synthetic"], passed=True)


def finalize_total(results: dict, scale: float, seed: int) -> ExperimentResult:
    total = results["combine"]["total"]
    return ExperimentResult("EX", "synthetic", ["total"], [[total]],
                            notes=["criterion: synthetic"], passed=True)


def _spec(workdir: str, values=(1.0, 2.0, 3.0)) -> SweepSpec:
    keys = [f"value/{v}" for v in values]
    units = [WorkUnit(key, f"{_MODULE}:cell_value", {"value": v, "workdir": workdir})
             for key, v in zip(keys, values)]
    units.append(WorkUnit("combine", f"{_MODULE}:cell_combine",
                          {"keys": keys, "workdir": workdir}, deps=tuple(keys)))
    return SweepSpec("EX", tuple(units), f"{_MODULE}:finalize_total")


def _poison_spec(workdir: str) -> SweepSpec:
    units = (
        WorkUnit("ok", f"{_MODULE}:cell_value", {"value": 1.0, "workdir": workdir}),
        WorkUnit("bad", f"{_MODULE}:cell_poison", {"workdir": workdir}),
    )
    return SweepSpec("EX", units, f"{_MODULE}:finalize_total")


# -- synthetic cells with a group runner (wave/mega-batch paths) ------------


def cell_gvalue(value: float, workdir: str) -> dict:
    _mark(workdir, f"gsingle-{value}")
    return {"value": value, "arr": np.arange(4) * value}


def _gvalue_group(calls):
    """Group runner: payload-identical to per-call cell_gvalue, but drops
    a wave marker instead of per-task ones so tests can tell which path ran."""
    _mark(calls[0][0]["workdir"], f"gwave-{len(calls)}")
    return [{"value": p["value"], "arr": np.arange(4) * p["value"]}
            for p, _ in calls]


cell_gvalue.group_runner = _gvalue_group


def cell_fragile(value: float, workdir: str) -> dict:
    if value < 0:
        raise RuntimeError("poisoned member")
    _mark(workdir, f"fragile-{value}")
    return {"value": value}


def _fragile_group(calls):
    raise RuntimeError("the whole wave blew up")


cell_fragile.group_runner = _fragile_group


def finalize_gtotal(results: dict, scale: float, seed: int) -> ExperimentResult:
    total = sum(p["value"] for p in results.values())
    return ExperimentResult("EX", "waves", ["total"], [[total]],
                            notes=["criterion: synthetic"], passed=True)


def _gspec(workdir: str, values=(1.0, 2.0, 3.0, 4.0)) -> SweepSpec:
    units = tuple(
        WorkUnit(f"value/{v}", f"{_MODULE}:cell_gvalue",
                 {"value": v, "workdir": workdir})
        for v in values)
    return SweepSpec("EX", units, f"{_MODULE}:finalize_gtotal")


class _WorkerThreads:
    """In-process spool workers for tests (same import path as the suite)."""

    def __init__(self, spool_dir: Path, store: ResultsStore, count: int = 2) -> None:
        self.spool = Spool(spool_dir)
        self.stats = [None] * count
        self.threads = [
            threading.Thread(
                target=self._run, args=(i, store), daemon=True)
            for i in range(count)
        ]

    def _run(self, i: int, store: ResultsStore) -> None:
        self.stats[i] = run_worker(self.spool, store, worker_id=f"w{i}",
                                   poll=0.01, idle_exit=30)

    def __enter__(self) -> "_WorkerThreads":
        for t in self.threads:
            t.start()
        return self

    def __exit__(self, *exc) -> None:
        self.spool.request_stop()
        for t in self.threads:
            t.join(timeout=30)


class TestMakeExecutor:
    def test_jobs_semantics_preserved(self):
        assert isinstance(make_executor(None, jobs=1), InlineExecutor)
        backend = make_executor(None, jobs=3)
        assert isinstance(backend, ProcessExecutor) and backend.jobs == 3

    def test_names(self):
        assert isinstance(make_executor("inline"), InlineExecutor)
        assert isinstance(make_executor("process"), ProcessExecutor)
        assert isinstance(make_executor("spool", spool="dir"), SpoolExecutor)

    def test_instance_passes_through(self):
        backend = SpoolExecutor("dir")
        assert make_executor(backend) is backend

    def test_spool_needs_directory(self):
        with pytest.raises(ValueError, match="spool directory"):
            make_executor("spool")

    def test_unknown_rejected(self):
        with pytest.raises(ValueError, match="unknown executor"):
            make_executor("carrier-pigeon")
        assert set(EXECUTOR_NAMES) == {"inline", "process", "spool"}

    def test_spool_args_with_non_spool_backend_rejected(self):
        """A spool dir must never silently degrade to a local run."""
        with pytest.raises(ValueError, match="apply only to"):
            make_executor("inline", spool="dir")
        with pytest.raises(ValueError, match="apply only to"):
            make_executor(None, jobs=2, timeout=5.0)
        with pytest.raises(ValueError, match="configure the instance"):
            make_executor(ProcessExecutor(jobs=2), spool="dir")

    def test_timestamp_uses_spool_fs_clock_and_cleans_up(self, tmp_path):
        spool = Spool(tmp_path)
        before = time.time() - 2.0
        stamp = spool.timestamp()
        assert before <= stamp <= time.time() + 2.0  # same clock locally
        assert list(tmp_path.iterdir()) == []  # probe removed


class TestSpoolProtocol:
    def _submit_one(self, spool: Spool, digest: str = "d1") -> None:
        spool.submit(key="k1", digest=digest, fn=f"{_MODULE}:cell_value",
                     params={"value": 1.0, "workdir": "."}, deps={})

    def test_submit_claim_roundtrip(self, tmp_path):
        spool = Spool(tmp_path)
        self._submit_one(spool)
        assert len(spool.pending()) == 1
        claimed = spool.claim("worker-a")
        assert claimed is not None
        assert claimed.key == "k1" and claimed.digest == "d1"
        assert claimed.params == {"value": 1.0, "workdir": "."}
        assert claimed.deps == {}
        assert spool.pending() == [] and len(spool.claimed()) == 1

    def test_claim_contention_exactly_one_winner(self, tmp_path):
        spool = Spool(tmp_path)
        self._submit_one(spool)
        assert spool.claim("worker-a") is not None
        assert spool.claim("worker-b") is None

    def test_ack_done_roundtrip(self, tmp_path):
        spool = Spool(tmp_path)
        self._submit_one(spool)
        claimed = spool.claim("worker-a")
        spool.ack_done(claimed, elapsed=1.25, worker_id="worker-a")
        assert spool.claimed() == []
        info = spool.done_info("d1")
        assert info["elapsed"] == 1.25 and info["worker"] == "worker-a"
        assert spool.failure("d1") is None

    def test_ack_failed_keeps_traceback(self, tmp_path):
        spool = Spool(tmp_path)
        self._submit_one(spool)
        claimed = spool.claim("worker-a")
        spool.ack_failed(claimed, error="Traceback: boom", worker_id="worker-a")
        failure = spool.failure("d1")
        assert "boom" in failure["error"] and failure["worker"] == "worker-a"
        assert spool.done_info("d1") is None

    def test_submit_clears_stale_acks(self, tmp_path):
        """A retried digest must not look already-finished (or failed)."""
        spool = Spool(tmp_path)
        self._submit_one(spool)
        claimed = spool.claim("worker-a")
        spool.ack_failed(claimed, error="boom", worker_id="worker-a")
        self._submit_one(spool)
        assert spool.failure("d1") is None and len(spool.pending()) == 1

    def test_reclaim_returns_task_to_pending(self, tmp_path):
        spool = Spool(tmp_path)
        self._submit_one(spool)
        claimed = spool.claim("worker-a")
        spool.reclaim(claimed.path)
        assert len(spool.pending()) == 1 and spool.claimed() == []
        assert spool.claim("worker-b").key == "k1"

    def test_reclaim_stale_respects_age(self, tmp_path):
        spool = Spool(tmp_path)
        self._submit_one(spool)
        spool.claim("worker-a")
        assert spool.reclaim_stale(max_age_seconds=3600) == []
        requeued = spool.reclaim_stale(max_age_seconds=0.0)
        assert len(requeued) == 1 and len(spool.pending()) == 1

    def test_worker_id_sanitized_in_claim_name(self, tmp_path):
        spool = Spool(tmp_path)
        self._submit_one(spool)
        claimed = spool.claim("we/ird worker")
        assert claimed is not None
        assert claimed.path.parent == spool.root
        assert "/" not in claimed.path.name

    def test_worker_id_cannot_forge_protocol_suffixes(self, tmp_path):
        """An id ending '.task' must not make claims claimable as tasks."""
        spool = Spool(tmp_path)
        self._submit_one(spool)
        assert spool.claim("e4.task") is not None
        assert spool.pending() == []  # the claim is not a task to anyone
        assert spool.claim("other") is None

    def test_claim_of_an_old_task_is_not_born_stale(self, tmp_path):
        """Rename preserves mtime; claim() must freshen it or a
        long-queued task gets reclaimed from under its live worker."""
        spool = Spool(tmp_path)
        self._submit_one(spool)
        old = time.time() - 3600
        os.utime(spool.pending()[0], (old, old))
        assert spool.claim("w0") is not None
        assert spool.reclaim_stale(max_age_seconds=60) == []

    def test_torn_task_file_is_failed_not_fatal(self, tmp_path):
        """A claim that parses to garbage fails the task, not the worker."""
        spool = Spool(tmp_path)
        (tmp_path / "d1.task.json").write_text("{torn")
        assert spool.claim("w0") is None
        failure = spool.failure("d1")
        assert failure is not None and "unparseable" in failure["error"]
        assert spool.pending() == [] and spool.claimed() == []

    def test_torn_ack_reads_as_not_yet_acked(self, tmp_path):
        spool = Spool(tmp_path)
        (tmp_path / "d1.done.json").write_text("{torn")
        assert spool.done_info("d1") is None

    def test_stop_flag(self, tmp_path):
        spool = Spool(tmp_path)
        assert not spool.stop_requested()
        spool.request_stop()
        assert spool.stop_requested()

    def test_half_written_files_are_never_claimable(self, tmp_path):
        """pathlib globs match dotfiles; in-flight tmp writes must not."""
        spool = Spool(tmp_path)
        (tmp_path / ".evil.task.json").write_text("")  # torn write
        (tmp_path / ".evil.claim-w0.json").write_text("")
        assert spool.pending() == [] and spool.claimed() == []
        assert spool.claim("w0") is None
        self._submit_one(spool)
        # The submit's own tmp name must not carry a protocol suffix.
        leftovers = [p.name for p in tmp_path.iterdir()
                     if p.name.startswith(".tmp") or p.name.endswith(".tmp")]
        assert leftovers == []
        assert len(spool.pending()) == 1


class TestExecutorParity:
    """The acceptance bar: every backend is bit-identical to inline."""

    def test_process_executor_matches_inline(self, tmp_path):
        (tmp_path / "w1").mkdir()
        (tmp_path / "w2").mkdir()
        r_inline = execute([_spec(str(tmp_path / "w1"))], executor="inline")
        r_process = execute([_spec(str(tmp_path / "w2"))],
                            executor=ProcessExecutor(jobs=2))
        assert r_inline.results[0].render() == r_process.results[0].render()

    def test_spool_executor_matches_inline(self, tmp_path):
        work = tmp_path / "w"
        work.mkdir()
        store1 = ResultsStore(tmp_path / "s1")
        store2 = ResultsStore(tmp_path / "s2")
        r_inline = execute([_spec(str(work))], store=store1)
        with _WorkerThreads(tmp_path / "spool", store2, count=2):
            r_spool = execute([_spec(str(work))], store=store2,
                              executor=SpoolExecutor(tmp_path / "spool",
                                                     poll=0.01, timeout=60))
        assert r_inline.results[0].render() == r_spool.results[0].render()
        assert r_spool.computed == 4 and r_spool.cached == 0
        # identical content addresses => identical payload bytes semantics
        assert sorted(p.name for p in store1.root.glob("*.npz")) == \
               sorted(p.name for p in store2.root.glob("*.npz"))

    def test_spool_timings_come_from_worker_acks(self, tmp_path):
        store = ResultsStore(tmp_path / "store")
        with _WorkerThreads(tmp_path / "spool", store, count=1):
            report = execute([_spec(str(tmp_path))], store=store,
                             executor=SpoolExecutor(tmp_path / "spool",
                                                    poll=0.01, timeout=60))
        assert set(report.timings) == {"EX/value/1.0", "EX/value/2.0",
                                       "EX/value/3.0", "EX/combine"}
        # Real in-worker durations from the done-acks, never the 0.0 of
        # bare store presence racing ahead of the ack.
        assert all(t > 0.0 for t in report.timings.values())

    def test_none_payload_caches_and_distributes(self, tmp_path):
        """A stored None payload is a cache hit, not a perpetual miss."""
        work = tmp_path / "work"
        work.mkdir()
        store = ResultsStore(tmp_path / "store")
        report = execute([_none_spec(str(work))], store=store)
        assert report.computed == 1
        warm = execute([_none_spec(str(work))], store=store)
        assert (warm.computed, warm.cached) == (0, 1)
        # And the spool path completes instead of resubmit-looping.
        (work / "none-cell").unlink()
        store2 = ResultsStore(tmp_path / "store2")
        with _WorkerThreads(tmp_path / "spool", store2, count=1):
            spooled = execute([_none_spec(str(work))], store=store2,
                              executor=SpoolExecutor(tmp_path / "spool",
                                                     poll=0.01, timeout=60))
        assert spooled.computed == 1
        assert spooled.results[0].render() == report.results[0].render()

    def test_dead_workers_claim_is_auto_requeued_to_live_fleet(self, tmp_path):
        """A claim whose heartbeat stopped must not hang the submission."""
        store = ResultsStore(tmp_path / "store")
        spool = Spool(tmp_path / "spool")
        work = tmp_path / "work"
        work.mkdir()
        result = []
        drain = threading.Thread(
            target=lambda: result.append(
                execute([_spec(str(work))], store=store,
                        executor=SpoolExecutor(tmp_path / "spool", poll=0.01,
                                               timeout=60, reclaim_after=0.3))),
            daemon=True)
        drain.start()
        # A "worker" claims one task and dies without ever heartbeating.
        deadline = time.monotonic() + 30
        while not spool.pending():
            assert time.monotonic() < deadline
            time.sleep(0.005)
        assert spool.claim("deadbeat") is not None
        with _WorkerThreads(tmp_path / "spool", store, count=1):
            drain.join(timeout=60)
        assert not drain.is_alive()
        assert result and result[0].computed == 4

    def test_spool_rerun_is_cache_hit(self, tmp_path):
        store = ResultsStore(tmp_path / "store")
        with _WorkerThreads(tmp_path / "spool", store, count=1):
            execute([_spec(str(tmp_path))], store=store,
                    executor=SpoolExecutor(tmp_path / "spool", poll=0.01,
                                           timeout=60))
        # Nothing left to spool: the second submission never needs a worker.
        report = execute([_spec(str(tmp_path))], store=store,
                         executor=SpoolExecutor(tmp_path / "spool", poll=0.01,
                                                timeout=1))
        assert (report.computed, report.cached) == (0, 4)

    def test_submission_clears_stale_stop(self, tmp_path):
        """A reused spool must accept a fresh fleet after a past shutdown."""
        spool = Spool(tmp_path / "spool")
        spool.request_stop()  # leftover from a previous sweep's shutdown
        store = ResultsStore(tmp_path / "store")
        work = tmp_path / "work"
        work.mkdir()

        def late_workers():
            # Workers arrive after the submission (which must have
            # cleared the STOP, or they would exit immediately).
            time.sleep(0.2)
            run_worker(spool, store, worker_id="late", poll=0.01, idle_exit=30)

        thread = threading.Thread(target=late_workers, daemon=True)
        thread.start()
        report = execute([_spec(str(work))], store=store,
                         executor=SpoolExecutor(tmp_path / "spool", poll=0.01,
                                                timeout=60))
        spool.request_stop()
        thread.join(timeout=30)
        assert report.computed == 4

    def test_spool_rerun_recomputes_on_the_workers(self, tmp_path):
        """--rerun must not be short-circuited by the already-in-store ack."""
        work = tmp_path / "work"
        work.mkdir()
        store = ResultsStore(tmp_path / "store")
        with _WorkerThreads(tmp_path / "spool", store, count=1):
            execute([_spec(str(work))], store=store,
                    executor=SpoolExecutor(tmp_path / "spool", poll=0.01,
                                           timeout=60))
        for marker in work.iterdir():
            marker.unlink()
        with _WorkerThreads(tmp_path / "spool2", store, count=1):
            report = execute([_spec(str(work))], store=store, rerun=True,
                             executor=SpoolExecutor(tmp_path / "spool2",
                                                    poll=0.01, timeout=60))
        assert (report.computed, report.cached) == (4, 0)
        assert len(list(work.iterdir())) == 4  # every cell truly re-ran

    def test_superseded_entry_is_recomputed_by_the_workers(self, tmp_path):
        """An entry the cache scan reads as a miss (a bracket record
        without its certificate) must wait for the worker's fresh payload,
        not count as delivered or as unreadable."""
        work = tmp_path / "work"
        work.mkdir()
        store = ResultsStore(tmp_path / "store")
        execute([_spec(str(work))], store=store)
        digest = digest_key(f"{_MODULE}:cell_value", {"value": 1.0, "workdir": str(work)})
        store.save(digest, {"value": 99.0, "arr": np.zeros(4), "opt_lower": 1.0})
        with _WorkerThreads(tmp_path / "spool", store, count=1):
            report = execute([_spec(str(work))], store=store,
                             executor=SpoolExecutor(tmp_path / "spool", poll=0.01,
                                                    timeout=60))
        assert (report.computed, report.cached) == (1, 3)
        assert report.timings["EX/value/1.0"] > 0.0  # from the worker's done-ack
        assert store.load(digest)["value"] == 1.0


class TestSpoolExecutorErrors:
    def test_store_required(self, tmp_path):
        with pytest.raises(ValueError, match="persistent store"):
            execute([_spec(str(tmp_path))],
                    executor=SpoolExecutor(tmp_path / "spool"))

    def test_timeout_without_workers(self, tmp_path):
        store = ResultsStore(tmp_path / "store")
        with pytest.raises(TimeoutError, match="no progress"):
            execute([_spec(str(tmp_path))], store=store,
                    executor=SpoolExecutor(tmp_path / "spool", poll=0.01,
                                           timeout=0.2))

    def test_unreadable_acked_payload_errors_instead_of_livelock(self, tmp_path):
        """Workers keep acking, submitter keeps failing to read: bounded."""
        submitter_store = ResultsStore(tmp_path / "store")
        submitter_store.load_or_none = (
            lambda digest, default=None: default)  # e.g. EACCES on every read
        worker_store = ResultsStore(tmp_path / "store")
        with _WorkerThreads(tmp_path / "spool", worker_store, count=1):
            with pytest.raises(SpoolTaskError, match="unreadable"):
                execute([_spec(str(tmp_path), values=(1.0,))],
                        store=submitter_store,
                        executor=SpoolExecutor(tmp_path / "spool", poll=0.01,
                                               timeout=60))

    def test_library_spool_timeout_reaches_the_backend(self, tmp_path):
        """run_all_detailed(executor='spool', spool_timeout=...) is bounded."""
        store = ResultsStore(tmp_path / "store")
        with pytest.raises(TimeoutError, match="no progress"):
            run_all_detailed(["E9"], scale=0.05, store=store,
                             executor="spool", spool=tmp_path / "spool",
                             spool_timeout=0.2)

    def test_long_cell_outlasting_timeout_survives_via_heartbeat(self, tmp_path):
        """A computing worker's claim heartbeat defers the no-progress
        timeout; only a truly dead fleet should trip it."""
        store = ResultsStore(tmp_path / "store")
        unit = WorkUnit("slow", f"{_MODULE}:cell_slow", {"seconds": 2.5})
        spec = SweepSpec("EX", (unit,), f"{_MODULE}:finalize_first_value")
        with _WorkerThreads(tmp_path / "spool", store, count=1):
            report = execute([spec], store=store,
                             executor=SpoolExecutor(tmp_path / "spool",
                                                    poll=0.05, timeout=1.5))
        assert report.computed == 1

    def test_poisoned_cell_surfaces_worker_traceback(self, tmp_path):
        store = ResultsStore(tmp_path / "store")
        with _WorkerThreads(tmp_path / "spool", store, count=1):
            with pytest.raises(SpoolTaskError, match="poisoned"):
                execute([_poison_spec(str(tmp_path))], store=store,
                        executor=SpoolExecutor(tmp_path / "spool", poll=0.01,
                                               timeout=60))
        # The healthy sibling cell still landed intact in the store.
        entries = [p for p in store.root.glob("*.npz")]
        assert len(entries) == 1
        digest = entries[0].name[:-len(".npz")]
        assert store.load_or_none(digest)["value"] == 1.0


class TestWorkerLoop:
    def test_poisoned_task_fails_but_worker_survives(self, tmp_path):
        spool = Spool(tmp_path / "spool")
        store = ResultsStore(tmp_path / "store")
        spool.submit(key="bad", digest="bad-digest", fn=f"{_MODULE}:cell_poison",
                     params={"workdir": str(tmp_path)}, deps={})
        spool.submit(key="ok", digest="ok-digest", fn=f"{_MODULE}:cell_value",
                     params={"value": 2.0, "workdir": str(tmp_path)}, deps={})
        stats = run_worker(spool, store, worker_id="w0", poll=0.01, max_tasks=2)
        assert stats.failed == 1 and stats.completed == 1
        assert "RuntimeError" in spool.failure("bad-digest")["error"]
        # The store is uncorrupted: the failed cell wrote nothing, the
        # healthy one round-trips.
        assert store.load_or_none("bad-digest") is None
        assert store.load_or_none("ok-digest")["value"] == 2.0

    def test_already_stored_task_is_acked_without_recompute(self, tmp_path):
        spool = Spool(tmp_path / "spool")
        store = ResultsStore(tmp_path / "store")
        store.save("dup-digest", {"value": 9.0})
        work = tmp_path / "work"
        work.mkdir()
        spool.submit(key="dup", digest="dup-digest", fn=f"{_MODULE}:cell_value",
                     params={"value": 9.0, "workdir": str(work)}, deps={})
        stats = run_worker(spool, store, worker_id="w0", poll=0.01, max_tasks=1)
        assert stats.skipped == 1 and stats.completed == 0
        assert spool.done_info("dup-digest") is not None
        assert list(work.iterdir()) == []  # the cell never ran

    def test_missing_dependency_is_handed_back_not_failed(self, tmp_path):
        """A dep the submitter can republish must not kill the sweep."""
        spool = Spool(tmp_path / "spool")
        store = ResultsStore(tmp_path / "store")
        spool.submit(key="orphan", digest="orphan-digest",
                     fn=f"{_MODULE}:cell_combine",
                     params={"keys": ["gone"], "workdir": str(tmp_path)},
                     deps={"gone": "dep-digest"})
        done = []
        messages = []
        thread = threading.Thread(
            target=lambda: done.append(
                run_worker(spool, store, worker_id="w0", poll=0.01,
                           idle_exit=2.0, progress=messages.append)),
            daemon=True)
        thread.start()
        deadline = time.monotonic() + 30
        # Wait until the worker has handed the task back at least once...
        while not any("waiting on dependency" in m for m in messages):
            assert spool.failure("orphan-digest") is None, \
                "missing dep must not be acked as a failure"
            assert time.monotonic() < deadline
            time.sleep(0.01)
        # ...then "heal" the store like the submitter would.
        store.save("dep-digest", {"value": 4.0})
        thread.join(timeout=30)
        stats = done[0]
        assert stats.completed == 1 and stats.failed == 0 and stats.retried >= 1
        assert store.load_or_none("orphan-digest")["total"] == 4.0

    def test_stale_stop_does_not_kill_a_new_worker(self, tmp_path):
        """Only a STOP requested after the worker started ends its loop."""
        spool = Spool(tmp_path / "spool")
        stop = spool.request_stop()  # previous sweep's shutdown
        stale = time.time() - 3600
        os.utime(stop, (stale, stale))
        spool.submit(key="k", digest="d", fn=f"{_MODULE}:cell_value",
                     params={"value": 5.0, "workdir": str(tmp_path)}, deps={})
        stats = run_worker(spool, ResultsStore(tmp_path / "store"),
                           worker_id="w0", poll=0.01, max_tasks=1)
        assert stats.completed == 1  # the stale STOP was ignored

    def test_fresh_stop_ends_the_loop(self, tmp_path):
        spool = Spool(tmp_path / "spool")
        spool.request_stop()
        # A STOP stamped now is fresh relative to this worker's start.
        stats = run_worker(spool, ResultsStore(tmp_path / "store"),
                           worker_id="w0", poll=0.01)
        assert stats.claimed == 0

    def test_idle_exit(self, tmp_path):
        t0 = time.monotonic()
        stats = run_worker(tmp_path / "spool", tmp_path / "store",
                           poll=0.01, idle_exit=0.05)
        assert time.monotonic() - t0 < 10
        assert stats.claimed == 0

    def test_orphaned_task_cannot_defeat_idle_exit(self, tmp_path):
        """Hand-backs are not productive: a dead submitter's task whose
        dep can never be republished must not spin a worker forever."""
        spool = Spool(tmp_path / "spool")
        spool.submit(key="orphan", digest="orphan-digest",
                     fn=f"{_MODULE}:cell_combine",
                     params={"keys": ["gone"], "workdir": str(tmp_path)},
                     deps={"gone": "never-appears"})
        t0 = time.monotonic()
        stats = run_worker(spool, ResultsStore(tmp_path / "store"),
                           worker_id="w0", poll=0.01, idle_exit=0.3)
        assert time.monotonic() - t0 < 30
        assert stats.retried >= 1 and stats.completed == 0 and stats.failed == 0
        assert len(spool.pending()) == 1  # the task survives for a rescuer

    def test_max_tasks_zero_claims_nothing(self, tmp_path):
        """The budget is enforced before the first claim."""
        spool = Spool(tmp_path / "spool")
        spool.submit(key="k", digest="d", fn=f"{_MODULE}:cell_value",
                     params={"value": 1.0, "workdir": str(tmp_path)}, deps={})
        stats = run_worker(spool, ResultsStore(tmp_path / "store"),
                           worker_id="w0", poll=0.01, max_tasks=0)
        assert stats.claimed == 0 and stats.retried == 0
        assert len(spool.pending()) == 1  # untouched
        assert ResultsStore(tmp_path / "store").load_or_none("d") is None

    def test_hand_back_cap_fails_the_task_fleet_wide(self, tmp_path):
        """The retry count travels in the task file, so a dep nobody can
        repair eventually fails the task instead of bouncing forever."""
        import repro.experiments.executors.worker as worker_mod

        spool = Spool(tmp_path / "spool")
        spool.submit(key="orphan", digest="orphan-digest",
                     fn=f"{_MODULE}:cell_combine",
                     params={"keys": ["gone"], "workdir": str(tmp_path)},
                     deps={"gone": "never-appears"})
        budget = worker_mod.MAX_HAND_BACKS + 1  # hand-backs + the final failure
        stats = run_worker(spool, ResultsStore(tmp_path / "store"),
                           worker_id="w0", poll=0.001, max_tasks=budget,
                           idle_exit=5.0)
        assert stats.retried == worker_mod.MAX_HAND_BACKS
        assert stats.failed == 1
        failure = spool.failure("orphan-digest")
        assert failure is not None and "hand-backs" in failure["error"]

    def test_orphaned_task_counts_toward_max_tasks(self, tmp_path):
        """--max-tasks must bound hand-backs too (no idle_exit set)."""
        spool = Spool(tmp_path / "spool")
        spool.submit(key="orphan", digest="orphan-digest",
                     fn=f"{_MODULE}:cell_combine",
                     params={"keys": ["gone"], "workdir": str(tmp_path)},
                     deps={"gone": "never-appears"})
        stats = run_worker(spool, ResultsStore(tmp_path / "store"),
                           worker_id="w0", poll=0.01, max_tasks=3)
        assert stats.retried == 3 and stats.claimed == 0

    def test_foreign_task_version_fails_cleanly(self, tmp_path):
        """A worker must not compute semantics it does not understand."""
        import json as json_mod

        spool = Spool(tmp_path / "spool")
        spool.submit(key="k", digest="d", fn=f"{_MODULE}:cell_value",
                     params={"value": 1.0, "workdir": str(tmp_path)}, deps={})
        task_path = spool.pending()[0]
        task = json_mod.loads(task_path.read_text())
        task["version"] = 99
        task_path.write_text(json_mod.dumps(task))
        stats = run_worker(spool, ResultsStore(tmp_path / "store"),
                           worker_id="w0", poll=0.01, max_tasks=1)
        assert stats.failed == 1
        assert "version" in spool.failure("d")["error"]


class TestDepHealing:
    def test_drain_republishes_missing_dep_entries(self, tmp_path):
        """Dep payload in submitter memory but absent from the store:
        drain republishes it so the handed-back task can complete."""
        from repro.core.store import digest_key
        from repro.experiments.executors import ExecutionContext

        store = ResultsStore(tmp_path / "store")
        consumer = WorkUnit("consume", f"{_MODULE}:cell_combine",
                            {"keys": ["src"], "workdir": str(tmp_path)},
                            deps=("src",))
        dep_digest = digest_key(f"{_MODULE}:cell_value", {"value": 2.0}, {})
        con_digest = digest_key(consumer.fn, dict(consumer.params),
                                {"src": dep_digest})
        # The dep payload was loaded earlier (cache hit) — in memory
        # only; its store entry has since been corrupted and dropped.
        payloads = {"src": {"value": 2.0}}
        finished = {}

        def finish(key, unit, payload, elapsed, persist=True):
            payloads[key] = payload
            finished[key] = payload

        ctx = ExecutionContext(
            pending=[("consume", consumer)],
            digests={"src": dep_digest, "consume": con_digest},
            payloads=payloads,
            store=store,
            dep_keys=lambda key, unit: list(unit.deps + unit.soft_deps),
            dep_payloads=lambda key, unit: {d: payloads[d] for d in unit.deps},
            finish=finish,
        )
        with _WorkerThreads(tmp_path / "spool", store, count=1):
            SpoolExecutor(tmp_path / "spool", poll=0.01, timeout=60).drain(ctx)
        assert finished["consume"]["total"] == 2.0
        assert store.load_or_none(dep_digest) == {"value": 2.0}  # healed


class TestCrashSafety:
    def test_killed_worker_leaves_reclaimable_task_and_clean_store(self, tmp_path):
        """SIGKILL a real worker mid-cell: no partial payload, claim reclaimable."""
        spool = Spool(tmp_path / "spool")
        store = ResultsStore(tmp_path / "store")
        spool.submit(key="slow", digest="slow-digest", fn=f"{_MODULE}:cell_slow",
                     params={"seconds": 60.0}, deps={})
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join([_SRC, str(Path(__file__).parent)]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "worker",
             "--spool", str(spool.root), "--store", str(store.root),
             "--poll", "0.05", "--worker-id", "doomed"],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        try:
            deadline = time.monotonic() + 30
            while not spool.claimed():
                assert time.monotonic() < deadline, "worker never claimed the task"
                assert proc.poll() is None, "worker exited before claiming"
                time.sleep(0.05)
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
        # Mid-cell kill: no payload (not even a partial one), no ack —
        # only the claim file remains, and reclaiming re-queues the task.
        assert store.load_or_none("slow-digest") is None
        assert spool.done_info("slow-digest") is None
        assert spool.failure("slow-digest") is None
        claims = spool.claimed()
        assert len(claims) == 1 and "doomed" in claims[0].name
        spool.reclaim_stale(max_age_seconds=0.0)
        assert len(spool.pending()) == 1
        assert spool.claim("rescuer").key == "slow"

    def test_torn_midfile_copy_is_recomputed_not_crashed(self, tmp_path):
        """Corruption *inside* an entry (zip directory intact) is a miss.

        A partial copy between machines typically tears the compressed
        stream while the central directory still parses — that surfaces
        as zlib.error/EOFError, not BadZipFile, and must degrade to a
        recompute like any other corruption.
        """
        store = ResultsStore(tmp_path / "store")
        store.save("torn", {"arr": np.arange(4096, dtype=np.float64)})
        path = store.path_for("torn")
        raw = bytearray(path.read_bytes())
        mid = len(raw) // 2
        raw[mid:mid + 64] = b"\xff" * 64  # tear the compressed stream
        path.write_bytes(bytes(raw))
        assert store.load_or_none("torn") is None
        assert not path.exists()  # corrupt entry dropped for recompute

    def test_foreign_format_version_is_a_miss_but_never_deleted(self, tmp_path):
        """A newer code version's valid entry must survive our cache scan."""
        import repro.core.store as store_mod
        from repro.core.io import encode_meta

        store = ResultsStore(tmp_path / "store")
        store.root.mkdir(parents=True)
        path = store.path_for("future")
        meta = {"format_version": store_mod._STORE_VERSION + 1,
                "kind": "payload", "skeleton": {"v": 1}, "extra": {}}
        np.savez_compressed(path, meta=encode_meta(meta))
        assert store.load_or_none("future") is None  # unreadable: a miss
        assert path.exists()  # ...but never destroyed for its writer

    def test_corrupt_store_entry_recomputes_only_that_cell(self, tmp_path):
        """A resumed run treats a torn/corrupt entry as a plain cache miss."""
        work = tmp_path / "work"
        work.mkdir()
        store = ResultsStore(tmp_path / "store")
        execute([_spec(str(work))], store=store)
        victim = sorted(store.root.glob("*.npz"))[0]
        victim.write_bytes(b"torn mid-write")
        for marker in work.iterdir():
            marker.unlink()
        report = execute([_spec(str(work))], store=store)
        assert report.computed == 1 and report.cached == 3
        assert len(list(work.iterdir())) == 1  # only the victim re-ran
        # The recomputed entry is valid again.
        assert store.load_or_none(victim.name[:-len(".npz")]) is not None


class TestDistributedEndToEnd:
    """Two real worker subprocesses vs a jobs=1 inline run: bit-identical."""

    def _start_worker(self, spool_dir: Path, store_dir: Path, wid: str):
        env = dict(os.environ, PYTHONPATH=_SRC)
        return subprocess.Popen(
            [sys.executable, "-m", "repro", "worker",
             "--spool", str(spool_dir), "--store", str(store_dir),
             "--poll", "0.02", "--idle-exit", "120", "--worker-id", wid],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True)

    def test_two_workers_match_inline_jobs1(self, tmp_path):
        spool_dir = tmp_path / "spool"
        store_spool = ResultsStore(tmp_path / "store-spool")
        store_inline = ResultsStore(tmp_path / "store-inline")
        workers = [self._start_worker(spool_dir, store_spool.root, f"w{i}")
                   for i in range(2)]
        try:
            distributed = run_all_detailed(
                ["E9"], scale=0.05, seed=0, store=store_spool,
                executor=SpoolExecutor(spool_dir, poll=0.02, timeout=180))
        finally:
            Spool(spool_dir).request_stop()
            outputs = [proc.communicate(timeout=60)[0] for proc in workers]
        inline = run_all_detailed(["E9"], scale=0.05, seed=0,
                                  store=store_inline, jobs=1)
        assert distributed.results[0].render() == inline.results[0].render()
        assert distributed.computed == inline.computed > 0
        # Same content addresses in both stores: cell-for-cell parity.
        assert sorted(p.name for p in store_spool.root.glob("*.npz")) == \
               sorted(p.name for p in store_inline.root.glob("*.npz"))
        # All cells were computed by the worker fleet (not in-process),
        # and every worker exited cleanly.
        for proc in workers:
            assert proc.returncode == 0
        completed = [int(m.group(1)) for out in outputs
                     for m in [re.search(r"(\d+) completed", out)] if m]
        assert sum(completed) == distributed.computed

    def test_cli_spool_submission_reports_cache_on_resubmit(self, tmp_path, capsys):
        from repro.cli import main

        spool_dir = tmp_path / "spool"
        store_dir = tmp_path / "store"
        store = ResultsStore(store_dir)
        with _WorkerThreads(spool_dir, store, count=2):
            code = main(["experiments", "--ids", "E9", "--scale", "0.05",
                         "--executor", "spool", "--spool", str(spool_dir),
                         "--store", str(store_dir), "--spool-timeout", "180"])
        assert code == 0
        cold = capsys.readouterr().out
        assert "store: 0/15 work units cached, 15 computed" in cold
        # Resubmission: everything cached, no worker needed.
        code = main(["experiments", "--ids", "E9", "--scale", "0.05",
                     "--executor", "spool", "--spool", str(spool_dir),
                     "--store", str(store_dir), "--spool-timeout", "1"])
        assert code == 0
        warm = capsys.readouterr().out
        assert "store: 15/15 work units cached, 0 computed" in warm
        assert warm.split("store:")[0] == cold.split("store:")[0]


class TestCLIWorkerAndFlags:
    def test_worker_idle_exit_empty_spool(self, tmp_path, capsys):
        from repro.cli import main

        code = main(["worker", "--spool", str(tmp_path / "spool"),
                     "--store", str(tmp_path / "store"),
                     "--poll", "0.01", "--idle-exit", "0.05"])
        assert code == 0
        out = capsys.readouterr().out
        assert "0 completed, 0 skipped, 0 failed" in out

    def test_worker_drains_pre_submitted_task(self, tmp_path, capsys):
        from repro.cli import main

        spool = Spool(tmp_path / "spool")
        spool.submit(key="k", digest="d", fn=f"{_MODULE}:cell_value",
                     params={"value": 3.0, "workdir": str(tmp_path)}, deps={})
        code = main(["worker", "--spool", str(spool.root),
                     "--store", str(tmp_path / "store"),
                     "--poll", "0.01", "--max-tasks", "1"])
        assert code == 0
        assert "completed k" in capsys.readouterr().out
        assert ResultsStore(tmp_path / "store").load_or_none("d")["value"] == 3.0

    def test_worker_exit_code_flags_failures(self, tmp_path, capsys):
        from repro.cli import main

        spool = Spool(tmp_path / "spool")
        spool.submit(key="bad", digest="d", fn=f"{_MODULE}:cell_poison",
                     params={"workdir": str(tmp_path)}, deps={})
        code = main(["worker", "--spool", str(spool.root),
                     "--store", str(tmp_path / "store"),
                     "--poll", "0.01", "--max-tasks", "1"])
        assert code == 1
        assert "failed bad" in capsys.readouterr().out

    def test_spool_flag_without_spool_executor_rejected(self, capsys, tmp_path):
        """--spool with the default executor must not silently run inline."""
        from repro.cli import main

        assert main(["experiments", "--ids", "E9", "--scale", "0.05",
                     "--spool", str(tmp_path), "--store", ""]) == 2
        assert "did you mean --executor spool" in capsys.readouterr().err

    def test_jobs_conflicts_with_non_pool_executors(self, capsys):
        from repro.cli import main

        assert main(["experiments", "--ids", "E9", "--scale", "0.05",
                     "--store", "", "--executor", "inline", "--jobs", "2"]) == 2
        assert "--jobs" in capsys.readouterr().err
        assert main(["experiments", "--ids", "E9", "--scale", "0.05",
                     "--executor", "spool", "--spool", "s", "--jobs", "2"]) == 2
        assert "--jobs" in capsys.readouterr().err

    def test_run_nongrid_forwards_jobs_to_run_many(self, capsys):
        """--executor process --jobs 2 on plain `run` must actually pool."""
        from repro.cli import main

        assert main(["run", "--source", "drift", "-p", "T=20", "-p", "dim=1",
                     "--ratio", "none", "--executor", "process",
                     "--jobs", "2"]) == 0
        assert "mean cost" in capsys.readouterr().out
        assert main(["run", "--source", "drift", "-p", "T=20", "-p", "dim=1",
                     "--jobs", "0"]) == 2
        assert "--jobs" in capsys.readouterr().err

    def test_process_executor_requires_a_pool_size(self, capsys):
        """--executor process with the default --jobs 1 must not silently
        degenerate to a sequential run."""
        from repro.cli import main

        assert main(["experiments", "--ids", "E9", "--scale", "0.05",
                     "--store", "", "--executor", "process"]) == 2
        assert "--jobs" in capsys.readouterr().err

    def test_experiments_spool_requires_spool_dir(self, capsys):
        from repro.cli import main

        assert main(["experiments", "--ids", "E9", "--scale", "0.05",
                     "--executor", "spool"]) == 2
        assert "--spool" in capsys.readouterr().err

    def test_experiments_spool_requires_store(self, capsys, tmp_path):
        from repro.cli import main

        assert main(["experiments", "--ids", "E9", "--scale", "0.05",
                     "--executor", "spool", "--spool", str(tmp_path),
                     "--store", ""]) == 2
        assert "--store" in capsys.readouterr().err

    def test_spool_timeout_is_a_clean_cli_error(self, capsys, tmp_path):
        """No workers + --spool-timeout: one-line error, not a traceback."""
        from repro.cli import main

        code = main(["experiments", "--ids", "E9", "--scale", "0.05",
                     "--executor", "spool", "--spool", str(tmp_path / "spool"),
                     "--store", str(tmp_path / "store"),
                     "--spool-timeout", "0.2"])
        assert code == 1
        err = capsys.readouterr().err
        assert "distributed run failed" in err and "no progress" in err

    def test_run_grid_spool_timeout_is_a_clean_cli_error(self, capsys, tmp_path):
        from repro.cli import main

        code = main(["run", "--grid", "--source", "drift",
                     "-p", "T=20", "-p", "dim=1", "-p", "D=2.0", "-p", "m=1.0",
                     "--delta", "0.25,0.5", "--ratio", "bracket",
                     "--executor", "spool", "--spool", str(tmp_path / "spool"),
                     "--store", str(tmp_path / "store"),
                     "--spool-timeout", "0.2"])
        assert code == 1
        assert "distributed run failed" in capsys.readouterr().err

    def test_run_grid_spool_requires_store(self, capsys, tmp_path):
        from repro.cli import main

        assert main(["run", "--grid", "--source", "drift",
                     "-p", "T=20", "-p", "dim=1", "-p", "D=2.0", "-p", "m=1.0",
                     "--executor", "spool", "--spool", str(tmp_path)]) == 2
        assert "--store" in capsys.readouterr().err


class TestRunManyExecutor:
    def test_run_many_spool_matches_inline(self, tmp_path):
        from repro.api import Scenario, run_many

        scenarios = [
            Scenario.workload("drift", algorithm=name,
                              params={"T": 30, "dim": 1, "D": 2.0, "m": 1.0},
                              seeds=(0, 1), delta=0.5, ratio="bracket")
            for name in ("mtc", "greedy-centroid")
        ]
        inline = run_many(scenarios)
        store = ResultsStore(tmp_path / "store")
        with _WorkerThreads(tmp_path / "spool", store, count=2):
            pooled = run_many(scenarios, store=store,
                              executor=SpoolExecutor(tmp_path / "spool",
                                                     poll=0.01, timeout=120))
        for a, b in zip(inline, pooled):
            assert np.array_equal(a.costs, b.costs)
            assert np.array_equal(a.ratio_lower, b.ratio_lower)
            assert np.array_equal(a.ratio_upper, b.ratio_upper)

    def test_run_many_inline_executor_with_jobs_rejected(self):
        from repro.api import Scenario, run_many

        scenario = Scenario.workload("drift", algorithm="mtc",
                                     params={"T": 20, "dim": 1, "D": 2.0, "m": 1.0},
                                     seeds=(0,))
        with pytest.raises(ValueError, match="sequentially"):
            run_many([scenario], jobs=4, executor="inline")

    def test_experiment_spec_runs_on_the_spool_backend(self, tmp_path):
        """The declarative spec surface reaches the distributed backend too."""
        from repro.experiments.e9_lemma6 import spec

        e9 = spec(scale=0.05, seed=0)
        inline = e9.run()
        store = ResultsStore(tmp_path / "store")
        with _WorkerThreads(tmp_path / "spool", store, count=1):
            distributed = e9.run(store=store,
                                 executor=SpoolExecutor(tmp_path / "spool",
                                                        poll=0.01, timeout=120))
        assert distributed.render() == inline.render()

    def test_run_many_keep_traces_rejected_on_spool(self, tmp_path):
        from repro.api import Scenario, run_many

        scenario = Scenario.workload("drift", algorithm="mtc",
                                     params={"T": 20, "dim": 1, "D": 2.0, "m": 1.0},
                                     seeds=(0,))
        with pytest.raises(ValueError, match="keep_traces"):
            run_many([scenario], keep_traces=True,
                     executor=SpoolExecutor(tmp_path / "spool"))


def _assert_payload_equal(got, want) -> None:
    """Recursive bit-exact payload comparison (dicts / sequences / arrays)."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and set(got) == set(want)
        for k in want:
            _assert_payload_equal(got[k], want[k])
    elif isinstance(want, np.ndarray):
        np.testing.assert_array_equal(got, want)
    elif isinstance(want, (list, tuple)):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            _assert_payload_equal(g, w)
    else:
        assert got == want


class TestProcessExecutorWaves:
    """ProcessExecutor groups ready group-runner cells into per-job waves."""

    def test_waves_match_inline_and_record_sizes(self, tmp_path):
        (tmp_path / "w1").mkdir()
        (tmp_path / "w2").mkdir()
        r_inline = execute([_gspec(str(tmp_path / "w1"))], executor="inline")
        backend = ProcessExecutor(jobs=2)
        r_process = execute([_gspec(str(tmp_path / "w2"))], executor=backend)
        assert r_inline.results[0].render() == r_process.results[0].render()
        # 4 ready cells over 2 jobs: two waves of two, never per-cell submits.
        assert sorted(backend.wave_sizes) == [2, 2]
        names = {p.name for p in (tmp_path / "w2").iterdir()}
        assert names == {"gwave-2"}  # pool children took the group path

    def test_mixed_functions_only_wave_the_grouped_ones(self, tmp_path):
        work = tmp_path / "w"
        work.mkdir()
        units = tuple(
            WorkUnit(f"g/{v}", f"{_MODULE}:cell_gvalue",
                     {"value": v, "workdir": str(work)})
            for v in (1.0, 2.0, 3.0)
        ) + (
            WorkUnit("plain", f"{_MODULE}:cell_value",
                     {"value": 7.0, "workdir": str(work)}),
        )
        spec = SweepSpec("EX", units, f"{_MODULE}:finalize_gtotal")
        backend = ProcessExecutor(jobs=2)
        report = execute([spec], executor=backend)
        assert report.computed == 4
        assert sorted(backend.wave_sizes) == [1, 2]  # only gvalue cells waved
        names = {p.name for p in work.iterdir()}
        # The plain cell ran per-task; the singleton chunk still crosses as
        # a run_group_timed call (a wave of one inside the pool child).
        assert "value-7.0" in names and "gwave-2" in names and "gwave-1" in names

    def test_pool_of_one_degenerates_to_inline_wave(self, tmp_path):
        work = tmp_path / "w"
        work.mkdir()
        backend = ProcessExecutor(jobs=1)
        report = execute([_gspec(str(work))], executor=backend)
        assert report.computed == 4
        assert backend.wave_sizes == []  # the inline fallback waved instead
        assert {p.name for p in work.iterdir()} == {"gwave-4"}


class TestWorkerBatching:
    """--batch N: the spool worker drains compatible claims in one wave."""

    def _submit_values(self, spool: Spool, values, workdir: str,
                       fn: str = "cell_gvalue") -> None:
        for v in values:
            spool.submit(key=f"value/{v}", digest=f"digest-{v}",
                         fn=f"{_MODULE}:{fn}",
                         params={"value": v, "workdir": workdir}, deps={})

    def test_batch_drains_one_wave_with_identical_payloads(self, tmp_path):
        spool = Spool(tmp_path / "spool")
        store = ResultsStore(tmp_path / "store")
        work = tmp_path / "work"
        work.mkdir()
        self._submit_values(spool, (1.0, 2.0, 3.0, 4.0), str(work))
        stats = run_worker(spool, store, worker_id="w0", poll=0.01,
                           max_tasks=4, batch=8)
        assert stats.completed == 4 and stats.failed == 0
        assert stats.waves == 1 and stats.wave_sizes == [4]
        # The wave ran the group entry point, never the per-task cell...
        assert {p.name for p in work.iterdir()} == {"gwave-4"}
        # ...yet every task kept its own digest, payload and done-ack.
        for v in (1.0, 2.0, 3.0, 4.0):
            payload = store.load_or_none(f"digest-{v}")
            assert payload["value"] == v
            np.testing.assert_array_equal(payload["arr"], np.arange(4) * v)
            info = spool.done_info(f"digest-{v}")
            assert info is not None and info["elapsed"] >= 0.0

    def test_batch_respects_max_tasks(self, tmp_path):
        spool = Spool(tmp_path / "spool")
        store = ResultsStore(tmp_path / "store")
        work = tmp_path / "work"
        work.mkdir()
        self._submit_values(spool, (1.0, 2.0, 3.0, 4.0, 5.0), str(work))
        stats = run_worker(spool, store, worker_id="w0", poll=0.01,
                           max_tasks=3, batch=8)
        assert stats.claimed == 3
        assert stats.waves == 1 and stats.wave_sizes == [3]
        assert len(spool.pending()) == 2  # the budget held mid-scan

    def test_default_batch_is_task_at_a_time(self, tmp_path):
        spool = Spool(tmp_path / "spool")
        store = ResultsStore(tmp_path / "store")
        work = tmp_path / "work"
        work.mkdir()
        self._submit_values(spool, (1.0, 2.0), str(work))
        stats = run_worker(spool, store, worker_id="w0", poll=0.01, max_tasks=2)
        assert stats.completed == 2 and stats.waves == 0
        assert {p.name for p in work.iterdir()} == {"gsingle-1.0", "gsingle-2.0"}

    def test_wave_of_one_is_a_single(self, tmp_path):
        spool = Spool(tmp_path / "spool")
        store = ResultsStore(tmp_path / "store")
        work = tmp_path / "work"
        work.mkdir()
        self._submit_values(spool, (1.0,), str(work))
        stats = run_worker(spool, store, worker_id="w0", poll=0.01,
                           max_tasks=1, batch=8)
        assert stats.completed == 1 and stats.waves == 0
        assert {p.name for p in work.iterdir()} == {"gsingle-1.0"}

    def test_wave_failure_falls_back_to_per_task_isolation(self, tmp_path):
        """A poisoned wave retries per task: only the bad cell fails."""
        spool = Spool(tmp_path / "spool")
        store = ResultsStore(tmp_path / "store")
        work = tmp_path / "work"
        work.mkdir()
        self._submit_values(spool, (1.0, -1.0, 2.0), str(work),
                            fn="cell_fragile")
        stats = run_worker(spool, store, worker_id="w0", poll=0.01,
                           max_tasks=3, batch=8)
        assert stats.completed == 2 and stats.failed == 1
        assert stats.waves == 0  # the blown wave does not count
        assert "poisoned member" in spool.failure("digest--1.0")["error"]
        assert store.load_or_none("digest-1.0")["value"] == 1.0
        assert store.load_or_none("digest-2.0")["value"] == 2.0
        assert store.load_or_none("digest--1.0") is None

    def test_batch_skips_stored_tasks_and_waves_the_rest(self, tmp_path):
        spool = Spool(tmp_path / "spool")
        store = ResultsStore(tmp_path / "store")
        store.save("digest-1.0", {"value": 1.0, "arr": np.arange(4) * 1.0})
        work = tmp_path / "work"
        work.mkdir()
        self._submit_values(spool, (1.0, 2.0, 3.0), str(work))
        stats = run_worker(spool, store, worker_id="w0", poll=0.01,
                           max_tasks=3, batch=8)
        assert stats.skipped == 1 and stats.completed == 2
        assert stats.waves == 1 and stats.wave_sizes == [2]

    def test_batch_rejects_nonpositive(self, tmp_path):
        with pytest.raises(ValueError, match="batch"):
            run_worker(tmp_path / "spool", tmp_path / "store", batch=0)

    def test_real_scenario_wave_is_bit_identical_to_inline_no_fuse(self, tmp_path):
        """The acceptance bar: a --batch worker's store payloads equal a
        fresh unfused inline run of the same scenarios, bit for bit."""
        from repro.api import Scenario, run
        from repro.api.scenario import CELL_FN
        from repro.core.kernels import fusion

        scenarios = [
            Scenario.workload("drift", algorithm=name,
                              params={"T": 30, "dim": 2, "D": 2.0, "m": 1.0},
                              seeds=(0, 1), delta=0.5, ratio="none")
            for name in ("mtc", "follow-last", "lazy-aggressive")
        ]
        spool = Spool(tmp_path / "spool")
        store = ResultsStore(tmp_path / "store")
        for sc in scenarios:
            spool.submit(key=sc.label(), digest=sc.digest(), fn=CELL_FN,
                         params={"scenario": sc.cache_dict()}, deps={})
        stats = run_worker(spool, store, worker_id="w0", poll=0.01,
                           max_tasks=3, batch=8)
        assert stats.completed == 3
        assert stats.waves == 1 and stats.wave_sizes == [3]
        ref = ResultsStore(tmp_path / "ref")
        with fusion(False):
            for sc in scenarios:
                ref.save(sc.digest(), run(sc, keep_traces=False).as_payload())
        for sc in scenarios:
            got = dict(store.load_or_none(sc.digest()))
            want = dict(ref.load_or_none(sc.digest()))
            # Wall-clock is the one legitimately run-dependent field.
            got.pop("elapsed"), want.pop("elapsed")
            _assert_payload_equal(got, want)

    def test_cli_batch_flag_prints_wave_summary(self, tmp_path, capsys):
        from repro.cli import main

        spool = Spool(tmp_path / "spool")
        work = tmp_path / "work"
        work.mkdir()
        self._submit_values(spool, (1.0, 2.0, 3.0), str(work))
        code = main(["worker", "--spool", str(spool.root),
                     "--store", str(tmp_path / "store"),
                     "--poll", "0.01", "--max-tasks", "3", "--batch", "8"])
        assert code == 0
        out = capsys.readouterr().out
        assert "1 wave(s) of sizes [3]" in out
        assert "3 completed, 0 skipped, 0 failed" in out
