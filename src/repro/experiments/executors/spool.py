"""File-based task spool: the distributed executor's shared work queue.

A *spool* is a directory (on a filesystem shared between the submitting
orchestrator and any number of workers) holding one JSON file per
in-flight cell.  Claiming is an atomic ``rename`` — exactly one worker
wins a task, with no locks, daemons or network protocol — and results
travel through the content-addressed
:class:`~repro.core.store.ResultsStore`, which both sides already share.
Acks travel back as small JSON files next to the tasks.

Lifecycle of a task (files are named by the cell's content digest):

.. code-block:: text

    {digest}.task.json             submitted, unclaimed
    {digest}.claim-{worker}.json   claimed by exactly one worker
    {digest}.done.json             completed; the payload is in the store
    {digest}.failed.json           the cell raised; carries the traceback

Every write is crash-safe: files are written to a dot-prefixed temporary
name and atomically renamed, so a killed submitter or worker never
leaves a half-written task or ack behind.  A worker killed *mid-cell*
leaves its claim file in place — :meth:`Spool.reclaim_stale` (or
:meth:`Spool.reclaim`) turns such orphans back into claimable tasks, and
because payload delivery is an atomic store write keyed by content, a
task accidentally computed twice is benign: both writes carry identical
bytes.
"""

from __future__ import annotations

import json
import os
import re
import time
import uuid
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping

from ...core.store import MISSING
from .base import ExecutionContext, Executor

if TYPE_CHECKING:
    from ..orchestrator import WorkUnit

__all__ = [
    "ClaimedTask",
    "Spool",
    "SpoolExecutor",
    "SpoolTaskError",
    "TASK_VERSION",
]

TASK_VERSION = 1

_TASK_SUFFIX = ".task.json"
_DONE_SUFFIX = ".done.json"
_FAILED_SUFFIX = ".failed.json"
_STOP_NAME = "STOP"


class SpoolTaskError(RuntimeError):
    """A worker reported a cell failure (the message carries its traceback)."""


@dataclass(frozen=True)
class ClaimedTask:
    """One task a worker has exclusively claimed (by winning the rename)."""

    path: Path
    task: Mapping[str, Any]

    @property
    def key(self) -> str:
        return self.task["key"]

    @property
    def digest(self) -> str:
        return self.task["digest"]

    @property
    def fn(self) -> str:
        return self.task["fn"]

    @property
    def params(self) -> dict[str, Any]:
        return dict(self.task["params"])

    @property
    def deps(self) -> dict[str, str]:
        """Local dependency name → store digest of its payload."""
        return dict(self.task.get("deps") or {})

    @property
    def overwrite(self) -> bool:
        """Recompute even if the store already holds this digest (--rerun)."""
        return bool(self.task.get("overwrite", False))

    @property
    def retries(self) -> int:
        """How many times workers have handed this task back already."""
        return int(self.task.get("retries", 0))


def _safe_worker_id(worker_id: str) -> str:
    """Worker ids become file-name components; keep them protocol-safe.

    No dots: an id ending in ``.task``/``.done``/``.failed`` would make
    claim files match the protocol suffix globs of other readers.
    """
    cleaned = re.sub(r"[^A-Za-z0-9_-]+", "_", worker_id)
    return cleaned or "worker"


class Spool:
    """One shared task directory (see the module docstring for the protocol)."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    # -- submitting --------------------------------------------------------

    def submit(self, *, key: str, digest: str, fn: str,
               params: Mapping[str, Any], deps: Mapping[str, str],
               overwrite: bool = False) -> Path:
        """Atomically publish one task file; returns its path.

        Stale acks for the same digest (a previous run whose store entry
        was evicted, or a failure being retried) are cleared first so the
        fresh task cannot be mistaken for already-finished.  With
        ``overwrite`` (a ``--rerun`` submission) the worker recomputes
        even when the store already holds the digest.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        self._ack_path(digest, _DONE_SUFFIX).unlink(missing_ok=True)
        self._ack_path(digest, _FAILED_SUFFIX).unlink(missing_ok=True)
        task = {
            "version": TASK_VERSION,
            "key": key,
            "digest": digest,
            "fn": fn,
            "params": dict(params),
            "deps": dict(deps),
            "overwrite": bool(overwrite),
        }
        return self._atomic_write(self.root / f"{digest}{_TASK_SUFFIX}", task)

    # -- claiming ----------------------------------------------------------

    def pending(self) -> list[Path]:
        """Unclaimed task files, oldest digest first (stable order).

        Dot-prefixed names are in-flight temporary writes, never tasks
        (``pathlib`` globs *do* match dotfiles, unlike the shell).
        """
        if not self.root.exists():
            return []
        return sorted(p for p in self.root.glob(f"*{_TASK_SUFFIX}")
                      if not p.name.startswith("."))

    def claimed(self) -> list[Path]:
        """Claim files currently held by some worker."""
        if not self.root.exists():
            return []
        return sorted(p for p in self.root.glob("*.claim-*.json")
                      if not p.name.startswith("."))

    def claim(self, worker_id: str) -> ClaimedTask | None:
        """Try to claim one pending task; ``None`` when the spool is drained.

        The claim is an atomic rename of the task file onto a
        worker-specific name: when several workers race for the same
        task, exactly one rename succeeds and the losers simply move on
        to the next file.
        """
        wid = _safe_worker_id(worker_id)
        for path in self.pending():
            digest = path.name[: -len(_TASK_SUFFIX)]
            target = self.root / f"{digest}.claim-{wid}.json"
            try:
                os.rename(path, target)
            except FileNotFoundError:
                continue  # lost the race to another worker
            # Rename preserves the *task's* mtime: freshen it now so a
            # claim of a long-queued task is not born stale and reclaimed
            # out from under us before the compute heartbeat starts.
            try:
                os.utime(target)
            except OSError:
                pass
            try:
                task = json.loads(target.read_text())
            except FileNotFoundError:
                continue  # reclaimed/acked from under us — move on
            except json.JSONDecodeError:
                # A torn task file (should be impossible with atomic
                # submits — defense in depth): fail it visibly instead
                # of crashing the worker or recycling it forever.
                self._atomic_write(self._ack_path(digest, _FAILED_SUFFIX), {
                    "key": digest,
                    "digest": digest,
                    "error": "unparseable task file (torn write?)",
                    "worker": wid,
                })
                target.unlink(missing_ok=True)
                continue
            return ClaimedTask(path=target, task=task)
        return None

    def reclaim(self, claim_path: str | Path) -> Path:
        """Turn a claim (e.g. of a crashed worker) back into a pending task."""
        claim_path = Path(claim_path)
        digest = claim_path.name.split(".claim-", 1)[0]
        target = self.root / f"{digest}{_TASK_SUFFIX}"
        os.rename(claim_path, target)
        return target

    def hand_back(self, claimed: ClaimedTask) -> int:
        """Re-queue a claimed task, incrementing its retry counter.

        Unlike :meth:`reclaim` (same-content rename, for claims of
        *other* workers), this rewrites the task with ``retries + 1`` so
        the count survives across whichever worker claims it next —
        what lets the fleet give up on a task whose dependency can never
        be read instead of bouncing it forever.  Returns the new count.
        """
        task = dict(claimed.task)
        task["retries"] = int(task.get("retries", 0)) + 1
        self._atomic_write(self.root / f"{claimed.digest}{_TASK_SUFFIX}", task)
        claimed.path.unlink(missing_ok=True)
        return task["retries"]

    def reclaim_stale(self, max_age_seconds: float) -> list[Path]:
        """Re-queue claims older than ``max_age_seconds``.

        Safe against live workers finishing concurrently (their ack
        unlinks the claim; the rename then simply fails) and against a
        slow-but-alive worker: the duplicated cell writes the identical
        content-addressed payload.  Ages are measured against the
        spool's own filesystem clock (see :meth:`timestamp`), so server
        clock skew cannot hide a dead worker or requeue a live one.
        """
        now = self.timestamp()
        requeued = []
        for path in self.claimed():
            try:
                age = now - path.stat().st_mtime
            except OSError:
                continue
            if age < max_age_seconds:
                continue
            try:
                requeued.append(self.reclaim(path))
            except OSError:
                continue
        return requeued

    # -- acks --------------------------------------------------------------

    def ack_done(self, claimed: ClaimedTask, *, elapsed: float, worker_id: str) -> Path:
        """Mark a claimed task completed (its payload is in the store)."""
        ack = self._atomic_write(self._ack_path(claimed.digest, _DONE_SUFFIX), {
            "key": claimed.key,
            "digest": claimed.digest,
            "elapsed": float(elapsed),
            "worker": worker_id,
        })
        claimed.path.unlink(missing_ok=True)
        return ack

    def ack_failed(self, claimed: ClaimedTask, *, error: str, worker_id: str) -> Path:
        """Mark a claimed task failed, preserving the worker's traceback."""
        ack = self._atomic_write(self._ack_path(claimed.digest, _FAILED_SUFFIX), {
            "key": claimed.key,
            "digest": claimed.digest,
            "error": error,
            "worker": worker_id,
        })
        claimed.path.unlink(missing_ok=True)
        return ack

    def done_info(self, digest: str) -> dict[str, Any] | None:
        return self._read_ack(self._ack_path(digest, _DONE_SUFFIX))

    def failure(self, digest: str) -> dict[str, Any] | None:
        return self._read_ack(self._ack_path(digest, _FAILED_SUFFIX))

    def freshest_claim_age(self, digests: "set[str] | frozenset[str]") -> float | None:
        """Age (seconds, spool clock) of the most recently active claim.

        Workers heartbeat their claim file's mtime while computing, so a
        small age means a live worker is mid-cell — the executor defers
        its no-progress timeout on that evidence.  ``None`` when none of
        ``digests`` is claimed.
        """
        now = self.timestamp()
        best = None
        for path in self.claimed():
            digest = path.name.split(".claim-", 1)[0]
            if digest not in digests:
                continue
            try:
                age = now - path.stat().st_mtime
            except OSError:
                continue
            if best is None or age < best:
                best = age
        return best

    def entry_names(self) -> set[str]:
        """Every file name in the spool, from one directory scan.

        The executor's polling loop checks hundreds of in-flight tasks
        per tick; set membership against a single ``scandir`` keeps that
        O(tasks) name lookups instead of O(tasks) file probes — which
        matters on the network filesystems spools are designed for.
        """
        try:
            return {entry.name for entry in os.scandir(self.root)}
        except FileNotFoundError:
            return set()

    # -- shutdown ----------------------------------------------------------

    def request_stop(self) -> Path:
        """Ask every worker polling this spool to exit after its current task."""
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.root / _STOP_NAME
        path.touch()
        return path

    def clear_stop(self) -> None:
        """Remove a leftover ``STOP`` so a reused spool accepts workers again."""
        (self.root / _STOP_NAME).unlink(missing_ok=True)

    def timestamp(self) -> float:
        """Now, as stamped by the spool's *own* filesystem clock.

        STOP freshness must compare like with like: on a network mount
        the file server stamps mtimes, and its clock may be seconds off
        a worker's local ``time.time()``.  Touching a probe file and
        reading its mtime yields a skew-free reference.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        # uuid, not just the pid: containerized workers on different
        # machines frequently share small pids, and a colliding probe
        # name would let one worker unlink the other's mid-stat.
        probe = self.root / f".clock-probe-{os.getpid()}-{uuid.uuid4().hex}"
        probe.touch()
        try:
            return probe.stat().st_mtime
        finally:
            probe.unlink(missing_ok=True)

    def stop_requested(self, since: float | None = None) -> bool:
        """Whether a ``STOP`` exists — and, with ``since``, is fresh.

        Workers pass their start time as ``since`` so a stale ``STOP``
        left over from a previous sweep's shutdown does not kill a newly
        started fleet: only a stop requested after (or just before) the
        worker came up counts.
        """
        path = self.root / _STOP_NAME
        try:
            mtime = path.stat().st_mtime
        except OSError:
            return False
        return since is None or mtime >= since

    # -- helpers -----------------------------------------------------------

    def _ack_path(self, digest: str, suffix: str) -> Path:
        return self.root / f"{digest}{suffix}"

    def _atomic_write(self, final: Path, payload: Mapping[str, Any]) -> Path:
        # Dot prefix *and* a non-protocol suffix: a half-written file must
        # never be claimable, whichever filter a reader applies.  The
        # uuid keeps two same-pid writers on different machines (small
        # container pids collide) from tearing each other's tmp file.
        tmp = self.root / f".{final.name}.tmp-{os.getpid()}-{uuid.uuid4().hex[:8]}"
        tmp.write_text(json.dumps(payload, sort_keys=True, indent=1))
        tmp.replace(final)
        return final

    def _read_ack(self, path: Path) -> dict[str, Any] | None:
        try:
            return json.loads(path.read_text())
        except FileNotFoundError:
            return None
        except json.JSONDecodeError:
            # Unreadable ack (defense in depth): treat as not-yet-acked
            # — completion is still detectable through the store.
            return None


@dataclass
class SpoolExecutor(Executor):
    """Drain a sweep through a spool directory serviced by external workers.

    Ready cells are published as task files the moment their dependency
    payloads land; completion is detected through the shared store (the
    workers' atomic content-addressed writes), with per-cell timings read
    from the done-acks.  ``timeout`` bounds how long the executor waits
    *without any progress* before raising — ``None`` waits forever, which
    is the right default when workers may come and go.
    """

    spool_dir: str | Path
    poll: float = 0.05
    timeout: float | None = None
    #: Claims whose heartbeat (mtime) is older than this are treated as
    #: dead workers and automatically re-queued for the live fleet.
    #: Generous vs the ~0.5s heartbeat to absorb NFS attribute caching.
    reclaim_after: float = 30.0

    name = "spool"

    def drain(self, ctx: ExecutionContext) -> None:
        if ctx.store is None:
            raise ValueError(
                "the spool executor needs a persistent store: workers "
                "deliver cell payloads through it (pass store=/--store)")
        spool = Spool(self.spool_dir)
        # A fresh submission means the fleet should run: clear a STOP
        # left over from a previous sweep's shutdown, which would
        # otherwise make every new worker exit on arrival while this
        # drain waits forever.
        spool.clear_stop()
        waiting: dict[str, "WorkUnit"] = dict(ctx.pending)
        # Entries already present that the cache scan did not serve (a
        # superseded payload, see ResultsStore.load_or_none): only their
        # done-ack means the recomputed payload has landed.
        superseded = {ctx.digests[key] for key in waiting if ctx.digests[key] in ctx.store}
        inflight: dict[str, "WorkUnit"] = {}
        resubmits: dict[str, int] = {}
        last_progress = time.monotonic()
        last_reclaim_scan = time.monotonic()

        def submit(key: str, unit: "WorkUnit") -> None:
            locals_ = unit.deps + unit.soft_deps
            spool.submit(
                key=key,
                digest=ctx.digests[key],
                fn=unit.fn,
                params=dict(unit.params),
                deps={local: ctx.digests[dep]
                      for local, dep in zip(locals_, ctx.dep_keys(key, unit))},
                overwrite=ctx.rerun,
            )

        while waiting or inflight:
            for key in list(waiting):
                unit = waiting[key]
                if ctx.ready(key, unit):
                    submit(key, unit)
                    inflight[key] = unit
                    del waiting[key]

            progressed = False
            names = spool.entry_names() if inflight else set()
            # One store scan per tick, same rationale as entry_names().
            stored_now = ctx.store.entry_digests() if inflight else set()
            # Stale entries must not count as completion under --rerun.
            stored = stored_now - superseded if not ctx.rerun else set()
            # Self-heal dependency entries: a worker finding a dep
            # unreadable (torn copy — load_or_none drops it) hands its
            # task back; this side still holds every dep payload in
            # memory, so republish missing entries instead of stalling.
            for key, unit in inflight.items():
                for dep in ctx.dep_keys(key, unit):
                    dep_digest = ctx.digests[dep]
                    if dep_digest not in stored_now and dep in ctx.payloads:
                        ctx.store.save(dep_digest, ctx.payloads[dep],
                                       extra_meta={"key": dep, "healed": True})
                        stored_now.add(dep_digest)
            for key in list(inflight):
                digest = ctx.digests[key]
                if f"{digest}{_FAILED_SUFFIX}" in names:
                    failed = spool.failure(digest) or {}
                    raise SpoolTaskError(
                        f"worker {failed.get('worker', '?')!r} failed on cell "
                        f"{key!r}:\n{failed.get('error', '(no traceback)')}")
                # The done-ack is the authoritative completion signal
                # (under --rerun the store may still hold the *stale*
                # payload until the worker overwrites it); bare store
                # presence also counts outside rerun — e.g. a concurrent
                # sweep delivered the same content address.
                info = (spool.done_info(digest)
                        if f"{digest}{_DONE_SUFFIX}" in names else None)
                if info is None and any(
                        name.startswith(f"{digest}.claim-") for name in names):
                    # A worker holds the claim: its save may already be
                    # visible but the done-ack (with the real elapsed)
                    # lands momentarily — wait a tick rather than record
                    # a bogus 0.0 timing off bare store presence.
                    continue
                if info is not None or digest in stored:
                    payload = ctx.store.load_or_none(digest, MISSING)
                    if payload is MISSING:
                        # The entry was corrupt or unreadable: put the
                        # task back out for recomputation — that *is*
                        # progress (don't let the timeout count it as a
                        # stall while the worker recomputes), but only a
                        # few times: a payload the workers keep acking
                        # and we keep failing to read (e.g. a permission
                        # mismatch on a shared store) must surface as an
                        # error, not a hot resubmit livelock.
                        resubmits[key] = resubmits.get(key, 0) + 1
                        if resubmits[key] > 3:
                            raise SpoolTaskError(
                                f"cell {key!r} was acked by workers "
                                f"{resubmits[key]} times but its store "
                                f"entry ({digest[:12]}…) is unreadable "
                                f"from the submitting side — check "
                                f"permissions/consistency of the shared "
                                f"store")
                        submit(key, inflight[key])
                        progressed = True
                        continue
                    unit = inflight.pop(key)
                    ctx.finish(key, unit, payload,
                               float((info or {}).get("elapsed", 0.0)),
                               persist=False)
                    progressed = True

            if progressed:
                last_progress = time.monotonic()
                continue
            # A worker killed mid-cell leaves a claim whose heartbeat has
            # stopped: re-queue it for the live fleet instead of waiting
            # on a corpse (scan at ~1s granularity, ages measured on the
            # spool's own clock inside reclaim_stale).
            if inflight and time.monotonic() - last_reclaim_scan > max(1.0, self.poll):
                last_reclaim_scan = time.monotonic()
                spool.reclaim_stale(self.reclaim_after)
            if (self.timeout is not None
                    and time.monotonic() - last_progress > self.timeout):
                # A live worker heartbeats its claim file while computing
                # — a fresh claim means a cell merely takes longer than
                # the timeout, which is activity, not a stall.  (Worker
                # heartbeats tick every ~0.5s; timeouts much below ~1s
                # cannot tell the difference.)
                claim_age = spool.freshest_claim_age(
                    {ctx.digests[key] for key in inflight})
                if claim_age is not None and claim_age < self.timeout:
                    last_progress = time.monotonic() - max(claim_age, 0.0)
                    time.sleep(self.poll)
                    continue
                # Last resort before giving up: a dead worker's stale
                # claim may simply not have hit reclaim_after yet when
                # the timeout is the shorter of the two — requeue it for
                # any live worker rather than failing the sweep.
                if spool.reclaim_stale(min(self.reclaim_after, self.timeout)):
                    last_progress = time.monotonic()
                    continue
                stuck = sorted(inflight) or sorted(waiting)
                raise TimeoutError(
                    f"spool executor made no progress for {self.timeout:.0f}s "
                    f"({len(inflight)} task(s) in flight, {len(waiting)} "
                    f"waiting; next: {stuck[:3]}); are workers running "
                    f"against {Path(self.spool_dir)}?")
            time.sleep(self.poll)
