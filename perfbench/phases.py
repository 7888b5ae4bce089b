"""The benchmark's three phases: cold experiments, a sweep and a serve stream.

Each phase is driven only through the package's public entry points:

* :class:`ExpPhase` — ``repro.experiments.run_all_detailed`` against a
  fresh, empty ``ResultsStore``;
* :class:`SweepPhase` — ``repro.api.run_many`` over a ``ratio="none"``
  scenario list (no offline brackets);
* :class:`ServePhase` — one closed-loop client feeding ``feed-many``
  rounds through ``ServeServer.handle_line``, the entry both transports
  call, at the CLI's default checkpoint cadence.

A phase builds its inputs from the workload seed (:meth:`prepare`),
runs one timed unit of work (:meth:`run_unit`) and checks the unit's
outputs outside the timed region (:meth:`check`).  Timed regions read
:func:`reference.clock`, which leaves out the host-speed gauge's own
readings.  Every check failure
is charged to the operation it concerns.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from reference import clock


@dataclass
class Unit:
    """What one timed unit of a phase did."""

    wall_s: float
    #: Operation ids attempted, in order (experiment, scenario, request).
    ops: list[str]
    #: Phase-specific measurements (lane-steps, round latencies, ...).
    measures: dict[str, Any] = field(default_factory=dict)
    #: Outputs kept for :meth:`check` (results, replies, server handle).
    outputs: Any = None
    #: Mean reference-kernel pass during and right after the unit
    #: (seconds); set by the runner, see ``reference.py``.
    ref_s: float = float("nan")


def _scratch_dir(root: Path, prefix: str) -> Path:
    base = root / ".perfbench_tmp"
    base.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=prefix, dir=base))


# -- exp-cold ----------------------------------------------------------------


class ExpPhase:
    """Cold experiment grid: every cell computed, none served from a store.

    E5's offline convex bracket and E9's Lemma-6 sampling carry the
    time; E4 adds the line DP and E13 the many-algorithm compare path.
    """

    name = "exp"

    def __init__(self, root: Path, ids: tuple[str, ...], scale: float) -> None:
        self.root = root
        self.ids = ids
        self.scale = scale

    def warm_up(self) -> None:
        """First calls of the bracket solver and the engine."""
        from repro.api import make_workload
        from repro.core.engine import simulate_batch
        from repro.offline import convex_bracket

        inst = make_workload("random-walk", T=6, dim=2).generate(np.random.default_rng(0))
        convex_bracket(inst)
        simulate_batch([inst, inst], "mtc")

    def prepare(self, seed: int) -> dict:
        return {"seed": seed}

    def run_unit(self, inputs: dict, tracer=None) -> Unit:
        from repro.core.store import ResultsStore
        from repro.experiments import run_all_detailed

        store_dir = _scratch_dir(self.root, "exp-store-")
        store = ResultsStore(store_dir)
        t0 = clock()
        report = run_all_detailed(list(self.ids), scale=self.scale,
                                  seed=inputs["seed"], store=store)
        wall = clock() - t0
        return Unit(wall, list(self.ids), {"cells": report.total},
                    outputs=(report, store_dir))

    def check(self, inputs: dict, unit: Unit) -> tuple[set[str], list[str]]:
        """Every experiment passed, every stored bracket is ordered, no cell cached."""
        from repro.core.io import decode_meta
        from repro.core.store import load_payload

        report, store_dir = unit.outputs
        failed: set[str] = set()
        notes: list[str] = []
        try:
            got = [r.experiment_id for r in report.results]
            if got != list(self.ids):
                failed.update(self.ids)
                notes.append(f"results for {got}, expected {list(self.ids)}")
            for result in report.results:
                if not result.passed:
                    failed.add(result.experiment_id)
                    notes.append(f"{result.experiment_id} did not pass")
            if report.cached or report.skipped:
                failed.update(self.ids)
                notes.append(f"cold run served {report.cached} cached cells")
            checked = 0
            for path in sorted(Path(store_dir).glob("*.npz")):
                with np.load(path) as data:
                    key = decode_meta(data)["extra"].get("key", "")
                bad, n = _bracket_violations(load_payload(path))
                checked += n
                if bad:
                    failed.add(key.split("/", 1)[0])
                    notes.append(f"{key}: {bad} brackets with lower > upper")
            if checked == 0:
                failed.update(self.ids)
                notes.append("no bracket found in the store to check")
        finally:
            shutil.rmtree(store_dir, ignore_errors=True)
        return failed, notes


def _bracket_violations(node: Any) -> tuple[int, int]:
    """(violations, brackets seen) over every bracket in a stored payload.

    Brackets appear as ``{"lower", "upper", ...}`` records (OptBracket
    payloads) and as ``opt_lower`` / ``opt_upper`` measurement arrays.
    """
    bad = seen = 0
    if isinstance(node, dict):
        for lo_key, hi_key in (("lower", "upper"), ("opt_lower", "opt_upper")):
            if lo_key in node and hi_key in node:
                lo = np.asarray(node[lo_key], dtype=np.float64)
                hi = np.asarray(node[hi_key], dtype=np.float64)
                seen += lo.size
                bad += int(np.count_nonzero(~(lo <= hi)))
        children = node.values()
    elif isinstance(node, (list, tuple)):
        children = node
    else:
        return bad, seen
    for child in children:
        b, s = _bracket_violations(child)
        bad += b
        seen += s
    return bad, seen


# -- sweep -------------------------------------------------------------------

#: (source, algorithm, metric): ℓ2 fused kernels, the generic per-step loop
#: (coin-flip), and the unfused non-ℓ2 metric paths.
SWEEP_CELLS = (
    ("random-walk", "mtc", "euclidean"),
    ("random-walk", "greedy-centroid", "euclidean"),
    ("random-walk", "move-to-min", "euclidean"),
    ("random-walk", "lazy", "euclidean"),
    ("random-walk", "coin-flip", "euclidean"),
    ("random-walk", "nearest-chaser", "l1"),
    ("random-walk", "static", "l1"),
    ("random-walk", "nearest-chaser", "linf"),
    ("graph-dc", "nearest-chaser", "graph"),
    ("graph-dc", "static", "graph"),
)


class SweepPhase:
    """Batched simulations across metric spaces, no offline bracket."""

    name = "sweep"

    def __init__(self, root: Path, lanes: int, T: int) -> None:
        self.root = root
        self.lanes = lanes
        self.T = T
        self._reference: list | None = None

    def _scenarios(self, seed: int, lanes: int, T: int) -> list:
        from repro.api import Scenario

        seeds = range(seed * 100_000, seed * 100_000 + lanes)
        out = []
        for source, algorithm, metric in SWEEP_CELLS:
            dim = 3 if source.startswith("graph") else 2
            out.append(Scenario.workload(source, algorithm, params={"T": T, "dim": dim},
                                         seeds=seeds, delta=0.5, ratio="none",
                                         metric=metric))
        return out

    def warm_up(self) -> None:
        """Graph all-pairs tables, first kernel and loop calls."""
        from repro.api import run_many

        run_many(self._scenarios(0, 2, 4))

    def prepare(self, seed: int) -> dict:
        scenarios = self._scenarios(seed, self.lanes, self.T)
        rng = np.random.default_rng(seed)
        return {"scenarios": scenarios,
                "sampled": [int(rng.integers(self.lanes)) for _ in scenarios]}

    def run_unit(self, inputs: dict, tracer=None) -> Unit:
        from repro.api import run_many

        scenarios = inputs["scenarios"]
        t0 = clock()
        results = run_many(scenarios)
        wall = clock() - t0
        lane_steps = sum(len(sc.seeds) * self.T for sc in scenarios)
        return Unit(wall, [f"{sc.label()}@{sc.metric}" for sc in scenarios],
                    {"lane_steps": lane_steps},
                    outputs=[np.asarray(r.costs) for r in results])

    def check(self, inputs: dict, unit: Unit) -> tuple[set[str], list[str]]:
        """One sampled lane per scenario equals scalar ``simulate``, bit for bit.

        Only the first unit pays for the scalar reference; later units of
        the same inputs must repeat its costs exactly (the engine is
        deterministic).
        """
        failed: set[str] = set()
        notes: list[str] = []
        reference = self._reference
        for i, (scenario, costs) in enumerate(zip(inputs["scenarios"], unit.outputs)):
            op = unit.ops[i]
            if reference is not None:
                if not np.array_equal(costs, reference[i]):
                    failed.add(op)
                    notes.append(f"{op}: costs differ between repeated units")
                continue
            lane = inputs["sampled"][i]
            expected = _scalar_cost(scenario, lane)
            if costs.shape != (len(scenario.seeds),) or costs[lane] != expected:
                failed.add(op)
                notes.append(f"{op}: lane {lane} batched {costs[lane]!r} != scalar {expected!r}")
        if reference is None and not failed:
            self._reference = unit.outputs
        return failed, notes


def _scalar_cost(scenario, lane: int) -> float:
    """The scalar reference simulator's total cost for one lane."""
    from repro.api import build_instances, make_algorithm, make_workload
    from repro.core.simulator import simulate

    instance = build_instances(scenario.with_(seeds=(scenario.seeds[lane],)))[0][0]
    metric = None
    if scenario.metric == "graph":
        metric = make_workload(scenario.source, **scenario.source_kwargs()).metric
    elif scenario.metric != "euclidean":
        metric = scenario.metric
    trace = simulate(instance, make_algorithm(scenario.algorithm),
                     delta=scenario.delta, metric=metric)
    return trace.total_cost


# -- serve-stream ------------------------------------------------------------

POINTS_PER_STEP = 2
#: ``mobile-server serve --checkpoint-every`` default.
CHECKPOINT_EVERY = 16
#: Sessions per unit closed and compared with the batch reference.
PARITY_SAMPLE = 4


class ServePhase:
    """A closed loop of ``feed-many`` rounds, one client, checkpoints on.

    Every round feeds one step to every session, so each session
    reaches the checkpoint cadence on the same round: those rounds
    rewrite every session's whole history and make the latency tail.
    """

    name = "serve"

    def __init__(self, root: Path, lanes: int, rounds: int) -> None:
        self.root = root
        self.lanes = lanes
        self.rounds = rounds

    def warm_up(self) -> None:
        from repro.serve import ServeServer

        inputs = self._inputs(0, 2, 20)
        store_dir = _scratch_dir(self.root, "serve-warm-")
        try:
            server = ServeServer(store_dir, checkpoint_every=CHECKPOINT_EVERY)
            for line in inputs["opens"] + inputs["rounds"]:
                server.handle_line(line)
        finally:
            shutil.rmtree(store_dir, ignore_errors=True)

    def _inputs(self, seed: int, lanes: int, rounds: int) -> dict:
        from repro.serve import SessionSpec

        rng = np.random.default_rng(seed)
        specs = [SessionSpec(algorithm="greedy-centroid", dim=2,
                             start=tuple(float(x) for x in rng.normal(size=2)),
                             D=1.5, m=0.7, delta=0.25)
                 for _ in range(lanes)]
        stream = rng.normal(size=(rounds, lanes, POINTS_PER_STEP, 2))
        opens = [json.dumps({"op": "open", "session": f"s{i}", "spec": spec.to_dict()})
                 for i, spec in enumerate(specs)]
        lines = [json.dumps({"op": "feed-many", "feeds": [
            {"session": f"s{i}", "points": stream[r, i].tolist(), "at": r}
            for i in range(lanes)]}) for r in range(rounds)]
        sample = sorted(rng.choice(lanes, size=min(PARITY_SAMPLE, lanes),
                                   replace=False).tolist())
        return {"specs": specs, "stream": stream, "opens": opens, "rounds": lines,
                "sample": sample}

    def prepare(self, seed: int) -> dict:
        return self._inputs(seed, self.lanes, self.rounds)

    def run_unit(self, inputs: dict, tracer=None) -> Unit:
        from repro.serve import ServeServer

        store_dir = _scratch_dir(self.root, "serve-store-")
        server = ServeServer(store_dir, checkpoint_every=CHECKPOINT_EVERY)
        replies = [server.handle_line(line) for line in inputs["opens"]]
        latencies = []
        applied = 0
        t0 = clock()
        for r, line in enumerate(inputs["rounds"]):
            if tracer is not None:
                tracer.run_id = r
            start = clock()
            reply = server.handle_line(line)
            json.dumps(reply)  # what a transport writes back
            latencies.append(clock() - start)
            applied += reply.get("applied", 0)
            replies.append(reply)
        wall = clock() - t0
        ops = [f"open:{i}" for i in range(len(inputs["opens"]))] + \
              [f"round:{r}" for r in range(len(inputs["rounds"]))]
        return Unit(wall, ops,
                    {"requests": applied * POINTS_PER_STEP,
                     "latencies_s": np.asarray(latencies)},
                    outputs=(server, replies, store_dir))

    def check(self, inputs: dict, unit: Unit) -> tuple[set[str], list[str]]:
        """Every reply ok; sampled sessions close equal to the batch reference."""
        from repro.serve import batch_reference, trace_json

        server, replies, store_dir = unit.outputs
        failed: set[str] = set()
        notes: list[str] = []
        try:
            for op, reply in zip(unit.ops, replies):
                if not reply.get("ok"):
                    failed.add(op)
                    notes.append(f"{op}: {reply.get('error')}")
            for lane in inputs["sample"]:
                op = f"close:{lane}"
                unit.ops += [f"trace:{lane}", op]
                sid = f"s{lane}"
                streamed = server.handle_line(json.dumps({"op": "trace", "session": sid}))
                closed = server.handle_line(json.dumps({"op": "close", "session": sid}))
                history = list(inputs["stream"][:, lane])
                reference = batch_reference(inputs["specs"][lane], history)
                ok = (streamed.get("ok") and closed.get("ok")
                      and json.dumps(streamed["trace"], sort_keys=True, separators=(",", ":"))
                      == trace_json(reference)
                      and closed["total_cost"] == reference.total_cost
                      and closed["steps"] == len(history))
                if not ok:
                    failed.add(op)
                    notes.append(f"{op}: streamed session differs from batch_reference")
        finally:
            shutil.rmtree(store_dir, ignore_errors=True)
        return failed, notes
