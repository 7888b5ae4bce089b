"""Serve-mode throughput: how wide cross-lane packing pays off live.

Feeds synthetic request streams through a :class:`repro.serve.pool.SessionPool`
at 1, 100 and 10k concurrent lanes — all sharing one algorithm group, so
every tick advances the whole fleet in a single wide engine step — with
the fused kernels on and off, and writes requests/sec to
``BENCH_serve.json``:

* ``pool_*`` rows — the engine path alone (what a saturated server
  spends its time on).  The per-lane-step rate *rising* with the lane
  count is the point: 10k streams amortise one kernel invocation.
* ``server_*`` rows — the same load pushed through the full
  :class:`~repro.serve.server.ServeServer` protocol layer as
  ``feed-many`` requests, with checkpointing disabled (cadence beyond
  the run) and at the default cadence of 16, isolating the JSON +
  checkpoint overhead.
* ``server_20_lanes_checkpoint16_<N>_steps`` rows — the steps axis: 20
  lanes checkpointed every 16 steps for 200, 1000 and 5000 steps.  A
  checkpoint costs O(new steps), so the rate should stay flat (within
  10 %) as the history grows; ``summary.steps_axis_spread`` is the
  fastest row's rate over the slowest's.

Usage::

    PYTHONPATH=src python benchmarks/bench_serve.py [--out BENCH_serve.json]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
import time

import numpy as np

from repro.serve import SessionPool, SessionSpec
from repro.serve.server import ServeServer

ALGORITHM = "greedy-centroid"
DIM = 2
REQUESTS_PER_STEP = 2

#: lanes -> streamed steps (bounded total work on a 1-CPU container).
LANE_STEPS = {1: 2000, 100: 200, 10_000: 5}

#: The checkpointed steps axis: lanes, cadence and stream lengths.  Each
#: row is the median-time run of ``AXIS_REPEATS``: on a shared host one
#: run's rate swings by tens of percent, more than the 10 % flatness
#: the axis checks.
AXIS_LANES = 20
AXIS_CADENCE = 16
AXIS_STEPS = (200, 1000, 5000)
AXIS_REPEATS = 3


def make_specs(lanes: int) -> list[SessionSpec]:
    rng = np.random.default_rng(1234)
    return [
        SessionSpec(algorithm=ALGORITHM, dim=DIM,
                    start=tuple(float(x) for x in rng.normal(size=DIM)),
                    D=1.5, m=0.7, delta=0.25)
        for _ in range(lanes)
    ]


def make_stream(lanes: int, steps: int) -> np.ndarray:
    rng = np.random.default_rng(99)
    return rng.normal(size=(steps, lanes, REQUESTS_PER_STEP, DIM))


def bench_pool(lanes: int, steps: int, fuse: bool) -> dict:
    specs = make_specs(lanes)
    stream = make_stream(lanes, steps)
    pool = SessionPool(fuse=fuse)
    sessions = [pool.open(spec, f"lane{i}") for i, spec in enumerate(specs)]
    start = time.perf_counter()
    for t in range(steps):
        for i, session in enumerate(sessions):
            session.feed(stream[t, i], at=t)
        pool.tick()
    elapsed = time.perf_counter() - start
    lane_steps = lanes * steps
    return {
        "lanes": lanes, "steps": steps, "fused": fuse,
        "seconds": elapsed,
        "lane_steps_per_sec": lane_steps / elapsed,
        "requests_per_sec": lane_steps * REQUESTS_PER_STEP / elapsed,
    }


def bench_server(lanes: int, steps: int, checkpoint_every: int, root) -> dict:
    specs = make_specs(lanes)
    stream = make_stream(lanes, steps)
    server = ServeServer(root, server_id=f"bench{checkpoint_every}",
                         checkpoint_every=checkpoint_every)
    for i, spec in enumerate(specs):
        reply = server.handle({"op": "open", "session": f"lane{i}",
                               "spec": spec.to_dict()})
        assert reply["ok"], reply
    start = time.perf_counter()
    for t in range(steps):
        reply = server.handle({"op": "feed-many", "feeds": [
            {"session": f"lane{i}", "points": stream[t, i].tolist(), "at": t}
            for i in range(lanes)
        ]})
        assert reply["ok"], reply
    elapsed = time.perf_counter() - start
    lane_steps = lanes * steps
    return {
        "lanes": lanes, "steps": steps,
        "checkpoint_every": checkpoint_every,
        "seconds": elapsed,
        "lane_steps_per_sec": lane_steps / elapsed,
        "requests_per_sec": lane_steps * REQUESTS_PER_STEP / elapsed,
    }


def bench_steps_axis(root) -> dict[str, dict]:
    runs = {}
    for steps in AXIS_STEPS:
        key = f"server_{AXIS_LANES}_lanes_checkpoint{AXIS_CADENCE}_{steps}_steps"
        repeats = sorted((bench_server(AXIS_LANES, steps, AXIS_CADENCE,
                                       os.path.join(root, f"{steps}-{i}"))
                          for i in range(AXIS_REPEATS)), key=lambda row: row["seconds"])
        runs[key] = repeats[AXIS_REPEATS // 2]
        print(f"{key:40s}: {runs[key]['requests_per_sec']:12.0f} req/s "
              f"({runs[key]['seconds']:.3f}s)")
    return runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=str, default="BENCH_serve.json")
    args = parser.parse_args(argv)

    runs: dict[str, dict] = {}
    for lanes, steps in LANE_STEPS.items():
        for fuse in (True, False):
            key = f"pool_{lanes}_lanes_{'fused' if fuse else 'nofuse'}"
            runs[key] = bench_pool(lanes, steps, fuse)
            print(f"{key:32s}: {runs[key]['requests_per_sec']:12.0f} req/s "
                  f"({runs[key]['seconds']:.3f}s)")

    with tempfile.TemporaryDirectory(prefix="bench-serve-") as tmp:
        lanes, steps = 100, LANE_STEPS[100]
        for cadence, label in ((10**9, "no_checkpoint"), (16, "checkpoint16")):
            key = f"server_{lanes}_lanes_{label}"
            runs[key] = bench_server(lanes, steps, cadence, tmp)
            print(f"{key:32s}: {runs[key]['requests_per_sec']:12.0f} req/s "
                  f"({runs[key]['seconds']:.3f}s)")
        axis = bench_steps_axis(tmp)
    runs.update(axis)

    wide = runs["pool_10000_lanes_fused"]["lane_steps_per_sec"]
    solo = runs["pool_1_lanes_fused"]["lane_steps_per_sec"]
    axis_rates = [row["requests_per_sec"] for row in axis.values()]
    payload = {
        "benchmark": "serve-throughput",
        "algorithm": ALGORITHM,
        "dim": DIM,
        "requests_per_step": REQUESTS_PER_STEP,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "runs": runs,
        "summary": {
            "wide_over_solo_lane_step_speedup": wide / solo,
            "protocol_overhead_ratio": (
                runs["server_100_lanes_no_checkpoint"]["seconds"]
                / runs["pool_100_lanes_fused"]["seconds"]),
            "steps_axis_spread": max(axis_rates) / min(axis_rates),
        },
    }
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
