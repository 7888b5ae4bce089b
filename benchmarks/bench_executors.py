"""Executor backends head-to-head: inline vs process vs spool.

Runs the same experiment grid through each execution backend and writes
machine-readable wall-clocks to ``BENCH_executors.json``:

* ``cold_inline`` — everything in this process (the baseline);
* ``cold_process`` — a local 2-worker process pool, with the sizes of
  the mega-batch waves it dispatched (ready cells of a group-runner
  function cross the process boundary together);
* ``cold_spool`` — the distributed path with **one** worker subprocess
  draining the spool (measures the full task-file + store round-trip
  overhead, not parallelism);
* ``cold_spool_batched`` — the same spool path with the worker claiming
  up to 8 tasks per scan (``--batch 8``) and draining compatible ones
  through one fused mega-batch call, with the wave sizes it reported;
* ``warm`` — a second inline pass over the spool run's store: every
  cell a cache hit, proving the distributed payloads are first-class
  store entries.

``os.cpu_count()`` is recorded alongside: on a single-CPU container the
point of the process/spool rows is *parity* (identical tables, bounded
overhead), not speedup — multi-worker wins need multi-core hardware,
which is what the CI ``experiments-smoke`` job exercises.

Usage::

    PYTHONPATH=src python benchmarks/bench_executors.py \
        [--ids E4 E13 E12] [--scale 0.4] [--out BENCH_executors.json]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.core.store import ResultsStore
from repro.experiments import run_all_detailed
from repro.experiments.executors import ProcessExecutor, Spool, SpoolExecutor


def _timed_run(ids, scale, seed, store, **kwargs):
    start = time.perf_counter()
    report = run_all_detailed(ids, scale=scale, seed=seed, store=store, **kwargs)
    return time.perf_counter() - start, report


def _start_worker(spool_dir: Path, store_dir: Path, wid: str,
                  batch: int = 1) -> subprocess.Popen:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "worker",
         "--spool", str(spool_dir), "--store", str(store_dir),
         "--poll", "0.02", "--worker-id", wid, "--batch", str(batch)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)


def _worker_wave_sizes(output: str) -> list[int]:
    """Parse the wave summary line a batched worker prints on exit."""
    match = re.search(r"wave\(s\) of sizes \[([0-9,]*)\]", output)
    if match is None or not match.group(1):
        return []
    return [int(n) for n in match.group(1).split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    # E4/E13 are hand-written cell experiments (the non-grouped executor
    # path); E12 flattens to scenario cells whose group runner gives the
    # process pool and the batched worker real mega-batch waves to report.
    parser.add_argument("--ids", nargs="+", default=["E4", "E13", "E12"])
    parser.add_argument("--scale", type=float, default=0.4,
                        help="workload scale (0.4 matches the bench suite)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=str, default="BENCH_executors.json")
    args = parser.parse_args(argv)

    runs = {}
    renders = {}
    with tempfile.TemporaryDirectory(prefix="bench-executors-") as tmp:
        tmp = Path(tmp)

        elapsed, report = _timed_run(args.ids, args.scale, args.seed,
                                     ResultsStore(tmp / "store-inline"))
        runs["cold_inline"] = {"seconds": elapsed, "units_computed": report.computed}
        renders["inline"] = [res.render() for res in report.results]
        print(f"cold inline : {elapsed:7.2f}s ({report.computed} units)")

        pool = ProcessExecutor(jobs=2)
        elapsed, report = _timed_run(args.ids, args.scale, args.seed,
                                     ResultsStore(tmp / "store-process"),
                                     executor=pool)
        runs["cold_process"] = {"seconds": elapsed, "jobs": 2,
                                "units_computed": report.computed,
                                "wave_sizes": list(pool.wave_sizes)}
        renders["process"] = [res.render() for res in report.results]
        print(f"cold process: {elapsed:7.2f}s (2-worker pool, "
              f"waves {pool.wave_sizes})")

        spool_dir = tmp / "spool"
        spool_store = ResultsStore(tmp / "store-spool")
        worker = _start_worker(spool_dir, spool_store.root, "bench-w1")
        try:
            elapsed, report = _timed_run(
                args.ids, args.scale, args.seed, spool_store,
                executor=SpoolExecutor(spool_dir, poll=0.02, timeout=3600))
        finally:
            Spool(spool_dir).request_stop()
            worker.communicate(timeout=60)
        runs["cold_spool"] = {"seconds": elapsed, "workers": 1,
                              "units_computed": report.computed}
        renders["spool"] = [res.render() for res in report.results]
        print(f"cold spool  : {elapsed:7.2f}s (1 worker subprocess)")

        batched_dir = tmp / "spool-batched"
        batched_store = ResultsStore(tmp / "store-spool-batched")
        worker = _start_worker(batched_dir, batched_store.root,
                               "bench-w1-batched", batch=8)
        try:
            elapsed, report = _timed_run(
                args.ids, args.scale, args.seed, batched_store,
                executor=SpoolExecutor(batched_dir, poll=0.02, timeout=3600))
        finally:
            Spool(batched_dir).request_stop()
            worker_out = worker.communicate(timeout=60)[0]
        wave_sizes = _worker_wave_sizes(worker_out)
        runs["cold_spool_batched"] = {"seconds": elapsed, "workers": 1,
                                      "batch": 8,
                                      "units_computed": report.computed,
                                      "wave_sizes": wave_sizes}
        renders["spool-batched"] = [res.render() for res in report.results]
        print(f"cold spool-batched: {elapsed:7.2f}s "
              f"(1 worker subprocess, --batch 8, waves {wave_sizes})")

        for name, tables in renders.items():
            assert tables == renders["inline"], f"{name} diverged from inline"

        # Warm pass over the *distributed* store: worker payloads are
        # ordinary cache entries.
        elapsed, report = _timed_run(args.ids, args.scale, args.seed, spool_store)
        runs["warm"] = {"seconds": elapsed, "units_cached": report.cached,
                        "units_computed": report.computed}
        print(f"warm inline : {elapsed:7.2f}s ({report.cached} cached)")

    cold = runs["cold_inline"]["seconds"]
    summary = {
        "process_vs_inline": cold / runs["cold_process"]["seconds"],
        "spool_vs_inline": cold / runs["cold_spool"]["seconds"],
        "spool_overhead_seconds": runs["cold_spool"]["seconds"] - cold,
        "spool_batched_vs_inline": cold / runs["cold_spool_batched"]["seconds"],
        "spool_batched_vs_spool": (runs["cold_spool"]["seconds"]
                                   / runs["cold_spool_batched"]["seconds"]),
        "warm_fraction_of_cold": runs["warm"]["seconds"] / cold,
        "tables_identical_across_backends": True,
    }
    payload = {
        "benchmark": "executor-backends",
        "ids": args.ids,
        "scale": args.scale,
        "seed": args.seed,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "runs": runs,
        "summary": summary,
    }
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")
    for key, value in summary.items():
        print(f"  {key}: {value if isinstance(value, bool) else round(value, 3)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
