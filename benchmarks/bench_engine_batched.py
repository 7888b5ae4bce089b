"""Engine hot-path throughput: scalar loop vs batched loop vs fused kernels.

Measures end-to-end simulation throughput in (instance, step) pairs per
second — "steps/sec" — at three rungs of the engine ladder:

* the scalar per-instance loop (:func:`repro.core.simulator.simulate`);
* the lock-step batched engine (:func:`repro.core.engine.simulate_batch`)
  driving its per-step loop with ``fuse=False``, which plays the scalar
  reference rules through
  :class:`~repro.algorithms.vectorized.ScalarBatchAdapter` — the "loop"
  rung of every row below;
* the fused step kernels (:mod:`repro.core.kernels`, ``fuse=True``),
  which collapse decide/clamp/validate/accounting into block-wise passes
  over the packed request stack.

Rows recorded in ``BENCH_engine.json`` before the batched
``decide_batch`` classes were removed measured a vectorized per-step
loop as the "loop" rung instead.

Every comparison first asserts the paths produce bit-identical traces,
so the numbers can never silently measure different work.  Because this
box times under heavy scheduler contention, the loop-vs-fused comparison
interleaves both paths within each round and reports the median of
per-round ratios rather than comparing two separate timing windows.

Run directly to (re)generate ``BENCH_engine.json``::

    PYTHONPATH=src python benchmarks/bench_engine_batched.py [--out BENCH_engine.json]

or via pytest (the bench suite), where the acceptance criteria are
enforced: batched ≥ 5× scalar, fused ≥ 5× the batched loop for at
least one kerneled algorithm at B=256, and the median-family (MtC)
kernel ≥ 3× the per-step batched loop at B=256.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from repro.algorithms import make_algorithm
from repro.core import simulate, simulate_batch
from repro.workloads import DriftWorkload, RandomWalkWorkload

T = 150
BATCH_SIZES = (1, 32, 256)
DELTA = 0.5

#: Fused-kernel measurement grid: every registered kernel in three regimes —
#: single-request drift at full augmentation on the line (the paper's 1-D
#: case, where the kernels' d==1 special path applies) and in the plane
#: (where greedy-centroid's exact-landing fast-forward engages), plus the
#: 4-request random walk (where the packed-stack build is a real cost).
FUSED_T = 512
FUSED_BATCH_SIZES = (32, 256)
FUSED_CONFIGS = (
    {"workload": "drift", "dim": 1, "requests_per_step": 1, "delta": 1.0},
    {"workload": "drift", "dim": 2, "requests_per_step": 1, "delta": 1.0},
    {"workload": "random-walk", "dim": 2, "requests_per_step": 4, "delta": 0.5},
)
FUSED_ALGORITHMS = ("greedy-centroid", "nearest-chaser", "static")

#: Median-family measurement: the MtC/follow kernels against the per-step
#: batched loop.  The loop pays one scalar geometric-median solve per lane
#: and step plus per-lane Python dispatch, so it is orders of magnitude
#: slower than the time-major kernels above — a short horizon keeps the
#: loop baseline affordable while B=256 (the acceptance point) still
#: exercises the cross-lane solver at full width.  Two request shapes: a
#: pair per step, whose median segment has a closed form, and E5's
#: 4-request random walk in the plane, which runs the numeric solver
#: (vertex test and Newton) on every step.
MEDIAN_T = 32
MEDIAN_B = 256
MEDIAN_CONFIGS = (
    {"workload": "drift", "dim": 2, "requests_per_step": 2, "delta": 0.5, "T": MEDIAN_T},
    {"workload": "random-walk", "dim": 2, "requests_per_step": 4, "delta": 0.5,
     "T": MEDIAN_T},
)
MEDIAN_ALGORITHMS = ("mtc", "follow-last")

_TRACE_FIELDS = ("positions", "movement_costs", "service_costs",
                 "distances_moved", "request_counts")


def _instances(B: int) -> list:
    wl = RandomWalkWorkload(T, dim=2, D=2.0, m=1.0, sigma=0.3, spread=0.4,
                            requests_per_step=4)
    return [wl.generate(np.random.default_rng(s)) for s in range(B)]


def _scalar_run(instances, name: str) -> tuple[float, np.ndarray]:
    start = time.perf_counter()
    totals = np.array([
        simulate(inst, make_algorithm(name), delta=DELTA).total_cost
        for inst in instances
    ])
    elapsed = time.perf_counter() - start
    return len(instances) * T / elapsed, totals


def _batched_run(instances, name: str) -> tuple[float, np.ndarray]:
    start = time.perf_counter()
    totals = simulate_batch(instances, name, delta=DELTA).total_costs
    elapsed = time.perf_counter() - start
    return len(instances) * T / elapsed, totals


def measure(name: str) -> list[tuple[int, float, float, float]]:
    """``(B, scalar steps/s, batched steps/s, speedup)`` rows for one algorithm."""
    rows = []
    for B in BATCH_SIZES:
        instances = _instances(B)
        # Warm-up pass so one-time costs (imports, allocator) don't skew B=1.
        simulate_batch(instances[:1], name, delta=DELTA)
        scalar_sps, scalar_totals = _scalar_run(instances, name)
        batched_sps, batched_totals = _batched_run(instances, name)
        np.testing.assert_array_equal(batched_totals, scalar_totals)
        rows.append((B, scalar_sps, batched_sps, batched_sps / scalar_sps))
    return rows


def _render(name: str, rows) -> str:
    lines = [f"{name}: batched vs scalar throughput (T={T}, 2-D, 4 req/step)",
             f"{'B':>5} | {'scalar steps/s':>14} | {'batched steps/s':>15} | {'speedup':>7}"]
    for B, s, b, x in rows:
        lines.append(f"{B:>5} | {s:>14,.0f} | {b:>15,.0f} | {x:>6.1f}x")
    return "\n".join(lines)


# -- fused kernels vs the per-step batched loop ----------------------------


def _fused_instances(config: dict, B: int) -> list:
    r = config["requests_per_step"]
    dim = config["dim"]
    T_cfg = config.get("T", FUSED_T)
    if config["workload"] == "drift":
        rotate = {"rotate": 0.02} if dim == 2 else {}
        wl = DriftWorkload(T_cfg, dim=dim, D=2.0, m=1.0, speed=0.8,
                           spread=0.2, requests_per_step=r, **rotate)
    else:
        wl = RandomWalkWorkload(T_cfg, dim=dim, D=2.0, m=1.0, sigma=0.3,
                                spread=0.4, requests_per_step=r)
    return [wl.generate(np.random.default_rng(7000 + s)) for s in range(B)]


def _assert_traces_equal(a, b) -> None:
    for field in _TRACE_FIELDS:
        np.testing.assert_array_equal(getattr(a, field), getattr(b, field))


def measure_fused(name: str, config: dict, B: int,
                  rounds: int = 7, fused_reps: int = 5) -> dict:
    """Interleaved loop-vs-fused measurement of one configuration.

    Each round times one ``fuse=False`` run against the mean of
    ``fused_reps`` ``fuse=True`` runs.  The headline ``speedup`` is the
    ratio of *minimum* times across rounds — the standard ``timeit``
    estimator, since scheduler noise on this contended box only ever
    adds time — with the median of per-round ratios reported alongside.
    """
    instances = _fused_instances(config, B)
    delta = config["delta"]
    T_cfg = config.get("T", FUSED_T)
    fused_trace = simulate_batch(instances, name, delta=delta, fuse=True)
    loop_trace = simulate_batch(instances, name, delta=delta, fuse=False)
    _assert_traces_equal(fused_trace, loop_trace)
    lane_steps = B * T_cfg
    loop_times, fused_times = [], []
    for _ in range(rounds):
        t0 = time.perf_counter()
        simulate_batch(instances, name, delta=delta, fuse=False)
        loop_times.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        for _ in range(fused_reps):
            simulate_batch(instances, name, delta=delta, fuse=True)
        fused_times.append((time.perf_counter() - t0) / fused_reps)
    return {
        "algorithm": name,
        "workload": config["workload"],
        "dim": config["dim"],
        "requests_per_step": config["requests_per_step"],
        "delta": delta,
        "T": T_cfg,
        "B": B,
        "loop_steps_per_sec": lane_steps / min(loop_times),
        "fused_steps_per_sec": lane_steps / min(fused_times),
        "speedup": min(loop_times) / min(fused_times),
        "speedup_median": statistics.median(
            lt / ft for lt, ft in zip(loop_times, fused_times)),
        "parity": True,  # asserted above, bit-for-bit
    }


def measure_fused_grid(progress=None) -> list[dict]:
    rows = []
    for config in FUSED_CONFIGS:
        for name in FUSED_ALGORITHMS:
            for B in FUSED_BATCH_SIZES:
                row = measure_fused(name, config, B)
                rows.append(row)
                if progress is not None:
                    progress(
                        f"{row['workload']}/d={row['dim']}/r={row['requests_per_step']}"
                        f"/delta={row['delta']} {row['algorithm']:16s} B={B:>3}: "
                        f"loop {row['loop_steps_per_sec']:>12,.0f}/s  "
                        f"fused {row['fused_steps_per_sec']:>12,.0f}/s  "
                        f"{row['speedup']:.2f}x"
                    )
    return rows


def measure_median_grid(progress=None) -> list[dict]:
    """MtC/follow fused-vs-loop rows at the B=256 acceptance point."""
    rows = []
    for config in MEDIAN_CONFIGS:
        for name in MEDIAN_ALGORITHMS:
            # The per-step loop baseline costs seconds per run at this
            # width, so fewer (still interleaved) rounds than the
            # time-major grid.
            row = measure_fused(name, config, MEDIAN_B, rounds=2, fused_reps=3)
            rows.append(row)
            if progress is not None:
                progress(
                    f"{row['workload']}/d={row['dim']}/r={row['requests_per_step']}"
                    f"/delta={row['delta']} {row['algorithm']:16s} B={row['B']:>3}: "
                    f"loop {row['loop_steps_per_sec']:>12,.0f}/s  "
                    f"fused {row['fused_steps_per_sec']:>12,.0f}/s  "
                    f"{row['speedup']:.2f}x"
                )
    return rows


def _best_fused(rows: list[dict]) -> dict:
    at_256 = [r for r in rows if r["B"] == 256]
    return max(at_256, key=lambda r: r["speedup"])


def _median_row(rows: list[dict], name: str, workload: str = "drift") -> dict:
    return next(r for r in rows if r["algorithm"] == name and r["B"] == MEDIAN_B
                and r["workload"] == workload)


def write_report(rows: list[dict], median_rows: list[dict],
                 out: str | Path) -> dict:
    best = _best_fused(rows)
    mtc = _median_row(median_rows, "mtc")
    payload = {
        "benchmark": "engine-fused-kernels",
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "measurement": ("interleaved rounds, median of per-round "
                        "loop/fused ratios; traces asserted bit-identical"),
        "rows": rows,
        "median_family_rows": median_rows,
        "summary": {
            "best_speedup_at_B256": best["speedup"],
            "best_config": {k: best[k] for k in
                            ("algorithm", "workload", "dim",
                             "requests_per_step", "delta")},
            "acceptance_5x_at_B256": best["speedup"] >= 5.0,
            "mtc_speedup_at_B256": mtc["speedup"],
            "acceptance_mtc_3x_at_B256": mtc["speedup"] >= 3.0,
        },
    }
    Path(out).write_text(json.dumps(payload, indent=2) + "\n")
    return payload


# -- pytest entry points ---------------------------------------------------


def test_batched_engine_speedup(capsys):
    """Acceptance: ≥ 5× steps/sec over scalar at B=256 for a vectorized algorithm."""
    rows = measure("greedy-centroid")
    with capsys.disabled():
        print()
        print(_render("greedy-centroid", rows))
    by_B = {B: x for B, _, _, x in rows}
    assert by_B[256] >= 5.0, f"batched speedup at B=256 is only {by_B[256]:.1f}x"


def test_batched_engine_mtc_tracks_scalar(capsys):
    """MtC (per-lane median) must not regress under the batched engine."""
    rows = measure("mtc")
    with capsys.disabled():
        print()
        print(_render("mtc", rows))
    by_B = {B: x for B, _, _, x in rows}
    assert by_B[256] >= 0.9, f"batched MtC slower than scalar: {by_B[256]:.2f}x"


def test_fused_kernel_speedup(capsys):
    """Acceptance: fused ≥ 5× the batched per-step loop at B=256.

    At least one kerneled algorithm must clear the bar (the greedy
    centroid on single-request drift, where the exact-landing
    fast-forward replays whole target chains per block, is the expected
    winner); every measured configuration is bit-identical by assertion.
    """
    with capsys.disabled():
        print()
        rows = measure_fused_grid(progress=print)
    best = _best_fused(rows)
    assert best["speedup"] >= 5.0, (
        f"best fused speedup at B=256 is only {best['speedup']:.2f}x "
        f"({best['algorithm']} on {best['workload']})"
    )


def test_fused_median_family_speedup(capsys):
    """Acceptance: fused MtC ≥ 3× the per-step batched loop at B=256.

    The loop pays a scalar median solve per lane and step plus per-lane
    Python dispatch; the batch-major kernel amortises both over the whole
    packed stack.  Bit-parity is asserted inside the measurement.
    """
    with capsys.disabled():
        print()
        rows = measure_median_grid(progress=print)
    mtc = _median_row(rows, "mtc")
    assert mtc["speedup"] >= 3.0, (
        f"fused mtc speedup at B=256 is only {mtc['speedup']:.2f}x")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=str, default="BENCH_engine.json")
    args = parser.parse_args(argv)
    for name in ("greedy-centroid", "mtc"):
        print(_render(name, measure(name)))
        print()
    rows = measure_fused_grid(progress=print)
    median_rows = measure_median_grid(progress=print)
    payload = write_report(rows, median_rows, args.out)
    summary = payload["summary"]
    print(f"wrote {args.out}")
    print(f"  best fused speedup at B=256: {summary['best_speedup_at_B256']:.2f}x "
          f"({summary['best_config']['algorithm']} on "
          f"{summary['best_config']['workload']}, "
          f"d={summary['best_config']['dim']}, "
          f"r={summary['best_config']['requests_per_step']}, "
          f"delta={summary['best_config']['delta']})")
    print(f"  acceptance (>=5x at B=256): {summary['acceptance_5x_at_B256']}")
    print(f"  fused mtc vs per-step loop at B=256: "
          f"{summary['mtc_speedup_at_B256']:.2f}x "
          f"(acceptance >=3x: {summary['acceptance_mtc_3x_at_B256']})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
