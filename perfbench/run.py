"""Repository benchmark: run one workload and print its metrics as JSON.

Usage (from the repository root)::

    python3 perfbench/run.py --workload exp-cold|sweep|serve-stream \\
        --seed N --seconds S --trace 0|1

``--trace 0`` prints the end-to-end metrics, timed with tracing off and
counted in passes of a fixed reference kernel (``reference.py``), so
that they follow the package's speed rather than a shared host's.
``--trace 1`` runs the workload's main phase in traced and untraced
pairs, and prints the per-layer metrics with the tracing overhead.  The last stdout
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it are a readable report and the run
record.  ``perfbench/NOTES.md`` says why each workload exists and which
layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import os  # noqa: E402

# One BLAS thread, set before numpy loads: on a small shared host, BLAS
# worker threads compete with each other and the neighbours for cores,
# and that, not the code, then sets the spread of the timings.  The run
# record reports the setting.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".perfbench_tmp"
OUT_DIR = ROOT / ".perfbench_out"

#: Seed for developing a change, and the seed held out to confirm its
#: claim on inputs the change was not tuned on.
DEV_SEED = 1
HELDOUT_SEED = 7919

WORKLOADS = {"exp-cold": "exp", "sweep": "sweep", "serve-stream": "serve"}
KINDS = ("exp", "sweep", "serve")

#: Share of ``--seconds`` the workload's own phase gets; the control
#: probes split the rest.
MAIN_SHARE = 0.6
#: Fewest units a control probe runs.
PROBE_UNITS = 3
#: Probes always use this seed: small inputs vary in cost from draw to
#: draw, and a probe is a fixed control, not a claim about the inputs.
PROBE_SEED = 0
#: Times the input generation is repeated inside set-up (median reported).
SETUP_REPEATS = 3


def make_phases(root: Path) -> tuple[dict, dict]:
    """Full-size phases and the small control probes of the same phases."""
    from phases import ExpPhase, ServePhase, SweepPhase

    full = {
        "exp": ExpPhase(root, ("E4", "E5", "E9", "E13"), scale=0.4),
        "sweep": SweepPhase(root, lanes=32, T=100),
        "serve": ServePhase(root, lanes=16, rounds=1000),
    }
    probe = {
        "exp": ExpPhase(root, ("E4",), scale=0.2),
        "sweep": SweepPhase(root, lanes=8, T=50),
        "serve": ServePhase(root, lanes=2, rounds=1000),
    }
    return full, probe


def phase_metrics(kind: str, units: list) -> dict[str, float]:
    """End-to-end metrics of one phase, pooled over its timed units.

    Every wall-clock is counted in ``ref``: mean passes of the reference
    kernel timed during and right after its unit (``reference.py``).
    The metrics thus follow the package's speed, not the host's.  Rates
    are total work over total ``ref``, ``exp_wall_ref`` is the mean per
    unit, and the serve percentiles are taken over the rounds of all
    units.  The host switches between a fast and a slow state for
    seconds at a time; a median over units would jump between the two,
    while a pooled figure follows their mix smoothly.
    """
    wall_ref = sum(u.wall_s / u.ref_s for u in units)
    if kind == "exp":
        return {"exp_wall_ref": wall_ref / len(units)}
    if kind == "sweep":
        return {"sweep_lane_steps_per_ref": sum(u.measures["lane_steps"] for u in units) / wall_ref}
    import numpy as np

    # Every unit has >= 1000 rounds, so >= 10 rounds lie beyond the p99.
    latencies = np.concatenate([u.measures["latencies_s"] / u.ref_s for u in units])
    return {
        "serve_req_per_ref": sum(u.measures["requests"] for u in units) / wall_ref,
        "serve_round_p50_ref": float(np.percentile(latencies, 50)),
        "serve_round_p99_ref": float(np.percentile(latencies, 99)),
    }


def gauged(phase, inputs, tracer=None):
    """One unit of ``phase``, with its mean reference pass in ``ref_s``."""
    from reference import GAUGE

    unit, ref_s = GAUGE.measure(phase.run_unit, inputs, tracer=tracer)
    unit.ref_s = ref_s
    return unit


class Ledger:
    """Operations attempted and failed, plus the notes of failed checks."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def check(self, phase, inputs, unit, label: str) -> None:
        """Check a unit's outputs (untimed), count its operations, drop the outputs."""
        failed, notes = phase.check(inputs, unit)
        unit.outputs = None
        self.attempted += len(unit.ops)
        self.failed += len(failed)
        self.notes.extend(f"{label}: {n}" for n in notes)


def setup(kinds: list[str], phases: dict, seed: int) -> tuple[dict, float]:
    """Imports, warm-up and input generation; returns (inputs, setup_s).

    ``kinds[0]`` is the workload's main phase, which gets ``seed``.
    """
    import repro.api  # noqa: F401
    import repro.experiments  # noqa: F401
    import repro.serve  # noqa: F401
    for kind in kinds:
        phases[kind].warm_up()
    once = time.perf_counter() - T_START
    repeats = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        inputs = {kind: phases[kind].prepare(seed if kind == kinds[0] else PROBE_SEED)
                  for kind in kinds}
        repeats.append(time.perf_counter() - t0)
    return inputs, once + statistics.median(repeats)


def end_to_end(args, full: dict, probe: dict) -> tuple[dict, Ledger, list[str]]:
    """Main phase and the other phases as control probes, interleaved.

    The run spends about ``MAIN_SHARE`` of ``--seconds`` on the main
    phase and splits the rest evenly between the probes.  After one unit
    of every probe and one main unit, the phase furthest behind its
    share runs next, among those whose last unit would still end within
    ``--seconds``; every probe runs at least ``PROBE_UNITS`` units.  Each
    phase is thereby sampled across the whole run rather than one
    stretch of it.
    """
    primary = WORKLOADS[args.workload]
    kinds = [primary] + [k for k in KINDS if k != primary]
    phases = {kind: full[kind] if kind == primary else probe[kind] for kind in kinds}
    share = {kind: MAIN_SHARE if kind == primary else (1 - MAIN_SHARE) / (len(kinds) - 1)
             for kind in kinds}
    inputs, setup_s = setup(kinds, phases, args.seed)
    ledger = Ledger()
    units: dict[str, list] = {kind: [] for kind in kinds}
    used = dict.fromkeys(kinds, 0.0)

    def run(kind: str) -> None:
        gc.collect()
        unit = gauged(phases[kind], inputs[kind])
        units[kind].append(unit)
        used[kind] += unit.wall_s
        ledger.check(phases[kind], inputs[kind], unit, kind)

    for kind in kinds[1:] + kinds[:1]:
        run(kind)
    while True:
        total = sum(used.values())
        short = [k for k in kinds[1:] if len(units[k]) < PROBE_UNITS]
        fits = [k for k in kinds if total + units[k][-1].wall_s <= args.seconds]
        if not (short or fits):
            break
        run(min(short or fits, key=lambda kind: used[kind] / share[kind]))

    metrics = {"setup_s": setup_s}
    report = [f"setup: {setup_s:.3f} s"]
    refs = [u.ref_s * 1e3 for kind in kinds for u in units[kind]]
    report.append(f"reference pass per unit: median {statistics.median(refs):.4f} ms, "
                  f"min {min(refs):.4f}, max {max(refs):.4f}")
    for kind in kinds:
        values = phase_metrics(kind, units[kind])
        metrics.update(values)
        role = "main" if kind == primary else "control probe"
        report.append(f"{kind} ({role}): {len(units[kind])} units, {used[kind]:.2f} s wall-clock")
        for name, value in values.items():
            per_unit = [phase_metrics(kind, [u])[name] for u in units[kind]]
            report.append(f"  {name} = {value:.6g}; per unit: "
                          + " ".join(f"{v:.5g}" for v in per_unit))
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return metrics, ledger, report


def per_layer(args, full: dict, probe: dict) -> tuple[dict, Ledger, list[str], dict]:
    """Traced and untraced units of the main phase, split by layer.

    Units run in pairs, traced and untraced, in alternating order, while
    another pair fits in ``--seconds`` (at least one pair).  The layer
    split comes from the first traced unit; the overhead is the median
    traced wall-clock minus the median untraced one, because the host's
    speed drifts by more than the tracing costs from one unit to the next.
    """
    import numpy as np
    import tracer as tr

    primary = WORKLOADS[args.workload]
    phase = full[primary]
    inputs, setup_s = setup([primary], full, args.seed)
    warm_inputs = probe[primary].prepare(PROBE_SEED)
    ledger = Ledger()
    # A probe-size unit warms the phase's code paths first.
    warm = probe[primary].run_unit(warm_inputs)
    ledger.check(probe[primary], warm_inputs, warm, f"{primary} (warm-up)")

    first = None  # (tracer, unit, wall) of the first traced unit
    walls: dict[bool, list[float]] = {True: [], False: []}
    units: dict[bool, list] = {True: [], False: []}
    while True:
        traced_first = len(walls[True]) % 2 == 0
        for traced in (traced_first, not traced_first):
            tracer = tr.Tracer() if traced else None
            installed = tr.install(tracer) if traced else None
            gc.collect()
            try:
                t0 = time.perf_counter()
                unit = gauged(phase, inputs[primary], tracer=tracer)
                wall = time.perf_counter() - t0
            finally:
                if installed is not None:
                    installed.restore()
            ledger.check(phase, inputs[primary], unit, f"{primary} (traced={traced})")
            if traced and first is None:
                first = (tracer, unit, wall)
            walls[traced].append(wall)
            units[traced].append(unit)
        # Stop before a further pair would overrun --seconds.
        pair = walls[True][-1] + walls[False][-1]
        if sum(walls[True]) + sum(walls[False]) + pair > args.seconds:
            break

    tracer, traced_unit, traced_wall = first
    metrics = tr.layer_metrics(tracer, traced_wall)
    tail_share = 0.0
    if primary == "serve":
        lat = traced_unit.measures["latencies_s"]
        tail = np.nonzero(lat > np.percentile(lat, 99))[0]
        saved = tr.checkpoint_runs(tracer)
        tail_share = sum(int(r) in saved for r in tail) / len(tail)
    traced_med = statistics.median(walls[True])
    untraced_med = statistics.median(walls[False])
    metrics.update({
        "checkpoint.tail_share": tail_share,
        "trace.wall_s": traced_wall,
        "trace.pairs": len(walls[True]),
        "trace.untraced_wall_s": untraced_med,
        "trace.overhead_s": traced_med - untraced_med,
        "trace.overhead_share": (traced_med - untraced_med) / untraced_med,
    })

    e2e_plain = phase_metrics(primary, units[False])
    e2e_traced = phase_metrics(primary, units[True])
    report = [f"setup: {setup_s:.3f} s",
              f"{len(walls[True])} pairs: median traced wall {traced_med:.3f} s, "
              f"untraced {untraced_med:.3f} s"]
    report += [f"  {k}: untraced {e2e_plain[k]:.6g}, traced {e2e_traced[k]:.6g}, "
               f"traced - untraced {e2e_traced[k] - e2e_plain[k]:+.6g}" for k in e2e_plain]
    selfs = sorted(((metrics[f"{layer}.self_s"], layer) for layer in tr.LAYERS), reverse=True)
    report.append("self time by layer in the first traced unit (adds up to its wall-clock):")
    report += [f"  {layer:13s} {value:10.4f} s" for value, layer in selfs if value > 0]
    report.append(f"  {'unattributed':13s} {metrics['unattributed_s']:10.4f} s")
    total = sum(v for v, _ in selfs) + metrics["unattributed_s"]
    report.append(f"  {'sum':13s} {total:10.4f} s  (traced wall {traced_wall:.4f} s)")
    spans = {"fields": ["id", "parent", "name", "layer", "start", "end", "run"],
             "spans": tracer.spans}
    return metrics, ledger, report, spans


def declared_units(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package source under {ROOT / 'src'}; "
              "run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    units = declared_units(args.trace)

    full, probe = make_phases(ROOT)
    try:
        if args.trace:
            metrics, ledger, report, spans = per_layer(args, full, probe)
        else:
            metrics, ledger, report = end_to_end(args, full, probe)
            spans = None
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    if set(metrics) != set(units):
        print(f"perfbench: measured metrics {sorted(set(metrics) ^ set(units))} "
              "differ from BENCHMARK.json", file=sys.stderr)
        return 3

    from records import environment

    record = {**environment(ROOT), "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "dev_seed": DEV_SEED, "heldout_seed": HELDOUT_SEED}
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for line in report:
        print(line)
    for note in ledger.notes:
        print(f"FAILED CHECK {note}")
    print("record " + json.dumps(record, sort_keys=True))
    if spans is not None:
        OUT_DIR.mkdir(exist_ok=True)
        out = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        out.write_text(json.dumps({"record": record, "metrics": metrics, **spans}))
        print(f"spans written to {out.relative_to(ROOT)}")
    print(json.dumps({
        "correct": ledger.failed == 0 and ledger.attempted > 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
