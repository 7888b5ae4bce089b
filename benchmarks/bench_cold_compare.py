"""Cold experiment wall-clock, before vs after, across two source trees.

Times ``run_all_detailed([eid])`` against a fresh, empty results store for
each experiment id and each source tree (``--src LABEL=PATH``, where PATH
is a ``src/`` directory), interleaving the trees round by round so drift
on the machine hits both alike.  Every run is its own interpreter with
PYTHONPATH pointing at that tree; the timer covers only the experiment
run, not the imports.  Each tree's rendered tables (``precision=10``)
must be byte-identical across its own rounds, otherwise the script exits
1 at once.  Tables that differ *between* trees (a change that moves
digits) still get timed: the record says per experiment whether they
were ``tables_identical``, and the script exits 1 after printing it.

Usage::

    PYTHONPATH=src python benchmarks/bench_cold_compare.py \\
        --src before=/path/to/parent/src --src after=src [--ids E4 E13] [--seed 1]

The JSON record printed last is meant to be pasted by hand into
``BENCH_experiments.json`` under a key naming the change it measures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

_CHILD = r"""
import json, sys, tempfile, time
from repro.core.store import ResultsStore
from repro.experiments import run_all_detailed

eid, scale, seed = sys.argv[1], float(sys.argv[2]), int(sys.argv[3])
with tempfile.TemporaryDirectory(prefix="bench-cold-") as tmp:
    store = ResultsStore(tmp)
    start = time.perf_counter()
    report = run_all_detailed([eid], scale=scale, seed=seed, store=store)
    seconds = time.perf_counter() - start
print(json.dumps({"seconds": seconds, "cached": report.cached,
                  "render": report.results[0].render(precision=10)}))
"""


def _cold_run(src: str, eid: str, scale: float, seed: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()))
    out = subprocess.run([sys.executable, "-c", _CHILD, eid, str(scale), str(seed)],
                         env=env, check=True, capture_output=True, text=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", action="append", required=True,
                        help="LABEL=PATH of a src/ tree; give two or more")
    parser.add_argument("--ids", nargs="+", default=["E5", "E9", "E17"])
    parser.add_argument("--scale", type=float, default=0.4)
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    trees = dict(spec.split("=", 1) for spec in args.src)
    seconds = {eid: {label: [] for label in trees} for eid in args.ids}
    renders: dict[tuple[str, str], str] = {}
    for rnd in range(args.rounds):
        for eid in args.ids:
            for label, src in trees.items():
                run = _cold_run(src, eid, args.scale, args.seed)
                if run["cached"]:
                    print(f"{eid} [{label}] served {run['cached']} cached cells", file=sys.stderr)
                    return 1
                if renders.setdefault((eid, label), run["render"]) != run["render"]:
                    print(f"{eid} [{label}] table differs from its first run", file=sys.stderr)
                    return 1
                seconds[eid][label].append(round(run["seconds"], 2))
                print(f"round {rnd + 1} {eid} {label}: {run['seconds']:.2f}s", flush=True)

    labels = list(trees)
    rows = {}
    for eid in args.ids:
        row = {label: {"runs": runs, "median": statistics.median(runs)}
               for label, runs in seconds[eid].items()}
        if len(labels) == 2:
            row["speedup"] = round(row[labels[0]]["median"] / row[labels[1]]["median"], 2)
        row["tables_identical"] = len({renders[eid, label] for label in labels}) == 1
        rows[eid] = row
    record = {
        "what": f"cold run_all_detailed per experiment, fresh store, {args.rounds} "
                f"interleaved rounds across {', '.join(labels)}; tables_identical: "
                f"the rendered tables (precision=10) match byte for byte across trees",
        "scale": args.scale,
        "seed": args.seed,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "seconds": rows,
    }
    print(json.dumps(record, indent=2))
    differ = [eid for eid, row in rows.items() if not row["tables_identical"]]
    if differ:
        print(f"tables differ across trees: {', '.join(differ)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
