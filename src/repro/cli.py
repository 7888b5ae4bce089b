"""Command-line interface: ``python -m repro`` / ``mobile-server``.

Subcommands
-----------

``experiments``
    Run the reproduction experiments and print their tables
    (``--ids E1 E2 ...``, ``--scale`` to shrink/grow workloads,
    ``--csv DIR`` to also dump CSVs).  Sweeps go through the declarative
    orchestrator: ``--jobs N`` fans the pooled work units of all
    requested experiments out across processes, and completed cells are
    cached in a persistent content-addressed store (``--store DIR``), so
    a repeated or interrupted invocation only computes what is missing
    (``--resume``); ``--rerun`` forces recomputation.  The cache report
    includes per-cell wall-clock timing; ``--store-gc SIZE`` evicts
    least-recently-used store entries down to a size budget afterwards.

``run``
    Execute one declarative :class:`repro.api.Scenario` — a registered
    workload *or* adversary source plus an algorithm, seeds, δ and a
    certification mode — through the unified dispatcher and print the
    per-seed results.

``compare``
    Quick algorithm comparison on a named workload.  Each algorithm is
    one scenario over the same source and seeds; ``run_many`` shares the
    instances and offline brackets across all of them.  Algorithms are
    selected via the registry's capability metadata (dimension support,
    moving-client requirement, cost model).

``serve``
    Long-lived streaming mode: open per-client sessions, feed request
    steps as JSONL over stdin or TCP, and read positions/costs/traces
    incrementally.  Compatible sessions share cross-lane engine waves,
    state checkpoints ride the content-addressed store with atomic
    writes, and ``--resume`` replays checkpointed streams so completed
    traces are bit-identical to uninterrupted runs.

``list``
    Show registered algorithms, workloads, adversaries and experiments.

``lint``
    Run the :mod:`repro.devtools.lint` invariant linter (reprolint) over
    source paths: AST rules enforcing determinism (RNG001/CLK001),
    crash-safety (IO001), digest order-stability (DET001), kernel/
    registry/parity-test completeness (REG001) and public-surface
    hygiene (API001).  ``--list`` enumerates the rules, ``--json`` emits
    the machine schema; exit code 1 on findings makes it a CI gate.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path


def _parse_size(text: str) -> int:
    """``"500M"``/``"2G"``/``"100K"``/plain bytes → byte count."""
    text = text.strip()
    factors = {"K": 1024, "M": 1024**2, "G": 1024**3}
    if text and text[-1].upper() in factors:
        return int(float(text[:-1]) * factors[text[-1].upper()])
    return int(text)


def _fmt_bytes(n: int) -> str:
    for unit, factor in (("G", 1024**3), ("M", 1024**2), ("K", 1024)):
        if n >= factor:
            return f"{n / factor:.1f}{unit}"
    return f"{n}B"


def _add_no_fuse_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--no-fuse", action="store_true",
                        help="disable the fused step kernels and cross-cell "
                             "mega-batching (the bit-identical reference path; "
                             "results are byte-for-byte the same either way)")


def _apply_no_fuse(args: argparse.Namespace) -> None:
    if getattr(args, "no_fuse", False):
        from .core import set_fusion

        set_fusion(False)


def _add_executor_flags(parser: argparse.ArgumentParser) -> None:
    """The execution-backend flags shared by ``experiments`` and ``run``."""
    parser.add_argument("--executor", choices=["inline", "process", "spool"],
                        default=None,
                        help="execution backend (default: inline, or a local "
                             "process pool when --jobs > 1); 'spool' hands "
                             "cells to external 'mobile-server worker' "
                             "processes via --spool + --store")
    parser.add_argument("--spool", type=str, default="", metavar="DIR",
                        help="task directory for --executor spool (shared "
                             "with the workers)")
    parser.add_argument("--spool-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="fail a spool run when no worker makes progress "
                             "for this long (default: wait forever)")


def _run_distributed(call):
    """Run a sweep callable, mapping distributed failures to exit code 1.

    Returns ``(result, None)`` on success, ``(None, 1)`` after printing
    the one-line operational error (a worker's cell raised, or no worker
    made progress within ``--spool-timeout``) — not crashes, not usage
    errors.
    """
    from .experiments.executors import SpoolTaskError

    try:
        return call(), None
    except (SpoolTaskError, TimeoutError) as exc:
        print(f"distributed run failed: {exc}", file=sys.stderr)
        return None, 1


def _resolve_executor(args: argparse.Namespace, has_store: bool):
    """Build the executor for a ``--executor`` flag; (executor, error).

    The spool backend is the only one needing extra wiring: a spool
    directory shared with the workers and a persistent store for the
    payloads to travel through.
    """
    if args.executor != "spool":
        if args.spool or args.spool_timeout is not None:
            return None, ("--spool/--spool-timeout have no effect without "
                          "--executor spool (did you mean --executor spool?)")
        if args.executor == "inline" and args.jobs > 1:
            return None, "--executor inline runs cells sequentially; drop --jobs"
        if args.executor == "process" and args.jobs < 2:
            return None, ("--executor process needs a pool size: pass "
                          "--jobs N (N >= 2), or drop --executor for the "
                          "sequential default")
        return args.executor, None
    if args.jobs > 1:
        return None, ("--jobs has no effect with --executor spool "
                      "(parallelism = how many workers you start)")
    if not args.spool:
        return None, "--executor spool needs a task directory (--spool DIR)"
    if not has_store:
        return None, "--executor spool needs a persistent store (--store DIR)"
    from .experiments.executors import SpoolExecutor

    return SpoolExecutor(args.spool, timeout=args.spool_timeout), None


def _cmd_experiments(args: argparse.Namespace) -> int:
    from .core.store import ResultsStore
    from .experiments import SPECS, run_all_detailed

    _apply_no_fuse(args)
    if args.jobs < 1:
        print("--jobs must be at least 1", file=sys.stderr)
        return 2
    unknown = [eid for eid in args.ids or () if eid not in SPECS]
    if unknown:
        print(f"unknown experiment id(s) {', '.join(unknown)}; "
              f"valid ids: {', '.join(SPECS)}", file=sys.stderr)
        return 2
    if not (math.isfinite(args.scale) and args.scale > 0):
        print(f"--scale must be a finite number > 0 (got {args.scale})", file=sys.stderr)
        return 2
    if args.store_gc is not None and not args.store:
        print("--store-gc needs a persistent store (--store DIR)", file=sys.stderr)
        return 2
    executor, error = _resolve_executor(args, has_store=bool(args.store))
    if error:
        print(error, file=sys.stderr)
        return 2
    ids = args.ids if args.ids else list(SPECS)
    store = ResultsStore(args.store) if args.store else None
    report, error_code = _run_distributed(
        lambda: run_all_detailed(ids, scale=args.scale, seed=args.seed,
                                 jobs=args.jobs, store=store, rerun=args.rerun,
                                 executor=executor))
    if error_code:
        return error_code
    results = report.results
    all_ok = True
    for res in results:
        print(res.render())
        print()
        if args.csv:
            out = Path(args.csv)
            out.mkdir(parents=True, exist_ok=True)
            (out / f"{res.experiment_id.lower()}.csv").write_text(res.csv())
        all_ok &= res.passed
    print(f"{sum(r.passed for r in results)}/{len(results)} experiments reproduced their predicted shape")
    if store is not None:
        verb = "resumed" if args.resume else "cached"
        print(f"store: {report.cached}/{report.total} work units {verb}, "
              f"{report.computed} computed ({store.root})")
    if report.timings:
        slowest = ", ".join(f"{key} {secs:.2f}s" for key, secs in report.slowest(3))
        print(f"timing: {report.computed} cells computed in {report.compute_seconds:.2f}s; "
              f"slowest: {slowest}")
    if store is not None and args.store_gc is not None:
        stats = store.gc(args.store_gc)
        print(f"store-gc: evicted {stats.evicted} entries ({_fmt_bytes(stats.freed_bytes)} freed), "
              f"{stats.remaining_entries} entries ({_fmt_bytes(stats.remaining_bytes)}) remain")
    return 0 if all_ok else 1


def _parse_value(text: str):
    """One value: JSON if it parses, plain string otherwise."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _parse_params(pairs: list[str], axes: bool = False) -> dict:
    """``KEY=VALUE`` pairs; values parse as JSON, falling back to strings.

    With ``axes=True`` (the ``run --grid`` syntax) a comma-separated
    value like ``delta=0.1,0.2,0.5`` becomes a list — which
    :meth:`repro.api.Scenario.grid` expands into an axis (as does a JSON
    list value).
    """
    params = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep:
            raise ValueError(f"parameter {pair!r} must look like KEY=VALUE")
        if axes and "," in value:
            try:
                params[key] = json.loads(value)
            except json.JSONDecodeError:
                params[key] = [_parse_value(part) for part in value.split(",")]
        else:
            params[key] = _parse_value(value)
    return params


def _axis_arg(value: str, parse=str):
    """A top-level CLI axis: ``a,b,c`` → list, single value → scalar."""
    if "," in value:
        return [parse(part) for part in value.split(",")]
    return parse(value)


def _cmd_run_grid(args: argparse.Namespace) -> int:
    from .analysis import render_table
    from .api import Scenario, run_many
    from .core.store import ResultsStore

    if args.jobs < 1:
        print("--jobs must be at least 1", file=sys.stderr)
        return 2
    try:
        grid = Scenario.grid(
            source=_axis_arg(args.source),
            algorithm=_axis_arg(args.algorithm),
            params=_parse_params(args.param, axes=True),
            algorithm_params=_parse_params(args.alg_param, axes=True),
            seeds=tuple(args.seeds),
            delta=_axis_arg(args.delta, parse=float),
            cost_model=args.cost_model,
            metric=_axis_arg(args.metric),
            ratio=args.ratio,
            engine=args.engine,
        )
    except (ValueError, TypeError, KeyError) as exc:
        print(f"bad grid: {exc}", file=sys.stderr)
        return 2
    executor, error = _resolve_executor(args, has_store=bool(args.store))
    if error:
        print(error, file=sys.stderr)
        return 2
    store = ResultsStore(args.store) if args.store else None
    try:
        results, error_code = _run_distributed(
            lambda: run_many(list(grid.scenarios), store=store, jobs=args.jobs,
                             executor=executor))
    except (ValueError, TypeError, KeyError) as exc:
        print(f"bad grid: {exc}", file=sys.stderr)
        return 2
    if error_code:
        return error_code
    headers = [*grid.axes, "mean cost", "ratio >=", "ratio <="]
    rows = [[*point.values(), *res.table_columns()]
            for point, res in zip(grid.point_dicts(), results)]
    title = f"grid over {' x '.join(grid.axes) if grid.axes else '1 point'}, " \
            f"{len(args.seeds)} seed(s)"
    print(render_table(headers, rows, title=title))
    # Accounting comes from the run itself (RunResult.cached), so torn
    # entries that were silently recomputed never report as hits.
    hits = sum(res.cached for res in results)
    computed = len(grid) - hits
    cache_tag = f"{hits} cached, " if store is not None else ""
    print(f"  grid: {len(grid)} scenarios; {cache_tag}{computed} computed "
          f"(jobs={args.jobs})")
    if store is not None:
        print(f"  store: {store.root}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from .adversaries import ADVERSARIES
    from .analysis import render_table
    from .api import Scenario, run_many
    from .core.store import ResultsStore
    from .workloads import WORKLOADS

    _apply_no_fuse(args)
    if args.grid:
        return _cmd_run_grid(args)
    if args.jobs < 1:
        print("--jobs must be at least 1", file=sys.stderr)
        return 2
    if args.source in WORKLOADS:
        kind = "workload"
    elif args.source in ADVERSARIES:
        kind = "adversary"
    else:
        known = ", ".join(sorted(WORKLOADS) + sorted(ADVERSARIES))
        print(f"unknown source {args.source!r}; available: {known}", file=sys.stderr)
        return 2
    try:
        scenario = Scenario(
            kind=kind,
            source=args.source,
            source_params=_parse_params(args.param),
            algorithm=args.algorithm,
            algorithm_params=_parse_params(args.alg_param),
            seeds=tuple(args.seeds),
            delta=float(args.delta),
            cost_model=args.cost_model,
            metric=args.metric,
            ratio=args.ratio,
            engine=args.engine,
        )
    except (ValueError, TypeError) as exc:
        print(f"bad scenario: {exc}", file=sys.stderr)
        return 2
    executor, error = _resolve_executor(args, has_store=bool(args.store))
    if error:
        print(error, file=sys.stderr)
        return 2
    store = ResultsStore(args.store) if args.store else None
    try:
        results, error_code = _run_distributed(
            lambda: run_many([scenario], store=store, executor=executor,
                             jobs=args.jobs))
    except (ValueError, TypeError, KeyError) as exc:
        # Capability mismatches, unknown algorithm names, bad source or
        # algorithm parameters — user input errors, not crashes.
        print(f"bad scenario: {exc}", file=sys.stderr)
        return 2
    if error_code:
        return error_code
    result = results[0]
    cached = result.cached
    headers = ["seed", "cost"]
    rows: list[list] = [[s, float(c)] for s, c in zip(scenario.seeds, result.costs)]
    if result.ratios is not None:
        headers.append("ratio >=")
        for row, r in zip(rows, result.ratios):
            row.append(float(r))
    if result.measurements is not None:
        headers += ["ratio >=", "ratio <="]
        for row, m in zip(rows, result.measurements):
            row += [m.ratio_lower, m.ratio_upper]
    print(render_table(headers, rows, title=scenario.label()))
    origin = "store (cache hit)" if cached else f"{result.engine} engine, {result.elapsed:.3f}s"
    print(f"  mean cost {result.mean_cost:.4f} over {result.batch_size} seed(s); {origin}")
    if result.ratios is not None:
        print(f"  certified ratio lower bound (mean): {result.mean_ratio:.4f}")
    if result.measurements is not None:
        print(f"  certified ratio interval (mean): [{float(result.ratio_lower.mean()):.4f}, "
              f"{float(result.ratio_upper.mean()):.4f}]")
        if result.unconverged:
            print(f"  UNCONVERGED: {result.unconverged} offline bracket(s) stopped at the "
                  "iteration budget; their intervals are valid but wide")
    if store is not None:
        print(f"  scenario digest {scenario.digest()[:16]}... ({store.root})")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from .algorithms import compatible_algorithms
    from .analysis import render_table
    from .api import Scenario, run_many
    from .workloads import SUITE_NAMES, suite_entry

    _apply_no_fuse(args)
    if args.batch < 1:
        print("--batch must be at least 1", file=sys.stderr)
        return 2
    if args.workload not in SUITE_NAMES:
        print(f"unknown workload {args.workload!r}; available: {', '.join(SUITE_NAMES)}", file=sys.stderr)
        return 2
    source, extra = suite_entry(args.workload, args.dim)
    seeds = [args.seed + i for i in range(args.batch)]
    # Plain MSP instances in args.dim dimensions: let the registry's
    # capability metadata pick the algorithms that can play them.  All
    # scenarios share one source + seed set, so run_many materialises the
    # instances once and solves each offline bracket once.
    scenarios = [
        Scenario.workload(
            source,
            algorithm=name,
            params={"T": args.T, "dim": args.dim, "D": args.D, "m": 1.0, **extra},
            seeds=seeds,
            delta=args.delta,
            ratio="bracket",
            name=f"compare/{name}",
        )
        for name in compatible_algorithms(dim=args.dim, moving_client=False)
    ]
    results = run_many(scenarios)
    rows = [
        [res.scenario.algorithm, res.mean_cost,
         float(res.ratio_lower.mean()), float(res.ratio_upper.mean())]
        for res in results
    ]
    rows.sort(key=lambda r: r[3])
    batch_tag = f", batch={args.batch}" if args.batch > 1 else ""
    print(render_table(
        ["algorithm", "cost", "ratio >=", "ratio <="],
        rows,
        title=f"{args.workload} (T={args.T}, dim={args.dim}, D={args.D}, "
              f"delta={args.delta}{batch_tag})",
    ))
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    from .core.store import ResultsStore
    from .experiments.executors import default_worker_id, run_worker

    wid = args.worker_id or default_worker_id()
    print(f"worker {wid}: draining {args.spool} -> {args.store}", flush=True)
    stats = run_worker(
        args.spool,
        ResultsStore(args.store),
        worker_id=wid,
        poll=args.poll,
        max_tasks=args.max_tasks,
        idle_exit=args.idle_exit,
        batch=args.batch,
        progress=lambda message: print(f"worker {wid}: {message}", flush=True),
    )
    if stats.waves:
        sizes = ",".join(str(n) for n in stats.wave_sizes)
        print(f"worker {wid}: {stats.waves} wave(s) of sizes [{sizes}]", flush=True)
    print(f"worker {wid}: exiting — {stats.completed} completed, "
          f"{stats.skipped} skipped, {stats.failed} failed", flush=True)
    return 0 if stats.failed == 0 else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serve import CheckpointError, ServeServer

    _apply_no_fuse(args)
    try:
        server = ServeServer(
            args.store,
            server_id=args.server_id,
            checkpoint_every=args.checkpoint_every,
        )
    except ValueError as exc:
        print(f"bad serve options: {exc}", file=sys.stderr)
        return 2
    if args.resume:
        try:
            restored = server.resume()
        except CheckpointError as exc:
            print(f"cannot resume: {exc}", file=sys.stderr)
            return 2
        print(f"resumed {len(restored)} session(s)"
              + (f": {', '.join(restored)}" if restored else ""),
              file=sys.stderr, flush=True)
    try:
        server.run(host=args.host, port=args.port)
    except KeyboardInterrupt:
        # Leave resumable state behind, like an EOF would.
        server.checkpoint_all()
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    from .adversaries import available_adversaries
    from .algorithms import algorithm_info, available_algorithms
    from .api import available_metrics
    from .experiments import EXPERIMENTS
    from .workloads import available_workloads, workload_info

    default_metrics = ("euclidean", "l1", "linf")

    def metric_tag(metrics: tuple) -> str:
        return "" if tuple(metrics) == default_metrics else f"  [{', '.join(metrics)}]"

    print("metrics:")
    for name in available_metrics():
        print(f"  {name}")
    print("algorithms:")
    for name in available_algorithms():
        print(f"  {name}{metric_tag(algorithm_info(name).metrics)}")
    print("workloads:")
    for name in available_workloads():
        print(f"  {name}{metric_tag(workload_info(name).metrics)}")
    print("adversaries:")
    for name in available_adversaries():
        print(f"  {name}")
    print("experiments:")
    for eid in EXPERIMENTS:
        print(f"  {eid}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from .devtools.lint import available_rules, rule_info, run_lint

    if args.list:
        print("rules:")
        for name in available_rules():
            info = rule_info(name)
            where = "project-wide" if info.project else (
                ", ".join(info.scopes) if info.scopes else "all files")
            print(f"  {name} — {info.summary} [{where}]")
        return 0
    select = None
    if args.select:
        select = [part for chunk in args.select for part in chunk.split(",") if part]
    missing = [path for path in args.paths if not Path(path).exists()]
    if missing:
        print(f"no such path(s): {', '.join(missing)}", file=sys.stderr)
        return 2
    try:
        report = run_lint(args.paths, select=select)
    except KeyError as exc:
        print(f"bad --select: {exc.args[0]}", file=sys.stderr)
        return 2
    if args.json:
        print(report.to_json())
    else:
        print(report.render())
    return 0 if report.clean else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="mobile-server",
        description="Reproduction of 'The Mobile Server Problem' (SPAA 2017)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_exp = sub.add_parser("experiments", help="run reproduction experiments")
    p_exp.add_argument("--ids", nargs="*", default=None, help="experiment ids (default: all)")
    p_exp.add_argument("--scale", type=float, default=1.0, help="workload scale factor")
    p_exp.add_argument("--seed", type=int, default=0)
    p_exp.add_argument("--csv", type=str, default="", help="directory for CSV dumps")
    p_exp.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="worker processes for the experiment work units (default 1)")
    p_exp.add_argument("--store", type=str, default="results/store", metavar="DIR",
                       help="persistent results store; completed work units are "
                            "skipped on re-runs ('' disables caching)")
    p_exp.add_argument("--resume", action="store_true",
                       help="continue an interrupted grid from the store "
                            "(cell-level caching makes this the default; the flag "
                            "documents intent and labels the cache report)")
    p_exp.add_argument("--rerun", action="store_true",
                       help="recompute every work unit, overwriting store entries")
    p_exp.add_argument("--store-gc", type=_parse_size, default=None, metavar="SIZE",
                       help="after the run, evict least-recently-used store entries "
                            "until the store fits SIZE (e.g. 500M, 2G, 120000 bytes); "
                            "validated up front, requires --store")
    _add_no_fuse_flag(p_exp)
    _add_executor_flags(p_exp)
    p_exp.set_defaults(func=_cmd_experiments)

    p_run = sub.add_parser("run", help="run one declarative scenario (or a --grid sweep)")
    p_run.add_argument("--source", required=True,
                       help="registered workload or adversary name (see 'list'); "
                            "with --grid, a comma list is a sweep axis")
    p_run.add_argument("--algorithm", default="mtc",
                       help="registered algorithm name; with --grid, a comma list "
                            "is a sweep axis (e.g. --algorithm mtc,greedy-centroid)")
    p_run.add_argument("-p", "--param", action="append", default=[], metavar="KEY=VALUE",
                       help="source parameter (repeatable), e.g. -p T=200 -p D=4.0; "
                            "with --grid, comma values are an axis (-p D=2.0,4.0)")
    p_run.add_argument("--alg-param", action="append", default=[], metavar="KEY=VALUE",
                       help="algorithm parameter (repeatable), e.g. --alg-param step_scale=0.5")
    p_run.add_argument("--seeds", type=int, nargs="+", default=[0],
                       help="seed sweep (per-scenario engine lanes, never a grid axis)")
    p_run.add_argument("--delta", type=str, default="0.0",
                       help="resource augmentation; with --grid, a comma list is an "
                            "axis (e.g. --delta 0.1,0.2,0.5)")
    p_run.add_argument("--grid", action="store_true",
                       help="expand comma/list values into a Scenario.grid sweep and "
                            "run every cell (one table row per grid point)")
    p_run.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="worker processes for a --grid sweep (default 1)")
    p_run.add_argument("--cost-model", default=None,
                       choices=["move-first", "answer-first", "movement-only"],
                       help="override the instance cost model (workload sources only)")
    p_run.add_argument("--ratio", default="auto", choices=["auto", "adversary", "bracket", "none"],
                       help="certification mode")
    p_run.add_argument("--metric", default="euclidean", metavar="NAME",
                       help="metric space to run in (euclidean, l1, linf, graph; "
                            "comma-separated values become a --grid axis)")
    p_run.add_argument("--engine", default="auto", choices=["auto", "scalar", "batched"],
                       help="simulation engine: auto/batched play the lock-step engine, "
                            "scalar the reference loop (bit-identical)")
    p_run.add_argument("--store", type=str, default="", metavar="DIR",
                       help="content-addressed result cache (same store the "
                            "experiments orchestrator uses)")
    _add_no_fuse_flag(p_run)
    _add_executor_flags(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_wrk = sub.add_parser(
        "worker",
        help="drain orchestrator tasks from a shared spool directory",
        description="Standalone distributed worker: claims task files from "
                    "--spool (atomic rename locking), computes each cell, "
                    "delivers the payload through the shared content-addressed "
                    "--store, and acks.  Run any number of these, on any "
                    "machines sharing the two directories, against a sweep "
                    "submitted with '--executor spool'.")
    p_wrk.add_argument("--spool", required=True, metavar="DIR",
                       help="task directory shared with the submitting sweep")
    p_wrk.add_argument("--store", required=True, metavar="DIR",
                       help="results store shared with the submitting sweep")
    p_wrk.add_argument("--poll", type=float, default=0.1, metavar="SECONDS",
                       help="sleep between scans of an empty spool (default 0.1)")
    p_wrk.add_argument("--max-tasks", type=int, default=None, metavar="N",
                       help="exit after claiming N tasks (default: unbounded)")
    p_wrk.add_argument("--batch", type=int, default=1, metavar="N",
                       help="claim up to N ready tasks per scan and drain "
                            "compatible ones through a single fused mega-batch "
                            "call (default 1: one task at a time)")
    p_wrk.add_argument("--idle-exit", type=float, default=None, metavar="SECONDS",
                       help="exit after this long without finding a task "
                            "(default: wait forever; a STOP file in the spool "
                            "always ends the loop)")
    p_wrk.add_argument("--worker-id", type=str, default=None,
                       help="name used in claim/ack files (default: hostname-pid)")
    p_wrk.set_defaults(func=_cmd_worker)

    p_cmp = sub.add_parser("compare", help="compare algorithms on a workload")
    p_cmp.add_argument("--workload", default="drift")
    p_cmp.add_argument("--T", type=int, default=300)
    p_cmp.add_argument("--dim", type=int, default=1)
    p_cmp.add_argument("--D", type=float, default=4.0)
    p_cmp.add_argument("--delta", type=float, default=0.5)
    p_cmp.add_argument("--seed", type=int, default=0)
    p_cmp.add_argument("--batch", type=int, default=1, metavar="B",
                       help="play B seeded instances per algorithm in one batched "
                            "engine pass and average the certified ratios")
    _add_no_fuse_flag(p_cmp)
    p_cmp.set_defaults(func=_cmd_compare)

    p_srv = sub.add_parser(
        "serve",
        help="long-lived streaming server: feed requests step by step over "
             "JSONL (stdin or TCP), with checkpointed bit-identical resume",
        description="Turn the batched engine into a service.  Clients open "
                    "sessions (one engine lane each), feed request steps as "
                    "newline-delimited JSON, and read positions/costs/traces "
                    "back; compatible lanes advance in shared cross-lane "
                    "engine waves.  Sessions checkpoint periodically through "
                    "the content-addressed store (atomic writes, pinned "
                    "against gc), so after a crash '--resume' replays each "
                    "checkpointed stream and completed traces are "
                    "bit-identical to an uninterrupted run.")
    p_srv.add_argument("--store", required=True, metavar="DIR",
                       help="content-addressed store for checkpoints and "
                            "final session results")
    p_srv.add_argument("--server-id", type=str, default="serve",
                       help="stable identity of this server's checkpoint "
                            "head (default: serve); resume with the same id")
    p_srv.add_argument("--port", type=int, default=None, metavar="N",
                       help="serve the line protocol on TCP port N (0 picks "
                            "a free port, announced on stdout); default: "
                            "stdin/stdout JSONL")
    p_srv.add_argument("--host", type=str, default="127.0.0.1",
                       help="bind address for --port (default 127.0.0.1)")
    p_srv.add_argument("--checkpoint-every", type=int, default=16, metavar="K",
                       help="checkpoint a session every K committed steps "
                            "(default 16; crash loses at most K-1 steps, "
                            "which an idempotent client replay restores)")
    p_srv.add_argument("--resume", action="store_true",
                       help="restore every session in this server-id's "
                            "head by replaying its checkpointed request "
                            "history before serving; a broken checkpoint "
                            "exits 2 naming the session")
    _add_no_fuse_flag(p_srv)
    p_srv.set_defaults(func=_cmd_serve)

    p_list = sub.add_parser("list", help="list algorithms, workloads, adversaries, experiments")
    p_list.set_defaults(func=_cmd_list)

    p_lint = sub.add_parser(
        "lint",
        help="run the reprolint invariant linter (AST rules: determinism, "
             "crash-safety, kernel parity, API surface)",
        description="Static analysis over the source tree: every registered "
                    "rule is an AST visitor enforcing one of the invariants "
                    "the parity tests otherwise only check after the fact. "
                    "Suppress one line with '# reprolint: allow[RULE] "
                    "reason=...' — the reason is mandatory and audited. "
                    "Exit code: 0 clean, 1 findings, 2 usage error.")
    p_lint.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to lint (default: src); "
                             "run from the repository root so path-scoped "
                             "rules resolve (CI uses 'src tests benchmarks')")
    p_lint.add_argument("--json", action="store_true",
                        help="machine-readable report (schema version, "
                             "findings, suppressions, counts)")
    p_lint.add_argument("--list", action="store_true",
                        help="list registered rules with one-line docs and "
                             "their path scopes, then exit")
    p_lint.add_argument("--select", action="append", default=[], metavar="RULES",
                        help="comma-separated rule subset (repeatable), "
                             "e.g. --select RNG001,DET001")
    p_lint.set_defaults(func=_cmd_lint)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
