"""Span tracing around the package's public layer boundaries.

The benchmark records spans from its own files: :func:`install` swaps
each listed public function or method for a wrapper that opens a span
(name, layer, start, end, parent, run id) around the call and feeds a
per-layer counter hook.  Every binding of a wrapped function inside the
``repro`` package is replaced (``from x import f`` copies included) and
:meth:`Installed.restore` puts the originals back, so a traced phase and
an untraced one run the very same package code.

Spans stay in memory; :func:`layer_metrics` derives the per-layer
numbers once the traced phase has ended.  A layer's self time is its
spans' durations minus the time their direct child spans cover; the
remainder of the traced wall-clock outside every top-level span is
reported as ``unattributed_s``, so self times plus that remainder add up
to the traced wall-clock.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable

#: Layers in the order the report lists them (module the spans wrap).
LAYERS = (
    "orchestrator",  # repro.experiments.orchestrator
    "runtime",       # repro.api.runtime
    "workloads",     # repro.workloads.* generate()
    "convex",        # repro.offline.convex (+ its L-BFGS solver call)
    "dp",            # repro.offline.dp_line / dp_grid
    "lemma6",        # repro.analysis.lemma6
    "engine",        # repro.core.engine / repro.core.kernels
    "median",        # repro.median.batched
    "reducers",      # repro.api.reducers
    "store",         # repro.core.store.ResultsStore
    "serve",         # repro.serve.server.ServeServer
    "session",       # repro.serve.session
    "pool",          # repro.serve.pool.SessionPool
    "checkpoint",    # repro.serve.checkpoint
)

# Span record fields (kept as lists: cheap to build, JSON-ready).
ID, PARENT, NAME, LAYER, START, END, RUN = range(7)


@dataclass
class Tracer:
    """In-memory span recorder with per-layer counters."""

    spans: list[list] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    run_id: int = 0
    _stack: list[int] = field(default_factory=list)

    def call(self, name: str, layer: str, fn: Callable, args, kwargs):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [sid, parent, name, layer, perf_counter(), 0.0, self.run_id]
        self.spans.append(record)
        self._stack.append(sid)
        try:
            return fn(*args, **kwargs)
        finally:
            record[END] = perf_counter()
            self._stack.pop()

    def inside(self, layer: str) -> bool:
        """Whether a span of ``layer`` is open (the caller's ancestors)."""
        return any(self.spans[sid][LAYER] == layer for sid in self._stack)


def _wrap(tracer: Tracer, original: Callable, name: str, layer: str,
          hook: Callable | None) -> Callable:
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        sid = len(tracer.spans)
        result = tracer.call(name, layer, original, args, kwargs)
        if hook is not None:
            span = tracer.spans[sid]
            hook(tracer, span[END] - span[START], args, kwargs, result)
        return result

    return wrapper


@dataclass
class Installed:
    """The bindings :func:`install` replaced, for :meth:`restore`."""

    replaced: list[tuple[Any, str, Any]] = field(default_factory=list)

    def restore(self) -> None:
        for owner, attr, original in reversed(self.replaced):
            setattr(owner, attr, original)
        self.replaced.clear()


def _is_package(name: str) -> bool:
    return name == "repro" or name.startswith("repro.")


def _patch_function(installed: Installed, tracer: Tracer, module: str, attr: str,
                    name: str, layer: str, hook=None) -> Callable:
    """Wrap ``module.attr`` wherever the package binds it.

    A function from outside the package (the scipy solver) is wrapped
    only in ``module``, so no other caller of it is counted there.
    """
    original = getattr(importlib.import_module(module), attr)
    wrapper = _wrap(tracer, original, name, layer, hook)
    if _is_package(getattr(original, "__module__", "") or ""):
        modules = [mod for mod_name, mod in list(sys.modules.items())
                   if mod is not None and _is_package(mod_name)]
    else:
        modules = [sys.modules[module]]
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is original:
                installed.replaced.append((mod, key, value))
                setattr(mod, key, wrapper)
    return wrapper


def _patch_method(installed: Installed, tracer: Tracer, cls: type, attr: str,
                  name: str, layer: str, hook=None) -> None:
    original = cls.__dict__[attr]
    installed.replaced.append((cls, attr, original))
    setattr(cls, attr, _wrap(tracer, original, name, layer, hook))


# -- counter hooks -----------------------------------------------------------
# Each hook runs after its call returned; ``tracer.inside(layer)`` then
# tests the caller's open spans, which keeps nested calls of one layer
# (run_many -> run, simulate_batch -> advance_lanes) from counting twice.


def _count(key: str):
    def hook(tracer: Tracer, elapsed, args, kwargs, result):
        tracer.counts[key] += 1
    return hook


def _outermost(layer: str, key: str, amount: Callable[..., float] = lambda *a: 1):
    def hook(tracer: Tracer, elapsed, args, kwargs, result):
        if not tracer.inside(layer):
            tracer.counts[key] += amount(args, kwargs, result)
    return hook


def _orchestrator_units(args, kwargs, result):
    return result.computed + result.cached + result.skipped


def _solver_health(tracer: Tracer, elapsed, args, kwargs, result):
    tracer.counts["convex.solves"] += 1
    tracer.counts["convex.iterations"] += int(result.nit)
    tracer.counts["convex.capped"] += int(result.status == 1)
    tracer.counts["convex.converged"] += int(bool(result.success))


def _simulate_batch(tracer: Tracer, elapsed, args, kwargs, result):
    tracer.counts["engine.calls"] += 1
    tracer.counts["engine.lane_steps"] += result.batch_size * result.length


def _run_fused(tracer: Tracer, elapsed, args, kwargs, result):
    tracer.counts["engine.fused_calls"] += 1
    tracer.counts["engine.fused_lane_steps"] += result.batch_size * result.length


def _advance_lanes(tracer: Tracer, elapsed, args, kwargs, result):
    lanes = len(result[0])
    tracer.counts["engine.advance_lanes_s"] += elapsed
    if not tracer.inside("engine"):  # a serve wave, not a simulate_batch step
        tracer.counts["engine.calls"] += 1
        tracer.counts["engine.lane_steps"] += lanes
    if tracer.inside("pool"):
        tracer.counts["pool.waves"] += 1
        tracer.counts["pool.lanes"] += lanes


def _median(tracer: Tracer, elapsed, args, kwargs, result):
    tracer.counts["median.calls"] += 1
    tracer.counts["median.lanes"] += len(result)


def _store_save(tracer: Tracer, elapsed, args, kwargs, result):
    size = result.stat().st_size
    tracer.counts["store.saves"] += 1
    tracer.counts["store.bytes_written"] += size
    if tracer.inside("checkpoint"):
        tracer.counts["checkpoint.bytes"] += size


def _reply(tracer: Tracer, elapsed, args, kwargs, result):
    tracer.counts["serve.ops"] += 1
    tracer.counts["serve.failed"] += int(not result.get("ok"))


def install(tracer: Tracer) -> Installed:
    """Wrap every traced public boundary; returns the restore handle."""
    import repro.workloads.graphnet  # noqa: F401  (lazy generator class)
    from repro.core.store import ResultsStore
    from repro.serve.pool import SessionPool
    from repro.serve.server import ServeServer
    from repro.serve.session import OnlineSession
    from repro.workloads.base import WorkloadGenerator

    done = Installed()
    fn = functools.partial(_patch_function, done, tracer)
    method = functools.partial(_patch_method, done, tracer)

    fn("repro.experiments.orchestrator", "execute", "orchestrator.execute",
       "orchestrator", _outermost("orchestrator", "orchestrator.units", _orchestrator_units))

    fn("repro.api.runtime", "run_many", "runtime.run_many", "runtime",
       _outermost("runtime", "runtime.cells", lambda a, k, r: len(r)))
    fn("repro.api.runtime", "run", "runtime.run", "runtime",
       _outermost("runtime", "runtime.cells"))
    fn("repro.api.runtime", "build_instances", "runtime.build_instances", "runtime")
    # The executors hand grouped scenario cells to ``cell_run.group_runner``
    # (cross-cell mega-batching), so that hook is a runtime boundary too.
    group_runner = importlib.import_module("repro.api.runtime").cell_run.group_runner
    cell_run = fn("repro.api.runtime", "cell_run", "runtime.cell_run", "runtime",
                  _outermost("runtime", "runtime.cells"))
    cell_run.group_runner = _wrap(tracer, group_runner, "runtime.cell_run_group", "runtime",
                                  _outermost("runtime", "runtime.cells",
                                             lambda a, k, r: len(r)))

    pending = list(WorkloadGenerator.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "generate" in cls.__dict__:
            method(cls, "generate", f"workloads.{cls.__name__}.generate", "workloads",
                   _outermost("workloads", "workloads.instances"))

    fn("repro.offline.convex", "convex_bracket", "convex.convex_bracket", "convex")
    fn("repro.offline.convex", "relaxed_lower_bound", "convex.relaxed_lower_bound", "convex")
    fn("repro.offline.convex", "minimize", "convex.lbfgs", "convex", _solver_health)
    fn("repro.offline.dp_line", "solve_line", "dp.solve_line", "dp", _count("dp.solves"))
    fn("repro.offline.dp_grid", "solve_grid", "dp.solve_grid", "dp", _count("dp.solves"))
    fn("repro.analysis.lemma6", "sample_lemma6", "lemma6.sample_lemma6", "lemma6",
       _count("lemma6.calls"))

    fn("repro.core.engine", "simulate_batch", "engine.simulate_batch", "engine", _simulate_batch)
    fn("repro.core.kernels", "run_fused", "engine.run_fused", "engine", _run_fused)
    fn("repro.core.engine", "advance_lanes", "engine.advance_lanes", "engine", _advance_lanes)
    fn("repro.median.batched", "batched_weiszfeld", "median.batched_weiszfeld", "median", _median)
    fn("repro.median.batched", "batched_request_center", "median.batched_request_center",
       "median", _median)

    fn("repro.api.reducers", "reduce_cells", "reducers.reduce_cells", "reducers")

    method(ResultsStore, "save", "store.save", "store", _store_save)
    method(ResultsStore, "load", "store.load", "store")

    method(ServeServer, "handle_line", "serve.handle_line", "serve")
    method(ServeServer, "handle", "serve.handle", "serve", _reply)
    method(OnlineSession, "feed", "session.feed", "session")
    fn("repro.serve.session", "request_stream_digest", "session.request_stream_digest", "session")
    method(SessionPool, "drain", "pool.drain", "pool")
    method(SessionPool, "tick", "pool.tick", "pool")
    fn("repro.serve.checkpoint", "save_session_checkpoint", "checkpoint.save_session_checkpoint",
       "checkpoint", _count("checkpoint.saves"))
    return done


# -- derived metrics ---------------------------------------------------------


def _self_times(spans: list[list]) -> list[float]:
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    return [span[END] - span[START] - child[span[ID]] for span in spans]


def _busy(spans: list[list], predicate: Callable[[list], bool]) -> float:
    """Summed duration of matching spans that have no matching ancestor."""
    total = 0.0
    for span in spans:
        if not predicate(span):
            continue
        parent = span[PARENT]
        while parent >= 0 and not predicate(spans[parent]):
            parent = spans[parent][PARENT]
        if parent < 0:
            total += span[END] - span[START]
    return total


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Per-layer metrics from a finished traced phase of ``wall_s`` seconds."""
    spans = tracer.spans
    c = tracer.counts
    self_s = _self_times(spans)
    by_layer = Counter()
    for span, own in zip(spans, self_s):
        by_layer[span[LAYER]] += own
    top = sum(span[END] - span[START] for span in spans if span[PARENT] < 0)

    def busy(layer: str) -> float:
        return _busy(spans, lambda s: s[LAYER] == layer)

    def named(name: str) -> float:
        return _busy(spans, lambda s: s[NAME] == name)

    def calls(name: str) -> int:
        return sum(1 for s in spans if s[NAME] == name)

    handle_line = named("serve.handle_line")
    handle = named("serve.handle")
    waves = c["pool.waves"]
    out = {f"{layer}.self_s": by_layer[layer] for layer in LAYERS}
    out.update({
        "orchestrator.units": c["orchestrator.units"],
        "runtime.cells": c["runtime.cells"],
        "workloads.generate_s": busy("workloads"),
        "workloads.instances": c["workloads.instances"],
        "convex.solves": c["convex.solves"],
        "convex.busy_s": busy("convex"),
        "convex.iterations": c["convex.iterations"],
        "convex.capped": c["convex.capped"],
        "convex.converged_ratio": (c["convex.converged"] / c["convex.solves"]
                                   if c["convex.solves"] else 0.0),
        "dp.solves": c["dp.solves"],
        "dp.busy_s": busy("dp"),
        "lemma6.calls": c["lemma6.calls"],
        "lemma6.busy_s": busy("lemma6"),
        "engine.calls": c["engine.calls"],
        "engine.busy_s": busy("engine"),
        "engine.lane_steps": c["engine.lane_steps"],
        "engine.fused_calls": c["engine.fused_calls"],
        "engine.fused_share": (c["engine.fused_lane_steps"] / c["engine.lane_steps"]
                               if c["engine.lane_steps"] else 0.0),
        "engine.advance_lanes_s": c["engine.advance_lanes_s"],
        "median.calls": c["median.calls"],
        "median.busy_s": busy("median"),
        "median.lanes": c["median.lanes"],
        "reducers.busy_s": busy("reducers"),
        "store.saves": c["store.saves"],
        "store.save_s": named("store.save"),
        "store.bytes_written": c["store.bytes_written"],
        "store.loads": calls("store.load"),  # attempts: a cold store misses
        "store.load_s": named("store.load"),
        "serve.parse_s": handle_line - handle if handle_line else 0.0,
        "serve.handle_s": handle,
        "serve.ops": c["serve.ops"],
        "serve.failed": c["serve.failed"],
        "session.feed_s": named("session.feed"),
        "session.digest_s": named("session.request_stream_digest"),
        "pool.drain_s": named("pool.drain"),
        "pool.waves": waves,
        "pool.lanes_per_wave": c["pool.lanes"] / waves if waves else 0.0,
        "checkpoint.saves": c["checkpoint.saves"],
        "checkpoint.save_s": named("checkpoint.save_session_checkpoint"),
        "checkpoint.bytes": c["checkpoint.bytes"],
        "trace.spans": len(spans),
        "unattributed_s": wall_s - top,
    })
    return out


def checkpoint_runs(tracer: Tracer) -> set[int]:
    """Run ids (serve rounds) during which a session checkpoint was saved."""
    return {span[RUN] for span in tracer.spans if span[LAYER] == "checkpoint"}
