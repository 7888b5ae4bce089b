"""E13 — baseline cross-section: who wins where.

Part A runs every registered Euclidean algorithm on the 1-D standard
suite with certified DP ratios — the "who wins, by what factor" table the
paper's positioning implies (MtC robust everywhere; batch-then-jump and
lazy strategies break on drift; greedy over-pays movement when D is
large).  The algorithm list comes from the registry's capability
metadata (:func:`repro.algorithms.compatible_algorithms`), not from
hardcoded name exclusions.

Part B anchors the classical Page-Migration substrate: Move-To-Min,
Coin-Flip, counter and greedy strategies versus the exact node DP on a
uniform complete graph and a random tree — their measured ratios should
sit near/below the classical constants (7, 3, 3).

Part C contrasts Double Coverage and greedy on the k-server line against
the configuration DP (DC ≤ k-competitive, greedy unbounded).

Parts B and C play the classical rules on the one engine: page migration
as :class:`~repro.algorithms.page_adapters.PageMigrationAdapter` runs
under the network's :class:`~repro.core.metric.GraphMetric`, k-server as
the ``dc-line`` / ``greedy-kserver`` configuration-space rules under
``l1`` with movement-only accounting.  The exact offline DPs stay their
OPT.

Declared as an orchestrator sweep: Part A is one generic scenario cell
per (suite source, algorithm) (:func:`repro.api.runtime.scenario_units`
factors one shared DP-bracket cell per source), and parts B/C are
function cells (B stays one cell — both networks draw from a single RNG
stream).
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from ..algorithms import compatible_algorithms, make_algorithm
from ..algorithms.page_adapters import PageMigrationAdapter
from ..api.runtime import scenario_units
from ..api.scenario import Scenario
from ..core.costs import CostModel
from ..core.metric import GraphMetric, graph_point
from ..core.simulator import simulate
from ..kserver import offline_kserver_line
from ..pagemigration import (
    CoinFlipGraph,
    CountMoveTo,
    GreedyFollow,
    MoveToMinGraph,
    StaticPage,
    complete_uniform,
    offline_page_migration,
    random_tree,
)
from ..workloads import SUITE_NAMES, suite_entry
from ..workloads.base import make_instance
from .orchestrator import SweepSpec, WorkUnit
from .runner import ExperimentResult, scaled

__all__ = ["build_spec", "finalize"]

_MODULE = "repro.experiments.e13_baselines"
_DELTA = 0.5


# -- cells -----------------------------------------------------------------


def cell_page_migration(T: int, seed: int, D_pm: float) -> dict:
    """Both networks in one cell: they share a single RNG stream."""
    rng = np.random.default_rng(seed)
    entries = []
    for net_name, net in (
        ("complete(16)", complete_uniform(16)),
        ("tree(24)", random_tree(24, rng)),
    ):
        requests = rng.integers(0, net.n, size=T)
        opt = offline_page_migration(net, requests, start=0, D=D_pm)
        # Node requests as graph points; a cap past the diameter never binds
        # (the classical model is uncapped).
        instance = make_instance(
            np.stack([graph_point(int(v)) for v in requests])[:, None, :],
            start=graph_point(0), D=D_pm, m=float(net.distances.max()) + 1.0)
        metric = GraphMetric(net)
        for alg in (MoveToMinGraph(), CoinFlipGraph(rng=np.random.default_rng(seed)),
                    CountMoveTo(), GreedyFollow(), StaticPage()):
            trace = simulate(instance, PageMigrationAdapter(alg), metric=metric)
            # Summed in step order, as the classical accounting adds costs.
            total = sum(trace.movement_costs.tolist()) + sum(trace.service_costs.tolist())
            entries.append([net_name, alg.name, total / max(opt.total, 1e-12)])
    return {"entries": entries}


def cell_kserver(T: int, seed: int) -> dict:
    k = 3
    servers = np.array([-10.0, 0.0, 10.0])
    requests_ks = np.random.default_rng(seed).uniform(-12, 12, size=T)
    opt_ks = offline_kserver_line(servers, requests_ks)
    # Configuration space R^k under l1: movement is the servers' total travel,
    # and request x is the point np.full(k, x).  Servers and requests stay in
    # [-12, 12], so no step moves more than 24 and the cap never binds.
    instance = make_instance(
        np.repeat(requests_ks[:, None, None], k, axis=2), start=servers,
        D=1.0, m=48.0, cost_model=CostModel.MOVEMENT_ONLY)
    ratios = {
        name: simulate(instance, make_algorithm(name), metric="l1").total_cost
        / max(opt_ks, 1e-12)
        for name in ("dc-line", "greedy-kserver")
    }
    return {"k": k, "dc_ratio": ratios["dc-line"], "greedy_ratio": ratios["greedy-kserver"]}


# -- spec ------------------------------------------------------------------


def _algorithms() -> list[str]:
    return compatible_algorithms(dim=1, moving_client=False)


def _scenarios(T: int, seed: int) -> tuple[list[str], list[Scenario]]:
    """Part A: every compatible algorithm on every distinct 1-D suite source.

    In one dimension the suite stands straight ``drift`` in for
    ``drift-rotating`` (:func:`~repro.workloads.suite_entry`), so that
    member reads drift's cells instead of duplicating them.
    """
    keys: list[str] = []
    scenarios: list[Scenario] = []
    for source, extra in dict(suite_entry(name, 1) for name in SUITE_NAMES).items():
        for alg_name in _algorithms():
            key = f"euclidean/{source}/{alg_name}"
            keys.append(key)
            scenarios.append(Scenario.workload(
                source, alg_name, params={"T": T, "dim": 1, "D": 4.0, "m": 1.0, **extra},
                seeds=(seed,), delta=_DELTA, ratio="bracket", name=key,
            ))
    return keys, scenarios


def build_spec(scale: float = 1.0, seed: int = 0) -> SweepSpec:
    keys, scenarios = _scenarios(scaled(300, scale, minimum=100), seed)
    units = list(scenario_units(scenarios, keys=keys))
    units.append(WorkUnit(
        key="page-migration",
        fn=f"{_MODULE}:cell_page_migration",
        params={"T": scaled(400, scale, minimum=150), "seed": seed, "D_pm": 4.0},
    ))
    units.append(WorkUnit(
        key="kserver",
        fn=f"{_MODULE}:cell_kserver",
        params={"T": scaled(60, scale, minimum=30), "seed": seed},
    ))
    return SweepSpec("E13", tuple(units), finalize=f"{_MODULE}:finalize",
                     scale=scale, seed=seed)


def finalize(results: Mapping[str, Any], scale: float, seed: int) -> ExperimentResult:
    rows = []
    notes = []
    ok = True

    # -- Part A: Euclidean algorithms on the 1-D suite ----------------------
    algs = _algorithms()
    ratio_table = {
        (wl_name, alg_name): float(results[f"euclidean/{suite_entry(wl_name, 1)[0]}/{alg_name}"]
                                   ["measures"]["ratio_upper"][0])
        for wl_name in SUITE_NAMES for alg_name in algs
    }
    for (wl_name, alg_name), ratio in ratio_table.items():
        rows.append(["euclidean:" + wl_name, alg_name, ratio])
    worst_mtc = max(ratio_table[(wl_name, "mtc")] for wl_name in SUITE_NAMES)
    notes.append(f"MtC's worst certified ratio across the suite: {worst_mtc:.2f}")
    if worst_mtc > 25.0:
        ok = False

    # -- Part B: classical page migration vs node DP ------------------------
    for net_name, alg_name, ratio in results["page-migration"]["entries"]:
        rows.append(["pagemigration:" + net_name, alg_name, ratio])
        if alg_name == "pm-move-to-min" and ratio > 7.5:
            ok = False
            notes.append(f"UNEXPECTED: Move-To-Min ratio {ratio:.2f} > 7 on {net_name}")

    # -- Part C: k-server on the line ----------------------------------------
    ks = results["kserver"]
    rows.append(["kserver:line(k=3)", "double-coverage", ks["dc_ratio"]])
    rows.append(["kserver:line(k=3)", "greedy", ks["greedy_ratio"]])
    if ks["dc_ratio"] > ks["k"] + 0.5:
        ok = False
        notes.append("UNEXPECTED: Double Coverage exceeded its k-competitive bound")

    notes.append("criterion: MtC robust across the suite; classical constants respected "
                 "(Move-To-Min <= 7, DC <= k)")
    return ExperimentResult(
        experiment_id="E13",
        title="Baseline cross-section: Euclidean algorithms, classical page migration, k-server",
        headers=["setting", "algorithm", "ratio"],
        rows=rows,
        notes=notes,
        passed=ok,
    )
