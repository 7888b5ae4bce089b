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

Declared as an orchestrator sweep: the suite's DP brackets are solved in
one shared cell, each algorithm's lock-step batched run is its own cell
depending on it, and parts B/C are independent cells (B stays one cell —
both networks draw from a single RNG stream).
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

from ..algorithms import compatible_algorithms
from ..analysis import measure_ratio_batch
from ..offline import bracket_optimum
from ..kserver import double_coverage_line, greedy_kserver_line, offline_kserver_line
from ..pagemigration import (
    CoinFlipGraph,
    CountMoveTo,
    GreedyFollow,
    MoveToMinGraph,
    StaticPage,
    complete_uniform,
    offline_page_migration,
    random_tree,
    simulate_page_migration,
)
from ..workloads import standard_suite
from .orchestrator import SweepSpec, WorkUnit
from .runner import ExperimentResult, scaled

__all__ = ["build_spec", "finalize"]

_MODULE = "repro.experiments.e13_baselines"
_DELTA = 0.5


def _suite_instances(T: int, seed: int):
    suite = standard_suite(T=T, dim=1, D=4.0, m=1.0)
    wl_names = list(suite)
    instances = [suite[n].generate(np.random.default_rng(seed)) for n in wl_names]
    return wl_names, instances


# -- cells -----------------------------------------------------------------


def cell_suite_brackets(T: int, seed: int) -> dict:
    """Per-instance DP brackets, shared by every algorithm's cell."""
    wl_names, instances = _suite_instances(T, seed)
    return {
        "wl_names": wl_names,
        "brackets": [bracket_optimum(inst).as_payload() for inst in instances],
    }


def cell_euclidean(algorithm: str, T: int, seed: int, deps: Mapping[str, Any]) -> dict:
    from ..offline.bounds import OptBracket

    wl_names, instances = _suite_instances(T, seed)
    brackets = [OptBracket.from_payload(p) for p in deps["suite-brackets"]["brackets"]]
    measures = measure_ratio_batch(instances, algorithm, delta=_DELTA, brackets=brackets)
    return {
        "wl_names": wl_names,
        "ratios": np.array([m.ratio_upper for m in measures], dtype=np.float64),
    }


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
        for alg in (MoveToMinGraph(), CoinFlipGraph(rng=np.random.default_rng(seed)),
                    CountMoveTo(), GreedyFollow(), StaticPage()):
            res = simulate_page_migration(net, requests, alg, start=0, D=D_pm)
            entries.append([net_name, alg.name, res.total / max(opt.total, 1e-12)])
    return {"entries": entries}


def cell_kserver(T: int, seed: int) -> dict:
    k = 3
    servers = np.array([-10.0, 0.0, 10.0])
    requests_ks = np.random.default_rng(seed).uniform(-12, 12, size=T)
    opt_ks = offline_kserver_line(servers, requests_ks)
    dc = double_coverage_line(servers, requests_ks)
    gr = greedy_kserver_line(servers, requests_ks)
    return {
        "k": k,
        "dc_ratio": dc.total / max(opt_ks, 1e-12),
        "greedy_ratio": gr.total / max(opt_ks, 1e-12),
    }


# -- spec ------------------------------------------------------------------


def _algorithms() -> list[str]:
    return compatible_algorithms(dim=1, moving_client=False)


def build_spec(scale: float = 1.0, seed: int = 0) -> SweepSpec:
    T = scaled(300, scale, minimum=100)
    units: list[WorkUnit] = [WorkUnit(
        key="suite-brackets",
        fn=f"{_MODULE}:cell_suite_brackets",
        params={"T": T, "seed": seed},
    )]
    for alg_name in _algorithms():
        units.append(WorkUnit(
            key=f"euclidean/{alg_name}",
            fn=f"{_MODULE}:cell_euclidean",
            params={"algorithm": alg_name, "T": T, "seed": seed},
            deps=("suite-brackets",),
        ))
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
    wl_names = results[f"euclidean/{algs[0]}"]["wl_names"]
    ratio_table = {}
    for alg_name in algs:
        cell = results[f"euclidean/{alg_name}"]
        for wl_name, ratio in zip(cell["wl_names"], cell["ratios"]):
            ratio_table[(wl_name, alg_name)] = float(ratio)
    for wl_name in wl_names:
        for alg_name in algs:
            rows.append(["euclidean:" + wl_name, alg_name, ratio_table[(wl_name, alg_name)]])
    mtc_scores = {wl_name: ratio_table[(wl_name, "mtc")] for wl_name in wl_names}
    worst_mtc = max(mtc_scores.values())
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
