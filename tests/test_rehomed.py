"""Parity tests for the k-server and page-migration scenarios.

The classical baselines run as scenarios of the one engine:

* k-server on the line runs in configuration space :math:`\\mathbb{R}^k`
  under the ``l1`` metric with movement-only accounting
  (:mod:`repro.algorithms.kserver_line` /
  :mod:`repro.workloads.kserver`), and
* classical page migration runs under the ``graph`` metric through
  :class:`~repro.algorithms.page_adapters.PageMigrationAdapter`.

These tests pin the engine forms to the standalone loops they replaced,
whose outputs at these seeds were captured before the loops were removed
and are frozen in ``tests/data/rehomed_legacy.json`` (floats written by
``json``, which round-trips them bit for bit; CHANGES.md records the
capture command).  Configuration / page trajectories
must be *bit-identical* (the decision rules replay the legacy arithmetic
operation-for-operation, and both graph cost paths read the same
all-pairs table), while k-server cost totals agree to float rounding
only — the legacy loop accumulated its own increments (e.g. ``2 * d``
for an interior double move) where the engine measures
``|new - old|_1``, the same quantity associated differently.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.algorithms.page_adapters import PageMigrationAdapter
from repro.algorithms.registry import make_algorithm
from repro.api import Scenario, run
from repro.core.metric import graph_point
from repro.core.simulator import simulate
from repro.pagemigration.algorithms import (
    CoinFlipGraph,
    CountMoveTo,
    GreedyFollow,
    MoveToMinGraph,
    StaticPage,
)
from repro.workloads.base import make_instance
from repro.workloads.graphnet import topology_metric
from repro.workloads.kserver import KServerLineWorkload

with (Path(__file__).parent / "data" / "rehomed_legacy.json").open() as fh:
    LEGACY = json.load(fh)

KSERVER_ALGORITHMS = ("dc-line", "greedy-kserver")
KSERVER_SEEDS = (0, 1, 7)

PM_MAKERS = {
    "pm-static": StaticPage,
    "pm-greedy": GreedyFollow,
    "pm-move-to-min": MoveToMinGraph,
    "pm-count": CountMoveTo,
    "pm-coin-flip": lambda: CoinFlipGraph(rng=np.random.default_rng(42)),
}
PM_SEEDS = (0, 3)


class TestKServerParity:
    """dc-line / greedy-kserver reproduce the frozen standalone loops."""

    def _run_pair(self, algorithm: str, seed: int):
        fixture = LEGACY["kserver"]
        workload = KServerLineWorkload(T=fixture["T"], dim=fixture["k"])
        instance = workload.generate(np.random.default_rng(seed))
        legacy = fixture["runs"][f"{algorithm}/{seed}"]
        trace = simulate(instance, make_algorithm(algorithm), metric="l1")
        return legacy, trace

    @pytest.mark.parametrize("algorithm", KSERVER_ALGORITHMS)
    @pytest.mark.parametrize("seed", KSERVER_SEEDS)
    def test_positions_bitwise(self, algorithm, seed):
        legacy, trace = self._run_pair(algorithm, seed)
        np.testing.assert_array_equal(trace.positions, np.array(legacy["positions"]))

    @pytest.mark.parametrize("algorithm", KSERVER_ALGORITHMS)
    @pytest.mark.parametrize("seed", KSERVER_SEEDS)
    def test_total_cost_matches(self, algorithm, seed):
        legacy, trace = self._run_pair(algorithm, seed)
        np.testing.assert_allclose(
            float(trace.movement_costs.sum()), legacy["total"], rtol=1e-12)

    def test_no_service_cost(self):
        # MOVEMENT_ONLY accounting: the request-point encoding never costs.
        _, trace = self._run_pair("dc-line", seed=0)
        assert float(np.abs(trace.service_costs).sum()) == 0.0

    @pytest.mark.parametrize("algorithm", KSERVER_ALGORITHMS)
    def test_api_scalar_batched_parity(self, algorithm):
        base = Scenario.workload(
            "kserver-line", algorithm,
            params={"T": 60, "dim": 3},
            seeds=[0, 1], metric="l1", cost_model="movement-only", ratio="none")
        scalar = run(base.with_(engine="scalar")).costs
        batched = run(base.with_(engine="batched")).costs
        np.testing.assert_array_equal(scalar, batched)


class TestPageMigrationParity:
    """pm-* adapters reproduce the frozen standalone loop exactly."""

    def _node_instance(self, metric, nodes, start, D, m):
        points = np.stack([graph_point(int(v)) for v in nodes])[:, None, :]
        return make_instance(points, start=graph_point(start), D=D, m=m,
                             name="pm-parity")

    def _run_pair(self, name: str, topology: str, seed: int):
        fixture = LEGACY["pagemigration"]
        metric = topology_metric(topology)
        network = metric.network
        nodes = np.random.default_rng(seed).integers(0, network.n, size=fixture["T"])
        legacy = fixture["runs"][f"{name}/{topology}/{seed}"]
        m = float(network.distances.max()) + 1.0  # cap must never bind
        instance = self._node_instance(metric, nodes, start=0, D=fixture["D"], m=m)
        trace = simulate(instance, PageMigrationAdapter(PM_MAKERS[name]()),
                         metric=metric)
        return legacy, trace

    @pytest.mark.parametrize("name", sorted(PM_MAKERS))
    @pytest.mark.parametrize("topology", ("road", "dc"))
    @pytest.mark.parametrize("seed", PM_SEEDS)
    def test_trajectory_and_costs(self, name, topology, seed):
        legacy, trace = self._run_pair(name, topology, seed)
        # Engine positions are node points (j, j, 0); decode exactly.
        np.testing.assert_array_equal(trace.positions[:, 0], trace.positions[:, 1])
        np.testing.assert_array_equal(trace.positions[:, 2], 0.0)
        np.testing.assert_array_equal(
            trace.positions[:, 0].astype(np.int64), legacy["pages"])
        np.testing.assert_allclose(
            float(trace.movement_costs.sum()), legacy["movement"], rtol=1e-12)
        np.testing.assert_allclose(
            float(trace.service_costs.sum()), legacy["service"], rtol=1e-12)
        np.testing.assert_allclose(
            float(trace.movement_costs.sum() + trace.service_costs.sum()),
            legacy["total"], rtol=1e-12)

    def test_adapter_requires_graph_metric(self):
        workload = KServerLineWorkload(T=5, dim=3)
        instance = workload.generate(np.random.default_rng(0))
        with pytest.raises(ValueError, match="metric='graph'"):
            simulate(instance, PageMigrationAdapter(StaticPage()), metric="l1")

    @pytest.mark.parametrize("source", ("graph-road", "graph-dc"))
    def test_api_run(self, source):
        scenario = Scenario.workload(
            source, "pm-greedy",
            params={"T": 30, "requests_per_step": 1, "m": 50.0},
            seeds=[0], metric="graph", ratio="none")
        result = run(scenario)
        assert np.all(np.isfinite(result.costs))
