"""Tests for the classical Page Migration substrate.

The online strategies run on the engine: each is wrapped in
:class:`~repro.algorithms.page_adapters.PageMigrationAdapter` and played
under the network's :class:`~repro.core.metric.GraphMetric` on node
requests, with a cap past the diameter (the classical model is uncapped).
"""

import numpy as np
import pytest

from repro.algorithms.page_adapters import PageMigrationAdapter
from repro.core import simulate, simulate_batch
from repro.core.metric import GraphMetric, graph_point
from repro.pagemigration import (
    CoinFlipGraph,
    CountMoveTo,
    GreedyFollow,
    MigrationNetwork,
    MoveToMinGraph,
    StaticPage,
    complete_uniform,
    grid_graph,
    offline_page_migration,
    path_graph,
    random_geometric,
    random_tree,
)
from repro.workloads.base import make_instance


class _Run:
    """An engine trace read back in page-migration terms."""

    def __init__(self, trace):
        self.pages = trace.positions[:, 0].astype(np.int64)
        self.movement = trace.total_movement_cost
        self.service = trace.total_service_cost
        self.total = trace.total_cost


def node_instance(net, requests, start=0, D=1.0):
    """Node requests as graph points, under a cap the diameter never reaches."""
    return make_instance(
        np.stack([graph_point(int(v)) for v in requests])[:, None, :],
        start=graph_point(start), D=D, m=float(net.distances.max()) + 1.0)


def play(net, requests, algorithm, start=0, D=1.0):
    """Play a classical strategy on node requests through the engine."""
    instance = node_instance(net, requests, start=start, D=D)
    return _Run(simulate(instance, PageMigrationAdapter(algorithm), metric=GraphMetric(net)))


class TestNetworks:
    def test_complete_uniform_distances(self):
        net = complete_uniform(5, weight=2.0)
        assert net.n == 5
        assert net.distance(0, 1) == 2.0
        assert net.distance(2, 2) == 0.0

    def test_path_graph_distances(self):
        net = path_graph(4)
        assert net.distance(0, 3) == 3.0

    def test_grid_graph(self):
        net = grid_graph(3, 3)
        assert net.n == 9
        # Opposite corners: Manhattan distance 4.
        corners = [i for i, v in enumerate(net.nodes) if v in ((0, 0), (2, 2))]
        assert net.distance(corners[0], corners[1]) == 4.0

    def test_random_tree_connected_metric(self):
        net = random_tree(10, np.random.default_rng(0))
        assert net.n == 10
        # Triangle inequality on a few triples.
        for (i, j, k) in ((0, 1, 2), (3, 4, 5), (6, 7, 8)):
            assert net.distance(i, k) <= net.distance(i, j) + net.distance(j, k) + 1e-9

    def test_random_geometric_connected(self):
        net = random_geometric(15, np.random.default_rng(1))
        assert net.n == 15

    def test_two_node_tree(self):
        net = random_tree(2, np.random.default_rng(0))
        assert net.n == 2

    def test_weber_node_minimizes(self):
        net = path_graph(5)
        # Requests at nodes 0,0,4: weber point is node 0 (majority).
        idx = net.weber_node(np.array([0, 0, 4]))
        assert idx in (0, 1)  # 0: cost 4; 1: cost 2+3=5 -> actually 0
        assert idx == 0

    def test_empty_weber_rejected(self):
        with pytest.raises(ValueError):
            path_graph(3).weber_node(np.array([], dtype=int))


class TestSimulation:
    def test_static_never_moves(self):
        net = complete_uniform(4)
        res = play(net, np.array([1, 2, 3]), StaticPage(), start=0, D=2.0)
        assert res.movement == 0.0
        assert res.service == pytest.approx(3.0)
        np.testing.assert_array_equal(res.pages, [0, 0, 0, 0])

    def test_greedy_always_moves(self):
        net = complete_uniform(4)
        res = play(net, np.array([1, 2]), GreedyFollow(), start=0, D=2.0)
        assert res.service == 0.0
        assert res.movement == pytest.approx(2.0 * 2.0)

    def test_invalid_request_rejected(self):
        net = complete_uniform(3)
        with pytest.raises(ValueError, match="outside"):
            play(net, np.array([5]), StaticPage())

    def test_move_to_min_phases(self):
        net = path_graph(5)
        # D=2 -> phases of 2 requests; all requests at node 4.
        res = play(net, np.array([4, 4, 4, 4]), MoveToMinGraph(), start=0, D=2.0)
        assert res.pages[-1] == 4

    def test_coinflip_deterministic_with_seed(self):
        net = complete_uniform(6)
        reqs = np.random.default_rng(0).integers(0, 6, size=30)
        r1 = play(net, reqs, CoinFlipGraph(np.random.default_rng(3)), D=2.0)
        r2 = play(net, reqs, CoinFlipGraph(np.random.default_rng(3)), D=2.0)
        np.testing.assert_array_equal(r1.pages, r2.pages)

    def test_count_move_to_migrates_to_hot_node(self):
        net = complete_uniform(3)
        reqs = np.array([1] * 10)
        res = play(net, reqs, CountMoveTo(), start=0, D=3.0)
        assert res.pages[-1] == 1

    @pytest.mark.parametrize("make", [
        StaticPage, GreedyFollow, MoveToMinGraph, CountMoveTo,
        lambda: CoinFlipGraph(np.random.default_rng(3)),
    ], ids=["static", "greedy", "move-to-min", "count", "coin-flip"])
    def test_batched_lanes_match_scalar_runs(self, make):
        net = random_tree(9, np.random.default_rng(4))
        metric = GraphMetric(net)
        instances = [node_instance(net, np.random.default_rng(s).integers(0, 9, size=30), D=2.0)
                     for s in range(3)]
        batch = simulate_batch(instances, lambda: PageMigrationAdapter(make()), metric=metric)
        for i, instance in enumerate(instances):
            ref = simulate(instance, PageMigrationAdapter(make()), metric=metric)
            lane = batch.trace(i)
            np.testing.assert_array_equal(lane.positions, ref.positions)
            np.testing.assert_array_equal(lane.movement_costs, ref.movement_costs)
            np.testing.assert_array_equal(lane.service_costs, ref.service_costs)


class TestOfflineDP:
    def test_zero_cost_when_requests_at_start(self):
        net = complete_uniform(4)
        res = offline_page_migration(net, np.array([0, 0, 0]), start=0, D=2.0)
        assert res.total == 0.0

    def test_dp_beats_all_online(self):
        net = random_tree(8, np.random.default_rng(2))
        reqs = np.random.default_rng(3).integers(0, 8, size=40)
        opt = offline_page_migration(net, reqs, start=0, D=2.0)
        for alg in (StaticPage(), GreedyFollow(), MoveToMinGraph(), CountMoveTo()):
            res = play(net, reqs, alg, start=0, D=2.0)
            assert opt.total <= res.total + 1e-9

    def test_dp_trajectory_cost_consistent(self):
        net = path_graph(6)
        reqs = np.random.default_rng(1).integers(0, 6, size=25)
        opt = offline_page_migration(net, reqs, start=0, D=2.0)
        assert opt.total == pytest.approx(opt.movement + opt.service)

    def test_move_to_min_within_classical_bound(self):
        """Westbrook: Move-To-Min is 7-competitive."""
        rng = np.random.default_rng(5)
        for trial in range(3):
            net = complete_uniform(10)
            reqs = rng.integers(0, 10, size=60)
            opt = offline_page_migration(net, reqs, start=0, D=4.0)
            res = play(net, reqs, MoveToMinGraph(), start=0, D=4.0)
            if opt.total > 0:
                assert res.total / opt.total <= 7.0 + 1e-9

    def test_disconnected_graph_rejected(self):
        import networkx as nx

        g = nx.Graph()
        g.add_edge(0, 1, weight=1.0)
        g.add_node(2)
        with pytest.raises(ValueError, match="connected"):
            MigrationNetwork.from_graph(g)

    def test_empty_graph_rejected(self):
        import networkx as nx

        with pytest.raises(ValueError):
            MigrationNetwork.from_graph(nx.Graph())
