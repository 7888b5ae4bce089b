"""Tests for the k-server baselines on the line.

The online rules run on the engine: the ``dc-line`` / ``greedy-kserver``
configuration-space algorithms under ``l1`` with movement-only
accounting, where total cost is the servers' total travel.
"""

import numpy as np
import pytest

from repro.algorithms import make_algorithm
from repro.core import CostModel, simulate
from repro.kserver import offline_kserver_line
from repro.workloads.base import make_instance


def _play(name, servers, requests):
    """Trace of a k-server rule: ``positions`` rows are sorted configurations."""
    servers = np.sort(np.asarray(servers, dtype=np.float64))
    requests = np.asarray(requests, dtype=np.float64)
    instance = make_instance(  # request x is the point np.full(k, x)
        np.repeat(requests[:, None, None], servers.shape[0], axis=2),
        start=servers, D=1.0, m=1e9, cost_model=CostModel.MOVEMENT_ONLY)
    return simulate(instance, make_algorithm(name), metric="l1")


def double_coverage(servers, requests):
    return _play("dc-line", servers, requests)


def greedy(servers, requests):
    return _play("greedy-kserver", servers, requests)


class TestDoubleCoverage:
    def test_outside_hull_nearest_moves(self):
        res = double_coverage(np.array([0.0, 10.0]), np.array([-5.0]))
        assert res.total_cost == pytest.approx(5.0)
        np.testing.assert_allclose(res.positions[-1], [-5.0, 10.0])

    def test_inside_hull_both_move(self):
        res = double_coverage(np.array([0.0, 10.0]), np.array([4.0]))
        # Both move 4 (left server arrives): cost 8.
        assert res.total_cost == pytest.approx(8.0)
        np.testing.assert_allclose(res.positions[-1], [4.0, 6.0])

    def test_request_on_server_free(self):
        res = double_coverage(np.array([0.0, 10.0]), np.array([0.0]))
        assert res.total_cost == 0.0

    def test_history_shape(self):
        res = double_coverage(np.array([0.0, 5.0, 10.0]), np.arange(4.0))
        assert res.positions.shape == (5, 3)

    def test_always_serves(self):
        rng = np.random.default_rng(0)
        servers = np.array([-5.0, 0.0, 5.0])
        reqs = rng.uniform(-10, 10, size=20)
        res = double_coverage(servers, reqs)
        for t, x in enumerate(reqs):
            assert np.min(np.abs(res.positions[t + 1] - x)) < 1e-9


class TestGreedy:
    def test_moves_nearest(self):
        res = greedy(np.array([0.0, 10.0]), np.array([4.0]))
        assert res.total_cost == pytest.approx(4.0)

    def test_starvation_vs_dc(self):
        """Greedy famously loses on alternating nearby requests."""
        servers = np.array([0.0, 100.0])
        reqs = np.tile([40.0, 60.0], 20)
        greedy_trace = greedy(servers, reqs)
        dc = double_coverage(servers, reqs)
        opt = offline_kserver_line(servers, reqs)
        assert greedy_trace.total_cost / opt > dc.total_cost / opt * 0.9  # greedy not better
        assert dc.total_cost / opt <= 2.0 + 1e-9  # k=2 bound


class TestOfflineKServer:
    def test_single_server_sums_distances(self):
        opt = offline_kserver_line(np.array([0.0]), np.array([3.0, -1.0]))
        # Move 0->3 (3), then 3->-1 (4).
        assert opt == pytest.approx(7.0)

    def test_two_servers_split(self):
        opt = offline_kserver_line(np.array([0.0, 10.0]), np.array([1.0, 9.0, 1.0, 9.0]))
        # Each server adopts one hot point: 1 + 1 total.
        assert opt == pytest.approx(2.0)

    def test_dc_within_k_competitive(self):
        rng = np.random.default_rng(7)
        servers = np.array([-10.0, 0.0, 10.0])
        reqs = rng.uniform(-15, 15, size=25)
        opt = offline_kserver_line(servers, reqs)
        dc = double_coverage(servers, reqs)
        assert dc.total_cost <= 3.0 * opt + 1e-6

    def test_opt_lower_than_both(self):
        rng = np.random.default_rng(9)
        servers = np.array([0.0, 5.0])
        reqs = rng.uniform(-5, 10, size=15)
        opt = offline_kserver_line(servers, reqs)
        assert opt <= double_coverage(servers, reqs).total_cost + 1e-9
        assert opt <= greedy(servers, reqs).total_cost + 1e-9
