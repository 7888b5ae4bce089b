"""Tests for the :class:`repro.core.metric.Metric` abstraction.

Four layers of contract:

* the Euclidean instance delegates to the module-level primitives, so
  metric-routed ℓ2 is bit-identical to the pre-refactor code path;
* every registered metric satisfies the metric axioms and the geodesic
  ``move_towards`` contract (never overshoots, monotone approach);
* every batched ``(B, d)`` method performs the exact per-row float64
  arithmetic of its scalar counterpart (bitwise, not approximate);
* the engine threads metrics end-to-end: scalar and batched runs of an
  ℓ1 or graph scenario agree bitwise, explicit ``metric="euclidean"``
  changes nothing, and serialization (Scenario, SessionSpec) omits the
  default so pre-metric digests and payload hashes are untouched.
"""

import numpy as np
import pytest

from repro.api import Scenario, run
from repro.core import metric as metric_mod
from repro.core.metric import (
    EuclideanMetric,
    GraphMetric,
    Metric,
    MinkowskiMetric,
    available_metrics,
    get_metric,
    graph_point,
    register_metric,
)
from repro.serve.session import SessionSpec
from repro.workloads.graphnet import topology_metric

NORMED = ["euclidean", "l1", "linf"]


def sample_points(rng, n=24, dim=3):
    return rng.normal(scale=3.0, size=(n, dim))


def sample_graph_points(rng, n=24):
    metric = get_metric("graph")
    pts = []
    for _ in range(n):
        if rng.random() < 0.5:
            pts.append(metric.node_point(int(rng.integers(0, metric.n_nodes))))
        else:
            u, v = list(metric.network.graph.edges)[int(rng.integers(0, 8))]
            pts.append(graph_point(metric._index[u], metric._index[v],
                                   float(rng.uniform(0.05, 0.95))))
    return np.stack(pts)


class TestRegistry:
    def test_available(self):
        assert {"euclidean", "l1", "linf", "graph"} <= set(available_metrics())

    def test_instances_cached(self):
        assert get_metric("l1") is get_metric("l1")

    def test_none_resolves_to_euclidean(self):
        assert get_metric(None).name == "euclidean"

    def test_instance_passthrough(self):
        m = MinkowskiMetric(1)
        assert get_metric(m) is m

    def test_unknown_raises(self):
        with pytest.raises(KeyError, match="unknown metric"):
            get_metric("hyperbolic")

    def test_register_rejects_duplicates(self):
        with pytest.raises(KeyError, match="already registered"):
            register_metric("euclidean", EuclideanMetric)

    def test_minkowski_rejects_other_p(self):
        with pytest.raises(ValueError, match="only l1 and linf"):
            MinkowskiMetric(2)


class TestEuclideanDelegation:
    """Metric-routed ℓ2 is the module-level hot path, bit-for-bit."""

    def test_scalar_functions(self, rng):
        m = get_metric("euclidean")
        a, b = rng.normal(size=3), rng.normal(size=3)
        assert m.distance(a, b) == metric_mod.distance(a, b)
        np.testing.assert_array_equal(
            m.move_towards(a, b, 0.25), metric_mod.move_towards(a, b, 0.25))
        np.testing.assert_array_equal(
            m.clamp_step(a, b, 0.25), metric_mod.clamp_step(a, b, 0.25))
        np.testing.assert_array_equal(
            m.interpolate(a, b, 0.4), metric_mod.interpolate(a, b, 0.4))

    def test_batch_functions(self, rng):
        m = get_metric("euclidean")
        p = rng.normal(size=2)
        batch = rng.normal(size=(7, 2))
        np.testing.assert_array_equal(
            m.distances_to(p, batch), metric_mod.distances_to(p, batch))
        src, dst = rng.normal(size=(5, 2)), rng.normal(size=(5, 2))
        np.testing.assert_array_equal(
            m.batched_move_towards(src, dst, 0.3),
            metric_mod.batched_move_towards(src, dst, 0.3))


class TestMinkowskiValues:
    def test_l1_distance(self):
        m = get_metric("l1")
        assert m.distance(np.zeros(2), np.array([3.0, -4.0])) == 7.0

    def test_linf_distance(self):
        m = get_metric("linf")
        assert m.distance(np.zeros(2), np.array([3.0, -4.0])) == 4.0

    def test_move_towards_exhausts_budget_in_own_norm(self):
        for name in ("l1", "linf"):
            m = get_metric(name)
            src, dst = np.zeros(2), np.array([6.0, 8.0])
            out = m.move_towards(src, dst, 1.0)
            assert m.distance(src, out) == pytest.approx(1.0)

    def test_move_towards_reaches(self):
        m = get_metric("l1")
        dst = np.array([0.5, 0.5])
        np.testing.assert_array_equal(m.move_towards(np.zeros(2), dst, 2.0), dst)

    def test_negative_step_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            get_metric("l1").move_towards(np.zeros(1), np.ones(1), -0.1)


class TestMetricAxioms:
    @pytest.mark.parametrize("name", NORMED)
    def test_normed_axioms(self, name, rng):
        m = get_metric(name)
        pts = sample_points(rng)
        for a, b, c in zip(pts[:8], pts[8:16], pts[16:24]):
            assert m.distance(a, a) == 0.0
            assert m.distance(a, b) == m.distance(b, a) >= 0.0
            assert m.distance(a, c) <= m.distance(a, b) + m.distance(b, c) + 1e-12

    def test_graph_axioms(self, rng):
        m = get_metric("graph")
        pts = sample_graph_points(rng)
        for a, b, c in zip(pts[:8], pts[8:16], pts[16:24]):
            assert m.distance(a, a) == 0.0
            assert m.distance(a, b) == pytest.approx(m.distance(b, a))
            assert m.distance(a, c) <= m.distance(a, b) + m.distance(b, c) + 1e-9

    @pytest.mark.parametrize("name", NORMED + ["graph"])
    def test_move_towards_contract(self, name, rng):
        m = get_metric(name)
        pts = sample_graph_points(rng) if name == "graph" else sample_points(rng)
        for src, dst in zip(pts[:12], pts[12:24]):
            total = m.distance(src, dst)
            for step in (0.0, 0.3, 2.0 * total + 0.1):
                out = m.move_towards(src, dst, step)
                assert m.distance(src, out) <= step + 1e-9      # never overshoots
                assert m.distance(out, dst) <= total + 1e-9     # monotone approach
                if step > total:
                    assert m.distance(out, dst) == pytest.approx(0.0, abs=1e-12)


class TestGraphMetric:
    def test_graph_point_canonical(self):
        np.testing.assert_array_equal(graph_point(3), [3.0, 3.0, 0.0])
        # Edge orientation is canonical (u < v); endpoints collapse to nodes.
        np.testing.assert_array_equal(graph_point(5, 2, 0.25), [2.0, 5.0, 0.75])
        np.testing.assert_array_equal(graph_point(2, 5, 0.0), [2.0, 2.0, 0.0])
        np.testing.assert_array_equal(graph_point(2, 5, 1.0), [5.0, 5.0, 0.0])

    def test_node_distances_are_the_all_pairs_table(self):
        m = topology_metric("road")
        table = np.asarray(m.network.distances)
        for i in range(m.n_nodes):
            for j in range(m.n_nodes):
                assert m.distance(m.node_point(i), m.node_point(j)) == table[i, j]

    def test_edge_point_distance(self):
        m = topology_metric("road")
        # Halfway along edge (0, 1) of weight 1.0: 0.5 from either endpoint.
        p = graph_point(0, 1, 0.5)
        assert m.distance(p, m.node_point(0)) == pytest.approx(0.5)
        assert m.distance(p, m.node_point(1)) == pytest.approx(0.5)

    def test_shared_edge_direct_walk(self):
        m = topology_metric("road")
        a, b = graph_point(0, 1, 0.2), graph_point(0, 1, 0.9)
        assert m.distance(a, b) == pytest.approx(0.7)
        out = m.move_towards(a, b, 0.3)
        np.testing.assert_allclose(out, graph_point(0, 1, 0.5))

    def test_move_lands_mid_edge(self):
        m = topology_metric("road")
        src, dst = m.node_point(0), m.node_point(2)  # via node 1: 1.0 + 1.5
        out = m.move_towards(src, dst, 1.5)
        u, v, t = m._decode(out)
        assert (u, v) == (1, 2)
        assert m.distance(src, out) == pytest.approx(1.5)

    def test_rejects_non_edge_points(self):
        m = topology_metric("road")
        with pytest.raises(ValueError, match="not an edge"):
            m.validate_point(np.array([0.0, 3.0, 0.5]))
        with pytest.raises(ValueError, match="3-vectors"):
            m.validate_point(np.zeros(2))
        with pytest.raises(ValueError, match="outside"):
            m.validate_point(np.array([99.0, 99.0, 0.0]))

    def test_nearest_node(self):
        m = topology_metric("road")
        assert m.nearest_node(graph_point(0, 1, 0.2)) == 0
        assert m.nearest_node(graph_point(0, 1, 0.8)) == 1
        assert m.nearest_node(m.node_point(7)) == 7


class TestScalarBatchedParity:
    """Batched methods replay the scalar float64 arithmetic bit-for-bit."""

    @pytest.mark.parametrize("name", NORMED + ["graph"])
    def test_batched_distances(self, name, rng):
        m = get_metric(name)
        pts = sample_graph_points(rng) if name == "graph" else sample_points(rng)
        a, b = pts[:12], pts[12:24]
        expected = np.array([m.distance(a[i], b[i]) for i in range(12)])
        np.testing.assert_array_equal(m.batched_distances(a, b), expected)

    @pytest.mark.parametrize("name", NORMED + ["graph"])
    def test_batched_move_towards(self, name, rng):
        m = get_metric(name)
        pts = sample_graph_points(rng) if name == "graph" else sample_points(rng)
        src, dst = pts[:12], pts[12:24]
        steps = rng.uniform(0.0, 3.0, size=12)
        expected = np.stack([m.move_towards(src[i], dst[i], float(steps[i]))
                             for i in range(12)])
        np.testing.assert_array_equal(m.batched_move_towards(src, dst, steps),
                                      expected)

    def test_batched_rejects_negative_steps(self):
        m = get_metric("l1")
        with pytest.raises(ValueError, match="non-negative"):
            m.batched_move_towards(np.zeros((2, 1)), np.ones((2, 1)),
                                   np.array([0.1, -0.1]))


class TestEngineThreading:
    """Metrics flow through Scenario -> engine -> costs, both engines."""

    def _costs(self, scenario):
        return run(scenario).costs

    def test_l1_scalar_batched_parity(self):
        base = Scenario.workload("drift", "greedy-centroid",
                                 params={"T": 40, "dim": 2, "D": 2.0, "m": 1.0},
                                 seeds=[0, 1], metric="l1", ratio="none")
        scalar = self._costs(base.with_(engine="scalar"))
        batched = self._costs(base.with_(engine="batched"))
        np.testing.assert_array_equal(scalar, batched)

    def test_graph_scalar_batched_parity(self):
        base = Scenario.workload("graph-road", "nearest-chaser",
                                 params={"T": 30, "D": 2.0, "m": 1.0},
                                 seeds=[0, 1], metric="graph", ratio="none")
        scalar = self._costs(base.with_(engine="scalar"))
        batched = self._costs(base.with_(engine="batched"))
        np.testing.assert_array_equal(scalar, batched)

    def test_explicit_euclidean_is_a_no_op(self):
        base = Scenario.workload("drift", "mtc",
                                 params={"T": 40, "dim": 2, "D": 2.0, "m": 1.0},
                                 seeds=[0, 1], ratio="none")
        np.testing.assert_array_equal(
            self._costs(base), self._costs(base.with_(metric="euclidean")))

    def test_l1_equals_l2_in_1d(self):
        # In 1-D every norm coincides; the ℓ1 path must reproduce ℓ2 bits.
        base = Scenario.workload("drift", "greedy-centroid",
                                 params={"T": 40, "dim": 1, "D": 2.0, "m": 1.0},
                                 seeds=[0, 1], ratio="none")
        np.testing.assert_array_equal(
            self._costs(base), self._costs(base.with_(metric="l1")))

    def test_incompatible_combinations_rejected(self):
        graph = Scenario.workload("graph-road", "mtc",
                                  params={"T": 10}, metric="graph", ratio="none")
        with pytest.raises(ValueError, match="does not support the 'graph' metric"):
            run(graph)  # mtc does not declare graph support
        euclid_wl = Scenario.workload("drift", "static",
                                      params={"T": 10, "dim": 3}, metric="graph",
                                      ratio="none")
        with pytest.raises(ValueError, match="does not generate 'graph'-space"):
            run(euclid_wl)  # drift generates Euclidean requests


class TestSerializationStability:
    """The default metric is omitted everywhere a digest depends on it."""

    def test_scenario_to_dict_omits_default(self):
        sc = Scenario.workload("drift", "mtc", params={"T": 10})
        assert "metric" not in sc.to_dict()
        assert Scenario.from_dict(sc.to_dict()) == sc

    def test_scenario_metric_round_trip_and_digest(self):
        sc = Scenario.workload("drift", "static", params={"T": 10}, metric="l1")
        assert sc.to_dict()["metric"] == "l1"
        assert Scenario.from_dict(sc.to_dict()) == sc
        base = Scenario.workload("drift", "static", params={"T": 10})
        assert sc.digest() != base.digest()
        assert base.digest() == base.with_(metric="euclidean").digest()

    def test_scenario_rejects_unknown_metric(self):
        with pytest.raises(ValueError, match="metric"):
            Scenario.workload("drift", "mtc", metric="hyperbolic")

    def test_session_spec_omits_default(self):
        spec = SessionSpec(algorithm="mtc", dim=2, start=(0.0, 0.0))
        assert "metric" not in spec.to_dict()
        assert SessionSpec.from_dict(spec.to_dict()) == spec

    def test_session_spec_metric_round_trip_and_grouping(self):
        spec = SessionSpec(algorithm="static", dim=2, start=(0.0, 0.0), metric="l1")
        assert spec.to_dict()["metric"] == "l1"
        assert SessionSpec.from_dict(spec.to_dict()) == spec
        base = SessionSpec(algorithm="static", dim=2, start=(0.0, 0.0))
        assert spec.group_key != base.group_key

    def test_session_spec_rejects_unknown_metric(self):
        with pytest.raises(ValueError, match="metric"):
            SessionSpec(algorithm="mtc", dim=2, start=(0.0, 0.0), metric="hyperbolic")
