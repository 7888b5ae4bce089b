"""Tests for the geometric-median subpackage: minimizing sets, the certified
median, and the paper's tie-broken center."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.median import (
    batched_median_set,
    fermat_point_triangle,
    request_center,
    weber_cost,
    weber_gradient_norm,
    weiszfeld,
)

coords = st.floats(-100, 100, allow_nan=False, allow_infinity=False)


def batch(n, d):
    return arrays(np.float64, (n, d), elements=coords)


def median_set(points):
    """``batched_median_set`` of one batch: ``(a, b, numeric)``."""
    mset = batched_median_set(np.asarray(points, dtype=np.float64)[None])
    return mset.a[0], mset.b[0], bool(mset.numeric[0])


class TestMedianSets:
    """The minimizing segment ``[a, b]`` of one batch, checked against the
    closed forms (``a == b`` for a unique minimizer)."""

    def test_single(self):
        a, b, numeric = median_set(np.array([[3.0, 4.0]]))
        assert not numeric
        np.testing.assert_array_equal(a, [3.0, 4.0])
        np.testing.assert_array_equal(b, [3.0, 4.0])

    def test_pair_is_segment(self):
        a, b, numeric = median_set(np.array([[0.0, 0.0], [2.0, 2.0]]))
        assert not numeric
        np.testing.assert_array_equal([a, b], [[0.0, 0.0], [2.0, 2.0]])

    def test_1d_odd_is_middle_data_point(self):
        a, b, numeric = median_set(np.array([[5.0], [0.1], [1.0 / 3.0]]))
        assert not numeric
        assert a[0] == b[0] == 1.0 / 3.0

    def test_1d_even_is_middle_pair(self):
        a, b, _ = median_set(np.array([[10.0], [1.0], [0.0], [2.0]]))
        np.testing.assert_array_equal([a[0], b[0]], [1.0, 2.0])

    def test_collinear_embedded_in_2d(self):
        a, b, numeric = median_set(np.array([[0.0, 0.0], [1.0, 1.0], [3.0, 3.0]]))
        assert not numeric
        np.testing.assert_allclose(a, [1.0, 1.0], atol=1e-15)
        np.testing.assert_array_equal(a, b)

    def test_collinear_even_embedded_in_3d_is_segment(self):
        pts = np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 2.0], [2.0, 4.0, 4.0], [5.0, 10.0, 10.0]])
        a, b, numeric = median_set(pts)
        assert not numeric
        np.testing.assert_allclose(sorted([a.tolist(), b.tolist()]),
                                   [[1.0, 2.0, 2.0], [2.0, 4.0, 4.0]], atol=1e-14)

    def test_generic_triangle_is_numeric(self):
        assert median_set(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))[2]

    def test_coincident_points(self):
        a, b, numeric = median_set(np.ones((4, 2)))
        assert not numeric
        np.testing.assert_array_equal([a, b], np.ones((2, 2)))


class TestFermatPoint:
    def test_equilateral_center(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]])
        f = fermat_point_triangle(pts)
        np.testing.assert_allclose(f, pts.mean(axis=0), atol=1e-9)

    def test_obtuse_vertex_wins(self):
        # 150-degree angle at the origin: the vertex is the Fermat point.
        pts = np.array([[0.0, 0.0], [1.0, 0.0],
                        [np.cos(np.deg2rad(150)), np.sin(np.deg2rad(150))]])
        f = fermat_point_triangle(pts)
        np.testing.assert_allclose(f, [0.0, 0.0], atol=1e-9)

    def test_120_degree_sight_lines(self):
        """At an interior Fermat point all sides subtend 120 degrees."""
        pts = np.array([[0.0, 0.0], [4.0, 0.0], [1.0, 3.0]])
        f = fermat_point_triangle(pts)
        angles = []
        for i in range(3):
            u = pts[i] - f
            v = pts[(i + 1) % 3] - f
            cosang = np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v))
            angles.append(np.degrees(np.arccos(np.clip(cosang, -1, 1))))
        np.testing.assert_allclose(angles, 120.0, atol=1e-5)

    def test_matches_weiszfeld(self):
        pts = np.array([[0.0, 0.0], [3.0, 1.0], [1.0, 4.0]])
        f = fermat_point_triangle(pts)
        w = weiszfeld(pts).point
        assert weber_cost(f, pts) == pytest.approx(weber_cost(w, pts), abs=1e-8)

    def test_wrong_count_rejected(self):
        with pytest.raises(ValueError):
            fermat_point_triangle(np.zeros((2, 2)))


class TestWeiszfeld:
    def test_single_point(self):
        res = weiszfeld(np.array([[2.0, 3.0]]))
        np.testing.assert_allclose(res.point, [2.0, 3.0])
        assert res.on_vertex

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            weiszfeld(np.empty((0, 2)))

    def test_square_center(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        res = weiszfeld(pts)
        np.testing.assert_allclose(res.point, [0.5, 0.5], atol=1e-9)

    def test_dominant_vertex(self):
        """A vertex with enough multiplicity absorbs the median."""
        pts = np.vstack([np.zeros((5, 2)), np.array([[1.0, 0.0], [0.0, 1.0]])])
        res = weiszfeld(pts)
        np.testing.assert_allclose(res.point, [0.0, 0.0], atol=1e-9)
        assert res.on_vertex

    def test_gradient_small_at_optimum(self, rng):
        pts = rng.normal(size=(12, 3))
        res = weiszfeld(pts)
        assert weber_gradient_norm(res.point, pts) < 1e-6

    @given(batch(5, 2))
    def test_beats_random_probes(self, pts):
        """Property: no sampled point does better than the Weiszfeld output."""
        res = weiszfeld(pts)
        base = weber_cost(res.point, pts)
        probe_rng = np.random.default_rng(0)
        for _ in range(10):
            probe = res.point + probe_rng.normal(scale=0.1 + 0.1 * np.abs(pts).max(), size=2)
            assert weber_cost(probe, pts) >= base - 1e-6 * (1 + base)

    def test_beats_centroid_or_ties(self, rng):
        pts = rng.normal(size=(9, 2)) ** 3  # skewed
        res = weiszfeld(pts)
        assert weber_cost(res.point, pts) <= weber_cost(pts.mean(axis=0), pts) + 1e-9

    def test_high_dimension(self, rng):
        pts = rng.normal(size=(20, 7))
        res = weiszfeld(pts)
        assert weber_gradient_norm(res.point, pts) < 1e-5

    def test_segment_minimizer_closest_to_start(self):
        """A pair or an even collinear batch minimizes on a segment; the
        answer is its point closest to the start (the centroid by default),
        not the first optimal data point."""
        pair = np.array([[0.0, 0.0], [2.0, 0.0]])
        np.testing.assert_array_equal(weiszfeld(pair).point, [1.0, 0.0])
        np.testing.assert_array_equal(weiszfeld(pair, start=np.array([5.0, 1.0])).point, [2.0, 0.0])
        line = np.array([[0.0], [1.0], [5.0], [9.0]])
        res = weiszfeld(line)
        np.testing.assert_array_equal(res.point, [3.75])
        assert (res.iterations, res.on_vertex) == (0, False)
        assert weiszfeld(line, start=np.array([0.5])).on_vertex

    def test_newton_lanes_report_their_steps(self, rng):
        res = weiszfeld(rng.normal(size=(6, 2)))
        assert not res.on_vertex and 0 < res.iterations < 20
        with pytest.raises(ArithmeticError):
            weiszfeld(rng.normal(size=(6, 2)), max_iter=0)


class TestRequestCenter:
    def test_single_request(self):
        c = request_center(np.array([[2.0, 2.0]]), server=np.zeros(2))
        np.testing.assert_allclose(c, [2.0, 2.0])

    def test_pair_tie_break_projects_server(self):
        pts = np.array([[0.0, 0.0], [4.0, 0.0]])
        c = request_center(pts, server=np.array([1.0, 7.0]))
        np.testing.assert_allclose(c, [1.0, 0.0])

    def test_pair_tie_break_clamps_to_segment(self):
        pts = np.array([[0.0, 0.0], [4.0, 0.0]])
        c = request_center(pts, server=np.array([-3.0, 0.0]))
        np.testing.assert_allclose(c, [0.0, 0.0])

    def test_even_collinear_tie_break(self):
        pts = np.array([[0.0], [1.0], [3.0], [10.0]])
        c = request_center(pts, server=np.array([2.5]))
        np.testing.assert_allclose(c, [2.5])  # inside the median interval

    def test_unique_median_ignores_server(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        c1 = request_center(pts, server=np.zeros(2))
        c2 = request_center(pts, server=np.array([100.0, -50.0]))
        np.testing.assert_allclose(c1, c2, atol=1e-9)

    def test_center_minimizes_weber(self, rng):
        pts = rng.normal(size=(7, 2))
        c = request_center(pts, server=np.zeros(2))
        for _ in range(20):
            probe = c + rng.normal(scale=0.05, size=2)
            assert weber_cost(c, pts) <= weber_cost(probe, pts) + 1e-7

    def test_odd_1d_center_is_a_data_point(self, rng):
        """An odd 1-D batch has a unique median, its middle order statistic:
        the center is that data point bit for bit, wherever the server is."""
        for _ in range(200):
            r = int(rng.choice([3, 5, 7, 9, 15]))
            pts = rng.uniform(-1.0, 1.0, size=(r, 1)) * 10.0 ** rng.uniform(-4, 4)
            pts += rng.normal() * 10.0 ** rng.uniform(-4, 6)  # far from the origin
            c = request_center(pts, server=rng.normal(size=1))
            assert c[0] == np.sort(pts[:, 0])[r // 2]

    def test_even_1d_center_clamps_the_server(self, rng):
        """An even 1-D batch minimizes on its middle pair; the center is
        the server clamped to it."""
        for _ in range(100):
            pts = rng.normal(size=(6, 1)) * 10.0
            server = rng.normal(size=1) * 10.0
            lo, hi = np.sort(pts[:, 0])[2:4]
            c = request_center(pts, server)
            np.testing.assert_allclose(c, [min(max(server[0], lo), hi)], rtol=0, atol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            request_center(np.empty((0, 2)), server=np.zeros(2))
