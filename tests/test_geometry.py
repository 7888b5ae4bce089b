"""Unit and property tests for the Euclidean primitives (repro.core.metric)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.metric import (
    as_point,
    as_points,
    bounding_box,
    centroid,
    direction,
    distance,
    distances_to,
    interpolate,
    move_towards,
    norm,
    pairwise_distances,
    total_path_length,
)

finite_floats = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


def vec(dim: int):
    return arrays(np.float64, (dim,), elements=finite_floats)


class TestAsPoint:
    def test_list(self):
        p = as_point([1.0, 2.0])
        assert p.shape == (2,) and p.dtype == np.float64

    def test_scalar_promotes_to_1d(self):
        assert as_point(3.0).shape == (1,)

    def test_dim_check(self):
        with pytest.raises(ValueError, match="dimension"):
            as_point([1.0, 2.0], dim=3)

    def test_rejects_matrix(self):
        with pytest.raises(ValueError, match="single point"):
            as_point(np.zeros((2, 2)))

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            as_point([np.nan, 0.0])

    def test_rejects_inf(self):
        with pytest.raises(ValueError, match="finite"):
            as_point([np.inf, 0.0])


class TestAsPoints:
    def test_batch(self):
        b = as_points([[0.0, 1.0], [2.0, 3.0]])
        assert b.shape == (2, 2)

    def test_single_point_promoted(self):
        assert as_points([1.0, 2.0]).shape == (1, 2)

    def test_empty_with_dim(self):
        assert as_points([], dim=3).shape == (0, 3)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            as_points([[1.0, 2.0]], dim=3)

    def test_rejects_3d(self):
        with pytest.raises(ValueError, match="batch"):
            as_points(np.zeros((2, 2, 2)))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            as_points([[np.nan, 1.0]])


class TestDistance:
    def test_simple(self):
        assert distance(np.zeros(2), np.array([3.0, 4.0])) == pytest.approx(5.0)

    def test_zero(self):
        p = np.array([1.0, -2.0, 3.0])
        assert distance(p, p) == 0.0

    @given(vec(3), vec(3))
    def test_symmetry(self, a, b):
        assert distance(a, b) == pytest.approx(distance(b, a))

    @given(vec(2), vec(2), vec(2))
    def test_triangle_inequality(self, a, b, c):
        assert distance(a, c) <= distance(a, b) + distance(b, c) + 1e-6

    @given(vec(4))
    def test_norm_is_distance_from_origin(self, v):
        assert norm(v) == pytest.approx(distance(np.zeros(4), v))


class TestDistancesTo:
    def test_matches_scalar_distance(self, rng):
        p = rng.normal(size=3)
        batch = rng.normal(size=(10, 3))
        d = distances_to(p, batch)
        expected = [distance(p, row) for row in batch]
        np.testing.assert_allclose(d, expected)

    def test_empty_batch(self):
        assert distances_to(np.zeros(2), np.empty((0, 2))).shape == (0,)


class TestPairwise:
    def test_shape_and_values(self, rng):
        a = rng.normal(size=(4, 2))
        b = rng.normal(size=(3, 2))
        m = pairwise_distances(a, b)
        assert m.shape == (4, 3)
        assert m[1, 2] == pytest.approx(distance(a[1], b[2]))

    def test_self_diagonal_zero(self, rng):
        a = rng.normal(size=(5, 3))
        m = pairwise_distances(a, a)
        np.testing.assert_allclose(np.diag(m), 0.0, atol=1e-12)


class TestDirection:
    def test_unit_norm(self):
        u = direction(np.zeros(2), np.array([3.0, 4.0]))
        assert norm(u) == pytest.approx(1.0)

    def test_coincident_gives_zero(self):
        p = np.ones(3)
        np.testing.assert_array_equal(direction(p, p), np.zeros(3))

    @given(vec(2), vec(2))
    def test_points_towards_target(self, a, b):
        u = direction(a, b)
        if norm(b - a) > 1e-6:
            assert np.dot(u, b - a) > 0


class TestMoveTowards:
    def test_reaches_within_step(self):
        out = move_towards(np.zeros(1), np.array([0.5]), 1.0)
        np.testing.assert_allclose(out, [0.5])

    def test_clamps_to_step(self):
        out = move_towards(np.zeros(2), np.array([10.0, 0.0]), 1.0)
        np.testing.assert_allclose(out, [1.0, 0.0])

    def test_negative_step_rejected(self):
        with pytest.raises(ValueError):
            move_towards(np.zeros(1), np.ones(1), -0.1)

    def test_zero_step_stays(self):
        src = np.array([1.0, 2.0])
        np.testing.assert_allclose(move_towards(src, np.zeros(2), 0.0), src)

    @given(vec(2), vec(2), st.floats(0.0, 100.0))
    def test_never_exceeds_step(self, src, dst, step):
        out = move_towards(src, dst, step)
        assert distance(src, out) <= step * (1 + 1e-9) + 1e-9

    @given(vec(2), vec(2), st.floats(0.001, 100.0))
    def test_monotone_approach(self, src, dst, step):
        out = move_towards(src, dst, step)
        assert distance(out, dst) <= distance(src, dst) + 1e-9

    def test_returns_copy_of_destination(self):
        dst = np.array([0.1, 0.2])
        out = move_towards(np.zeros(2), dst, 5.0)
        out[0] = 99.0
        assert dst[0] == 0.1  # no aliasing


class TestInterpolate:
    def test_endpoints(self):
        a, b = np.zeros(2), np.ones(2)
        np.testing.assert_allclose(interpolate(a, b, 0.0), a)
        np.testing.assert_allclose(interpolate(a, b, 1.0), b)

    def test_midpoint(self):
        np.testing.assert_allclose(interpolate(np.zeros(1), np.ones(1), 0.5), [0.5])


class TestPathLength:
    def test_straight_line(self):
        path = np.array([[0.0], [1.0], [2.0]])
        assert total_path_length(path) == pytest.approx(2.0)

    def test_single_point_is_zero(self):
        assert total_path_length(np.zeros((1, 2))) == 0.0

    def test_l_shape(self):
        path = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
        assert total_path_length(path) == pytest.approx(2.0)


class TestCentroid:
    def test_uniform(self):
        batch = np.array([[0.0, 0.0], [2.0, 0.0]])
        np.testing.assert_allclose(centroid(batch), [1.0, 0.0])

    def test_weighted(self):
        batch = np.array([[0.0], [1.0]])
        np.testing.assert_allclose(centroid(batch, np.array([1.0, 3.0])), [0.75])

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            centroid(np.empty((0, 2)))

    def test_bad_weights(self):
        with pytest.raises(ValueError):
            centroid(np.zeros((2, 1)), np.array([1.0]))

    def test_zero_weight_sum(self):
        with pytest.raises(ValueError):
            centroid(np.zeros((2, 1)), np.array([0.0, 0.0]))


class TestBoundingBox:
    def test_basic(self):
        lo, hi = bounding_box(np.array([[0.0, 5.0], [2.0, -1.0]]))
        np.testing.assert_allclose(lo, [0.0, -1.0])
        np.testing.assert_allclose(hi, [2.0, 5.0])

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            bounding_box(np.empty((0, 2)))

