"""Cross-lane batched median solver: bit-parity and certificates.

:mod:`repro.median.batched` promises that every lane of
``batched_request_center(points, servers)`` equals the scalar
``request_center(points[i], servers[i])`` **bit for bit** — including the
exact-case routing (single / pair / coincident / collinear), the numeric
lanes, warm starts, and iterates that start on a data point.  These tests
sweep degenerate inputs property-style (deterministic seeds, many trials)
and assert exact float64 equality throughout.

The certificate tests pin the mathematics rather than one solver's
digits: every returned point is a data point passing Kuhn's test or a
point where the Weber gradient vanishes to rounding, segment minimizers
resolve to the point closest to the start, and a budget hit raises.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.median import (
    batched_median_set,
    batched_request_center,
    batched_weiszfeld,
    certified_medians,
    median_set,
    request_center,
    weber_cost,
    weiszfeld,
)

# -- input generators -------------------------------------------------------


def _degenerate_stack(rng: np.random.Generator, B: int, r: int, d: int) -> np.ndarray:
    """A (B, r, d) stack salted with every degenerate shape the scalar
    solver special-cases: coincident stacks, duplicated points, collinear
    lanes, and wildly varying scales."""
    scale = 10.0 ** float(rng.integers(-6, 7))
    pts = rng.normal(scale=scale, size=(B, r, d))
    for b in range(B):
        kind = b % 5
        if kind == 1:  # all requests coincide
            pts[b] = pts[b, 0]
        elif kind == 2 and r >= 2:  # one duplicated point
            pts[b, 1] = pts[b, 0]
        elif kind == 3 and d >= 2:  # exactly collinear stack
            direction = rng.normal(size=d)
            pts[b] = pts[b, 0] + np.outer(rng.normal(size=r), direction)
        elif kind == 4 and r >= 3:  # near-coincident cluster plus outlier
            pts[b, 1:] = pts[b, 0] + rng.normal(scale=1e-13 * scale, size=(r - 1, d))
    return pts


def _servers(rng: np.random.Generator, B: int, d: int) -> np.ndarray:
    return rng.normal(scale=10.0 ** float(rng.integers(-3, 4)), size=(B, d))


# -- request_center parity --------------------------------------------------


class TestRequestCenterParity:
    @pytest.mark.parametrize("r", [1, 2, 3, 4, 7])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_scalar_per_lane(self, r, d):
        for trial in range(8):
            rng = np.random.default_rng(1000 * r + 100 * d + trial)
            pts = _degenerate_stack(rng, B=10, r=r, d=d)
            servers = _servers(rng, B=10, d=d)
            got = batched_request_center(pts, servers)
            for i in range(10):
                want = request_center(pts[i], servers[i])
                np.testing.assert_array_equal(
                    got[i], want, err_msg=f"lane {i} (r={r}, d={d}, trial {trial})")

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_warm_starts_match_scalar_warm_starts(self, d):
        """Warm lanes must replay ``warm_start=...``, cold lanes
        ``warm_start=None`` — both bit-for-bit."""
        for trial in range(6):
            rng = np.random.default_rng(7000 + 10 * d + trial)
            B, r = 8, 5
            pts = _degenerate_stack(rng, B=B, r=r, d=d)
            servers = _servers(rng, B=B, d=d)
            warm = pts.mean(axis=1) + rng.normal(scale=0.1, size=(B, d))
            mask = (np.arange(B) % 2).astype(bool)
            got = batched_request_center(pts, servers,
                                         warm_starts=warm, warm_mask=mask)
            for i in range(B):
                want = request_center(pts[i], servers[i],
                                      warm_start=warm[i] if mask[i] else None)
                np.testing.assert_array_equal(got[i], want, err_msg=f"lane {i}")

    def test_warm_without_mask_means_all_warm(self):
        rng = np.random.default_rng(11)
        pts = _degenerate_stack(rng, B=6, r=4, d=2)
        servers = _servers(rng, B=6, d=2)
        warm = rng.normal(size=(6, 2))
        got = batched_request_center(pts, servers, warm_starts=warm)
        for i in range(6):
            np.testing.assert_array_equal(
                got[i], request_center(pts[i], servers[i], warm_start=warm[i]))

    def test_strided_input_matches_contiguous(self):
        """The fused kernels hand the solver strided views of the packed
        (B, T, r, d) stack; layout must not move any bits."""
        rng = np.random.default_rng(23)
        big = rng.normal(size=(7, 5, 3, 2))
        servers = _servers(rng, B=7, d=2)
        for t in range(5):
            view = big[:, t]
            assert not view.flags.c_contiguous
            np.testing.assert_array_equal(
                batched_request_center(view, servers),
                batched_request_center(np.ascontiguousarray(view), servers))

    def test_rejects_bad_shapes_and_nonfinite(self):
        with pytest.raises(ValueError, match=r"\(B, r, d\)"):
            batched_request_center(np.zeros((3, 2)), np.zeros((3, 2)))
        with pytest.raises(ValueError, match="empty"):
            batched_request_center(np.zeros((3, 0, 2)), np.zeros((3, 2)))
        with pytest.raises(ValueError, match="non-finite"):
            bad = np.zeros((2, 2, 2))
            bad[1, 0, 0] = np.nan
            batched_request_center(bad, np.zeros((2, 2)))
        with pytest.raises(ValueError, match="servers"):
            batched_request_center(np.zeros((2, 2, 2)), np.zeros((3, 2)))


# -- weiszfeld parity -------------------------------------------------------


class TestBatchedWeiszfeldParity:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("r", [2, 3, 6])
    def test_matches_scalar_default_start(self, r, d):
        for trial in range(6):
            rng = np.random.default_rng(300 * r + 30 * d + trial)
            pts = _degenerate_stack(rng, B=9, r=r, d=d)
            got = batched_weiszfeld(pts)
            for i in range(9):
                np.testing.assert_array_equal(
                    got[i], weiszfeld(pts[i]).point, err_msg=f"lane {i}")

    def test_matches_scalar_with_starts(self):
        rng = np.random.default_rng(77)
        pts = _degenerate_stack(rng, B=8, r=4, d=2)
        starts = rng.normal(size=(8, 2))
        got = batched_weiszfeld(pts, starts)
        for i in range(8):
            np.testing.assert_array_equal(
                got[i], weiszfeld(pts[i], start=starts[i]).point)

    def test_vertex_branch_lanes_match_scalar(self):
        """Starts placed exactly on data points take the on-vertex
        (Vardi–Zhang) step; those lanes must still match the scalar solver."""
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(6, 5, 2))
        starts = np.ascontiguousarray(pts[:, 2])  # each lane starts on a vertex
        got = batched_weiszfeld(pts, starts)
        for i in range(6):
            np.testing.assert_array_equal(
                got[i], weiszfeld(pts[i], start=starts[i]).point)

    def test_single_request_is_copy(self):
        pts = np.arange(6.0).reshape(3, 1, 2)
        got = batched_weiszfeld(pts)
        np.testing.assert_array_equal(got, pts[:, 0])
        got[0, 0] = -1.0
        assert pts[0, 0, 0] == 0.0  # no aliasing


# -- median_set parity ------------------------------------------------------


class TestBatchedMedianSetParity:
    @pytest.mark.parametrize("r", [1, 2, 3, 5, 6])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_routing_and_endpoints_match_scalar(self, r, d):
        for trial in range(6):
            rng = np.random.default_rng(900 * r + 90 * d + trial)
            pts = _degenerate_stack(rng, B=10, r=r, d=d)
            mset = batched_median_set(pts)
            for i in range(10):
                want = median_set(pts[i])
                if want is None:
                    assert mset.numeric[i], f"lane {i} should be numeric"
                else:
                    assert not mset.numeric[i], f"lane {i} should be exact"
                    np.testing.assert_array_equal(mset.a[i], want.a,
                                                  err_msg=f"lane {i} a")
                    np.testing.assert_array_equal(mset.b[i], want.b,
                                                  err_msg=f"lane {i} b")

    def test_rejects_empty_and_misshaped(self):
        with pytest.raises(ValueError, match="empty"):
            batched_median_set(np.zeros((2, 0, 2)))
        with pytest.raises(ValueError, match=r"\(B, r, d\)"):
            batched_median_set(np.zeros((4, 2)))


# -- certificates -----------------------------------------------------------


def _near_vertex_stack(rng: np.random.Generator, B: int, r: int, d: int) -> np.ndarray:
    """Lanes whose data point 0 feels a pull of norm 0.99–1.01 from the
    others: its median sits on that point (pull <= 1) or just off it."""
    out = np.empty((B, r, d))
    for b in range(B):
        while True:
            u = rng.normal(size=(r - 2, d))
            u /= np.linalg.norm(u, axis=1, keepdims=True)
            s = u.sum(axis=0)
            ns = float(np.linalg.norm(s))
            rho = rng.uniform(0.99, 1.01)
            if ns > 1e-9 and abs(ns - 1.0) <= rho <= ns + 1.0:
                break
        # A last unit vector that brings the pull's norm to rho exactly.
        e1 = s / ns
        w = rng.normal(size=d)
        w -= (w @ e1) * e1
        w /= np.linalg.norm(w)
        a = (rho ** 2 - ns ** 2 - 1.0) / (2.0 * ns)
        units = np.vstack([u, a * e1 + np.sqrt(max(0.0, 1.0 - a * a)) * w])
        out[b, 0] = rng.normal(size=d)
        out[b, 1:] = out[b, 0] + units * rng.uniform(0.2, 3.0, size=(r - 1, 1))
    return out


def _certificate_holds(points: np.ndarray, y: np.ndarray) -> bool:
    """Kuhn's optimality condition at ``y``, to rounding.

    Points within 1e-13 of the largest coordinate count as coinciding with
    ``y``; the pull of the others must not exceed their multiplicity by
    more than the gradient tolerance plus the rounding of ``y`` itself
    (``eps·scale`` moves each unit vector by ``eps·scale/d_i``).
    """
    r = points.shape[0]
    scale = float(np.abs(points).max())
    diff = points - y
    dist = np.linalg.norm(diff, axis=1)
    on = dist <= 1e-13 * scale
    pull = (diff[~on] / dist[~on, None]).sum(axis=0)
    slack = 1e-12 * r + 1e-14 * float((scale / dist[~on]).sum())
    return float(np.linalg.norm(pull)) - int(on.sum()) <= slack


def _certificate_stack(rng: np.random.Generator, kind: int, B: int, r: int, d: int) -> np.ndarray:
    if kind == 0:
        pts = rng.normal(size=(B, r, d))
    elif kind == 1:  # duplicated requests
        pts = rng.normal(size=(B, r, d))
        pts[:, 1] = pts[:, 0]
        if r > 4:
            pts[:, 3] = pts[:, 2]
    else:
        pts = _near_vertex_stack(rng, B, r, d)
    scale = 10.0 ** rng.uniform(-3.0, 3.0)
    offset = rng.normal(size=(1, 1, d)) * rng.uniform(0.0, 5.0)
    return (pts + offset) * scale


class TestCertificates:
    @pytest.mark.parametrize("kind", [0, 1, 2])
    @pytest.mark.parametrize("seed", range(6))
    def test_every_point_is_certified(self, kind, seed):
        """Random, duplicated and near-vertex stacks, r 3–8, d 2–8, scales
        1e-3–1e3, cold and warm: each answer passes Kuhn's test, and no
        data point is cheaper."""
        rng = np.random.default_rng(4000 + 10 * kind + seed)
        for trial in range(8):
            r, d = int(rng.integers(3, 9)), int(rng.integers(2, 9))
            pts = _certificate_stack(rng, kind, B=6, r=r, d=d)
            starts = None if trial % 2 else pts.mean(axis=1) + rng.normal(size=(6, d)) * np.abs(pts).max()
            res = certified_medians(pts, starts)
            for i in range(6):
                assert _certificate_holds(pts[i], res.points[i]), f"lane {i} (r={r}, d={d})"
                best = min(weber_cost(p, pts[i]) for p in pts[i])
                assert weber_cost(res.points[i], pts[i]) <= best * (1 + 1e-14)
                assert res.on_vertex[i] == any(np.array_equal(res.points[i], p) for p in pts[i])

    def test_vertex_optima_return_the_data_point_without_iterating(self):
        rng = np.random.default_rng(8)
        pts = _near_vertex_stack(rng, B=40, r=5, d=3)
        res = certified_medians(pts)
        diff = pts[:, 1:] - pts[:, :1]
        pull = np.linalg.norm((diff / np.linalg.norm(diff, axis=2, keepdims=True)).sum(axis=1), axis=1)
        vertex = pull < 1.0 - 1e-9
        assert vertex.any() and (~vertex).any()
        np.testing.assert_array_equal(res.points[vertex], pts[vertex, 0])
        assert np.all(res.on_vertex[vertex]) and np.all(res.iterations[vertex] == 0)
        assert not np.any(res.on_vertex[pull > 1.0 + 1e-9])

    def test_e5_lane_the_fixed_point_loop_left_unconverged(self):
        """One E5 (scale 0.4, seed 1) lane on which the former 1000-step
        Weiszfeld loop stopped 2.7e-3·scale from the median, 6.6e-7·scale
        above its cost, without a flag."""
        pts = np.array([[-0.9759587317842888, 0.4720655517828199],
                        [-0.7893083269370276, -0.9541169389844333],
                        [-0.9870098282473397, 0.11575061464757364],
                        [-0.895612316804062, -0.11721431771540344]])
        start = np.array([-0.7634586117588155, 0.1719977434350366])
        former = np.array([-0.9014653495607823, -0.10221884455414743])
        res = weiszfeld(pts, start=start)
        assert _certificate_holds(pts, res.point) and not res.on_vertex
        assert res.iterations < 20
        assert np.abs(res.point - former).max() > 1e-3
        assert weber_cost(former, pts) - weber_cost(res.point, pts) > 6e-7
        np.testing.assert_array_equal(
            batched_weiszfeld(np.repeat(pts[None], 3, axis=0), np.repeat(start[None], 3, axis=0)),
            np.repeat(res.point[None], 3, axis=0))

    def test_segment_minimizers_resolve_to_the_point_closest_to_the_start(self):
        pair = np.array([[[0.0, 0.0], [4.0, 2.0]]] * 3)
        np.testing.assert_array_equal(batched_weiszfeld(pair)[0], [2.0, 1.0])  # the midpoint
        got = batched_weiszfeld(pair, np.array([[-5.0, 0.0], [3.0, 4.0], [9.0, 9.0]]))
        np.testing.assert_allclose(got, [[0.0, 0.0], [4.0, 2.0], [4.0, 2.0]], atol=1e-15)
        line = np.array([[[0.0], [1.0], [5.0], [9.0]]])
        np.testing.assert_array_equal(batched_weiszfeld(line), [[3.75]])  # the centroid
        np.testing.assert_array_equal(batched_weiszfeld(line, np.array([[-2.0]])), [[1.0]])
        np.testing.assert_array_equal(batched_weiszfeld(line, np.array([[7.0]])), [[5.0]])
        embedded = np.array([[[0.0, 0.0], [1.0, 1.0], [5.0, 5.0], [9.0, 9.0]]])
        np.testing.assert_allclose(batched_weiszfeld(embedded), [[3.75, 3.75]], atol=1e-12)
        odd = np.array([[[0.0, 0.0], [2.0, 1.0], [6.0, 3.0]]])
        np.testing.assert_allclose(batched_weiszfeld(odd, np.array([[10.0, -3.0]])), [[2.0, 1.0]],
                                   atol=1e-12)

    def test_budget_hit_raises(self):
        rng = np.random.default_rng(2)
        pts = rng.normal(size=(4, 6, 3))
        with pytest.raises(ArithmeticError, match="not converged after 1 steps"):
            certified_medians(pts, max_iter=1)
        with pytest.raises(ArithmeticError, match="not converged"):
            weiszfeld(pts[0], max_iter=1)
        assert certified_medians(pts).iterations.max() < 20

    def test_singular_hessian_lane_gets_no_direction(self):
        """A singular Hessian in one lane must neither raise nor change the
        other lanes' directions (which would break per-lane parity)."""
        from repro.median.batched import _newton_directions

        rng = np.random.default_rng(4)
        hess = rng.normal(size=(3, 2, 2))
        hess[1] = [[1.0, 2.0], [2.0, 4.0]]
        pull = rng.normal(size=(3, 2))
        got = _newton_directions(hess, pull)
        assert np.all(np.isnan(got[1]))
        for i in (0, 2):
            np.testing.assert_array_equal(got[i], _newton_directions(hess[i:i + 1], pull[i:i + 1])[0])

    def test_vertex_search_memory_is_blocked(self, monkeypatch):
        """Vertex costs come in bounded candidate blocks: a tiny block
        budget gives the same answers bit for bit."""
        import repro.median.batched as batched

        rng = np.random.default_rng(6)
        pts = _degenerate_stack(rng, B=5, r=40, d=2)
        want = batched_weiszfeld(pts)
        monkeypatch.setattr(batched, "_BLOCK", 1)
        np.testing.assert_array_equal(batched_weiszfeld(pts), want)
