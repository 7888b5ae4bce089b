"""Cross-lane batched median solver: frozen parity, stack independence and
certificates.

:mod:`repro.median.batched` is the package's one implementation of the
paper's center rule; the scalar ``request_center`` and ``weiszfeld`` are
its functions on one-lane stacks.  Three references pin it:

* **a frozen fixture** (``tests/data/median_parity.json``): the solver's
  outputs on degenerate grids (r ∈ {1, 2, 3, 4, 5, 8}, d ∈ {1, 2, 3},
  duplicated, collinear and coincident points, warm starts on and off),
  captured before the 1-D closed form replaced the SVD frame.  Lanes in
  ``d >= 2`` must reproduce it bit for bit, 1-D lanes within one ulp of
  the lane's largest coordinate;
* **stack independence**: every lane of a ``B``-lane call equals the same
  lane solved alone, exactly (sweeps of degenerate inputs, float64
  equality throughout);
* **analytic checks**: every center minimizes the Weber objective, a tied
  center is the minimizer closest to the server, and every numeric point
  is a data point passing Kuhn's test or a point where the Weber gradient
  vanishes to rounding; segment minimizers resolve to the point closest to
  the start, and a budget hit raises.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.median import (
    batched_median_set,
    batched_request_center,
    batched_weiszfeld,
    certified_medians,
    request_center,
    weber_cost,
    weiszfeld,
)
from repro.median.batched import batched_midpoint_center

# -- input generators -------------------------------------------------------


def _degenerate_stack(rng: np.random.Generator, B: int, r: int, d: int) -> np.ndarray:
    """A (B, r, d) stack salted with every degenerate shape the solver
    special-cases: coincident stacks, duplicated points, collinear lanes,
    and wildly varying scales."""
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


# -- frozen fixture ----------------------------------------------------------

_FIXTURE = Path(__file__).parent / "data" / "median_parity.json"
_KEYS = ("center_cold", "center_warm", "set_a", "set_b")


def _fixture_runs():
    """Each fixture case with the current solver's outputs beside it."""
    for case in json.loads(_FIXTURE.read_text())["cases"]:
        pts = np.array(case["points"])
        servers = np.array(case["servers"])
        mset = batched_median_set(pts)
        got = {
            "center_cold": batched_request_center(pts, servers),
            "center_warm": batched_request_center(
                pts, servers, warm_starts=np.array(case["warm_starts"]),
                warm_mask=np.array(case["warm_mask"])),
            "set_a": mset.a,
            "set_b": mset.b,
        }
        np.testing.assert_array_equal(mset.numeric, case["set_numeric"])
        yield case, pts, got


def _inside_parent_coincidence(x: np.ndarray) -> bool:
    """A 1-D lane of distinct points whose centred norm is at most 1e-9: the
    captured solver called it coincident and answered with its mean."""
    return x.size >= 3 and np.ptp(x) > 0.0 and np.linalg.norm(x - x.mean()) <= 1e-9


class TestFrozenFixture:
    def test_multi_d_lanes_are_bit_identical(self):
        seen = 0
        for case, _, got in _fixture_runs():
            if case["d"] == 1:
                continue
            for key in _KEYS:
                np.testing.assert_array_equal(
                    got[key], case[key],
                    err_msg=f"{key} (r={case['r']}, d={case['d']}, trial {case['trial']})")
            seen += 1
        assert seen == 24

    def test_1d_lanes_within_one_ulp_of_their_scale(self):
        """The captured 1-D answers went through ``origin + t·u``, which
        rounds at the scale of the lane's coordinates; the sorted middle
        pair is exact, so the two agree to one ulp of that scale."""
        lanes = 0
        for case, pts, got in _fixture_runs():
            if case["d"] != 1:
                continue
            for i in range(pts.shape[0]):
                if _inside_parent_coincidence(pts[i, :, 0]):
                    continue
                ulp = np.spacing(np.abs(pts[i]).max())
                for key in _KEYS:
                    assert abs(got[key][i, 0] - case[key][i][0]) <= ulp, (
                        f"{key} lane {i} (r={case['r']}, trial {case['trial']})")
                lanes += 1
        assert lanes >= 100

    def test_1d_lanes_inside_the_old_coincidence_tolerance(self):
        """Near-coincident 1-D lanes (spread far below 1e-9) were answered
        with their mean, which is no Weber minimizer; they now get the exact
        minimizing set, which lies within the lane's spread of the old
        answer."""
        lanes = 0
        for case, pts, got in _fixture_runs():
            if case["d"] != 1:
                continue
            for i in range(pts.shape[0]):
                x = pts[i, :, 0]
                if not _inside_parent_coincidence(x):
                    continue
                order = np.sort(x)
                r = x.size
                assert got["set_a"][i, 0] == order[(r - 1) // 2]
                assert got["set_b"][i, 0] == order[r // 2]
                for key in ("center_cold", "center_warm"):
                    c = got[key][i, 0]
                    assert order[(r - 1) // 2] <= c <= order[r // 2]
                    assert abs(c - case[key][i][0]) <= np.ptp(x)
                lanes += 1
        assert lanes >= 8


# -- request_center: stack independence -------------------------------------


class TestRequestCenterStacks:
    @pytest.mark.parametrize("r", [1, 2, 3, 4, 7])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_lane_equals_one_lane_call(self, r, d):
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
    def test_warm_lanes_equal_one_lane_warm_calls(self, d):
        """Warm lanes equal ``warm_start=...`` calls, cold lanes
        ``warm_start=None`` calls — both bit-for-bit."""
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


# -- the center rule, analytically ------------------------------------------


class TestCenterRule:
    @pytest.mark.parametrize("r", [2, 3, 4, 6])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_center_is_the_weber_minimizer_closest_to_the_server(self, r, d):
        """Each center costs no more than any data point (a minimizer), and a
        lane minimized on a segment returns its point closest to the
        server, checked against 65 points along the segment."""
        along = np.linspace(0.0, 1.0, 65)[:, None]
        for trial in range(4):
            rng = np.random.default_rng(6100 + 100 * r + 10 * d + trial)
            pts = _degenerate_stack(rng, B=10, r=r, d=d)
            servers = _servers(rng, B=10, d=d)
            got = batched_request_center(pts, servers)
            mset = batched_median_set(pts)
            for i in range(10):
                scale = max(float(np.abs(pts[i]).max()), float(np.abs(servers[i]).max()))
                best = min(weber_cost(p, pts[i]) for p in pts[i])
                assert weber_cost(got[i], pts[i]) <= best + 1e-12 * r * scale, f"lane {i}"
                if mset.numeric[i]:
                    continue
                seg = mset.a[i] + along * (mset.b[i] - mset.a[i])
                nearest = np.linalg.norm(seg - servers[i], axis=1).min()
                assert np.linalg.norm(got[i] - servers[i]) <= nearest + 1e-12 * scale, f"lane {i}"

    def test_odd_1d_centers_are_data_points(self):
        """An odd 1-D batch has one minimizer, its middle order statistic;
        every lane returns that data point bit for bit."""
        rng = np.random.default_rng(31)
        for r in (3, 5, 9, 15):
            pts = rng.normal(size=(64, r, 1)) * 10.0 ** rng.uniform(-5, 5, size=(64, 1, 1))
            pts += rng.normal(size=(64, 1, 1)) * 10.0 ** rng.uniform(-3, 6, size=(64, 1, 1))
            got = batched_request_center(pts, rng.normal(size=(64, 1)))
            np.testing.assert_array_equal(got[:, 0], np.sort(pts[:, :, 0], axis=1)[:, r // 2])

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_midpoint_lanes_equal_one_lane_calls(self, d):
        """The midpoint tie-break: segment midpoints for tied lanes, the
        certified median for numeric ones, lane by lane as when solved
        alone."""
        for trial in range(4):
            rng = np.random.default_rng(8200 + 10 * d + trial)
            pts = _degenerate_stack(rng, B=10, r=4, d=d)
            got = batched_midpoint_center(pts)
            mset = batched_median_set(pts)
            for i in range(10):
                np.testing.assert_array_equal(got[i], batched_midpoint_center(pts[i:i + 1])[0])
                want = (weiszfeld(pts[i]).point if mset.numeric[i]
                        else 0.5 * (mset.a[i] + mset.b[i]))
                np.testing.assert_array_equal(got[i], want, err_msg=f"lane {i}")


# -- weiszfeld: stack independence -----------------------------------------


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


# -- median_set: stack independence and closed forms ------------------------


class TestBatchedMedianSetStacks:
    @pytest.mark.parametrize("r", [1, 2, 3, 5, 6])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_lane_equals_one_lane_call(self, r, d):
        for trial in range(6):
            rng = np.random.default_rng(900 * r + 90 * d + trial)
            pts = _degenerate_stack(rng, B=10, r=r, d=d)
            mset = batched_median_set(pts)
            for i in range(10):
                one = batched_median_set(pts[i:i + 1])
                assert mset.numeric[i] == one.numeric[0], f"lane {i}"
                np.testing.assert_array_equal(mset.a[i], one.a[0], err_msg=f"lane {i} a")
                np.testing.assert_array_equal(mset.b[i], one.b[0], err_msg=f"lane {i} b")

    @pytest.mark.parametrize("r", [3, 4, 5, 8])
    def test_1d_sets_are_the_sorted_middle_pair(self, r):
        rng = np.random.default_rng(40 + r)
        pts = _degenerate_stack(rng, B=20, r=r, d=1)
        mset = batched_median_set(pts)
        order = np.sort(pts[:, :, 0], axis=1)
        assert not mset.numeric.any()
        np.testing.assert_array_equal(mset.a[:, 0], order[:, (r - 1) // 2])
        np.testing.assert_array_equal(mset.b[:, 0], order[:, r // 2])

    def test_routing_follows_the_rank_of_the_batch(self):
        """Non-collinear lanes are numeric; exactly collinear and coincident
        lanes get closed forms."""
        rng = np.random.default_rng(3)
        for d in (2, 3):
            pts = _degenerate_stack(rng, B=20, r=5, d=d)
            mset = batched_median_set(pts)
            kind = np.arange(20) % 5
            assert not mset.numeric[(kind == 1) | (kind == 3)].any()
            assert mset.numeric[(kind == 0) | (kind == 2)].all()

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
