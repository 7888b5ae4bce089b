"""Cross-module property-based tests (hypothesis) on core invariants.

These encode the *model laws* every component must respect:

* simulated movement never exceeds the granted cap;
* cost accounting decomposes exactly into movement + service;
* certified optimum brackets are ordered and sandwich every feasible cost;
* the geometric median really minimizes the Weber objective;
* replaying a trace reproduces its cost under both cost models;
* more augmentation never increases MtC's certified ratio by much
  (monotonicity up to tie-break noise is not a theorem, so we only check
  the certified-bracket laws here).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import GreedyCenter, MoveToCenter, StaticServer
from repro.core import CostModel, MSPInstance, RequestSequence, replay_cost, simulate
from repro.median import request_center, weber_cost
from repro.offline import bracket_optimum, solve_line


@st.composite
def line_instances(draw):
    """Small random 1-D instances with varied D, m and request counts."""
    T = draw(st.integers(5, 25))
    r = draw(st.integers(1, 3))
    D = draw(st.sampled_from([1.0, 2.0, 4.0]))
    m = draw(st.sampled_from([0.5, 1.0]))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    kind = draw(st.sampled_from(["walk", "drift", "jump"]))
    if kind == "walk":
        base = np.cumsum(rng.normal(scale=0.5 * m, size=(T, 1)), axis=0)
    elif kind == "drift":
        base = np.cumsum(np.full((T, 1), 0.8 * m), axis=0)
    else:
        base = rng.uniform(-5 * m, 5 * m, size=(T, 1))
    pts = base[:, None, :] + rng.normal(scale=0.2, size=(T, r, 1))
    model = draw(st.sampled_from([CostModel.MOVE_FIRST, CostModel.ANSWER_FIRST]))
    return MSPInstance(RequestSequence.from_packed(pts), start=np.zeros(1),
                       D=D, m=m, cost_model=model)


@st.composite
def deltas(draw):
    return draw(st.sampled_from([0.0, 0.25, 0.5, 1.0]))


class TestSimulationLaws:
    @given(line_instances(), deltas())
    def test_cap_respected(self, inst, delta):
        for alg in (MoveToCenter(), GreedyCenter(), StaticServer()):
            tr = simulate(inst, alg, delta=delta)
            tr.validate_against_cap(inst.online_cap(delta))

    @given(line_instances(), deltas())
    def test_cost_decomposition(self, inst, delta):
        tr = simulate(inst, MoveToCenter(), delta=delta)
        assert tr.total_cost == pytest.approx(
            tr.total_movement_cost + tr.total_service_cost
        )
        np.testing.assert_allclose(tr.movement_costs, inst.D * tr.distances_moved)

    @given(line_instances(), deltas())
    def test_replay_reproduces_cost(self, inst, delta):
        tr = simulate(inst, MoveToCenter(), delta=delta)
        rp = replay_cost(inst, tr.positions)
        assert rp.total_cost == pytest.approx(tr.total_cost, rel=1e-9)

    @given(line_instances())
    def test_costs_nonnegative(self, inst):
        tr = simulate(inst, GreedyCenter(), delta=0.5)
        assert np.all(tr.movement_costs >= 0)
        assert np.all(tr.service_costs >= 0)


class TestBracketLaws:
    @settings(max_examples=20)
    @given(line_instances())
    def test_bracket_ordered_and_sandwiches(self, inst):
        br = bracket_optimum(inst)
        assert 0.0 <= br.lower <= br.upper + 1e-9
        # Every online run costs at least the lower bound.
        for alg in (MoveToCenter(), StaticServer()):
            tr = simulate(inst, alg, delta=0.0)
            assert tr.total_cost >= br.lower - 1e-6 * (1 + br.lower)

    @settings(max_examples=20)
    @given(line_instances())
    def test_upper_is_feasible_cost(self, inst):
        br = bracket_optimum(inst)
        rp = replay_cost(inst, br.positions, validate_cap=inst.m)
        assert rp.total_cost == pytest.approx(br.upper, rel=1e-9)


class TestMedianLaws:
    @given(st.integers(1, 8), st.integers(0, 2**31 - 1))
    def test_center_no_worse_than_any_request_point(self, r, seed):
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(r, 2))
        c = request_center(pts, server=np.zeros(2))
        best_vertex = min(weber_cost(p, pts) for p in pts)
        assert weber_cost(c, pts) <= best_vertex + 1e-7 * (1 + best_vertex)

    @given(st.integers(2, 8), st.integers(0, 2**31 - 1))
    def test_center_within_convex_hull_box(self, r, seed):
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(r, 2))
        c = request_center(pts, server=rng.normal(size=2) * 10)
        lo, hi = pts.min(axis=0), pts.max(axis=0)
        assert np.all(c >= lo - 1e-9) and np.all(c <= hi + 1e-9)

    @given(st.integers(0, 2**31 - 1))
    def test_translation_equivariance(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(5, 2))
        shift = rng.normal(size=2)
        c0 = request_center(pts, server=np.zeros(2))
        c1 = request_center(pts + shift, server=shift)
        np.testing.assert_allclose(c1, c0 + shift, atol=1e-7)


class TestDPLaws:
    """The line solver is exact: its optimum obeys the program's symmetries."""

    @settings(max_examples=15)
    @given(line_instances(), st.sampled_from([-7.25, 0.5, 3.0, 1000.0]))
    def test_translation_leaves_the_optimum_unchanged(self, inst, shift):
        moved = MSPInstance(RequestSequence.from_packed(inst.requests.packed + shift),
                            start=inst.start + shift, D=inst.D, m=inst.m,
                            cost_model=inst.cost_model)
        a, b = solve_line(inst), solve_line(moved)
        assert b.cost == pytest.approx(a.cost, rel=1e-9, abs=1e-9)

    @settings(max_examples=15)
    @given(line_instances(), st.sampled_from([0.5, 2.0, 3.0]))
    def test_scaling_space_scales_the_optimum(self, inst, c):
        scaled = MSPInstance(RequestSequence.from_packed(inst.requests.packed * c),
                             start=inst.start * c, D=inst.D, m=inst.m * c,
                             cost_model=inst.cost_model)
        a, b = solve_line(inst), solve_line(scaled)
        assert b.cost == pytest.approx(c * a.cost, rel=1e-9, abs=1e-9)

    @settings(max_examples=15)
    @given(line_instances())
    def test_trajectory_is_cap_feasible_and_replays_to_upper(self, inst):
        res = solve_line(inst)
        tr = replay_cost(inst, res.positions, validate_cap=inst.m)
        assert tr.total_cost == res.cost
        assert res.positions[0, 0] == inst.start[0]
        assert res.lower_bound <= res.cost <= res.lower_bound + 1e-9 * res.cost
