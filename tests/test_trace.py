"""Tests for the Trace container."""

import numpy as np
import pytest

from repro.core import MSPInstance, RequestSequence, Trace, replay_cost
from repro.extensions.multi_server import KServerTrace


def _filled_trace():
    tr = Trace.allocate(3, 2, algorithm="test")
    tr.positions[:] = np.arange(8, dtype=float).reshape(4, 2)
    tr.movement_costs[:] = [1.0, 2.0, 3.0]
    tr.service_costs[:] = [0.5, 0.5, 0.5]
    tr.distances_moved[:] = [0.5, 1.0, 1.5]
    tr.request_counts[:] = [1, 2, 3]
    return tr


class TestTrace:
    def test_allocate_shapes(self):
        tr = Trace.allocate(5, 3)
        assert tr.positions.shape == (6, 3)
        assert tr.movement_costs.shape == (5,)
        assert tr.length == 5 and tr.dim == 3

    def test_totals(self):
        tr = _filled_trace()
        assert tr.total_cost == pytest.approx(7.5)
        assert tr.total_movement_cost == pytest.approx(6.0)
        assert tr.total_service_cost == pytest.approx(1.5)
        assert tr.total_distance_moved == pytest.approx(3.0)

    def test_step_costs(self):
        tr = _filled_trace()
        np.testing.assert_allclose(tr.step_costs, [1.5, 2.5, 3.5])

    def test_cumulative(self):
        tr = _filled_trace()
        np.testing.assert_allclose(tr.cumulative_costs(), [1.5, 4.0, 7.5])

    def test_prefix_cost(self):
        tr = _filled_trace()
        assert tr.prefix_cost(0) == 0.0
        assert tr.prefix_cost(2) == pytest.approx(4.0)

    def test_max_step_distance(self):
        assert _filled_trace().max_step_distance() == pytest.approx(1.5)

    def test_validate_cap_ok(self):
        _filled_trace().validate_against_cap(1.5)

    def test_validate_cap_violation(self):
        with pytest.raises(ValueError, match="movement cap"):
            _filled_trace().validate_against_cap(1.0)

    def test_small_cap_overrun_is_rejected(self):
        """A 9 % overrun of a 1e-6 cap is no rounding: replay rejects it."""
        inst = MSPInstance(RequestSequence.from_packed(np.zeros((2, 1, 1))),
                           start=np.zeros(1), D=1.0, m=1e-6)
        with pytest.raises(ValueError, match="movement cap at step 1"):
            replay_cost(inst, np.array([[0.0], [1e-6], [2.09e-6]]), validate_cap=1e-6)
        replay_cost(inst, np.array([[0.0], [1e-6], [2e-6]]), validate_cap=1e-6)

    def test_cap_slack_is_relative(self):
        """Steps of exactly the cap far from the origin read a few ulps of
        the coordinates long and pass; a relative overrun of 1e-6 fails at
        every cap that is large against the rounding of the coordinates."""
        for cap, origin in [(1e-9, 0.0), (1e-6, 1.0), (1e-3, 1e4), (1.0, 1e4), (1e3, 1e4)]:
            tr = Trace.allocate(50, 1)
            tr.positions[:, 0] = origin + cap * np.arange(51)
            tr.distances_moved[:] = np.abs(np.diff(tr.positions[:, 0]))
            tr.validate_against_cap(cap)
            tr.distances_moved[7] = cap * (1 + 1e-6)
            with pytest.raises(ValueError, match="at step 7"):
                tr.validate_against_cap(cap)

    def test_multi_server_cap_shares_the_rule(self):
        positions = np.zeros((3, 2, 1))
        positions[1, 1, 0] = 1e-6
        positions[2, 1, 0] = 2.09e-6
        tr = KServerTrace(positions, np.zeros(2), np.zeros(2))
        tr.validate_against_cap(1.1e-6)
        with pytest.raises(ValueError, match="cap violated"):
            tr.validate_against_cap(1e-6)

    def test_empty_trace(self):
        tr = Trace.allocate(0, 2)
        assert tr.total_cost == 0.0
        assert tr.max_step_distance() == 0.0
        tr.validate_against_cap(1.0)  # no-op

    def test_summary_keys(self):
        s = _filled_trace().summary()
        assert s["total"] == pytest.approx(7.5)
        assert s["steps"] == 3.0
