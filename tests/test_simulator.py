"""Tests for the simulation engine (simulate / replay_cost / moving client)."""

import numpy as np
import pytest

from repro.algorithms import MoveToCenter, OnlineAlgorithm, StaticServer
from repro.core import (
    CostModel,
    MovementCapViolation,
    MovingClientInstance,
    MSPInstance,
    RequestSequence,
    replay_cost,
    simulate,
    simulate_moving_client,
)


class TeleportingAlgorithm(OnlineAlgorithm):
    """Deliberately violates the movement cap."""

    name = "teleporter"

    def decide(self, t, batch):
        return self.position + 100.0


class RecordingAlgorithm(OnlineAlgorithm):
    """Stays put and records what it sees."""

    name = "recorder"

    def __init__(self):
        super().__init__()
        self.seen = []

    def decide(self, t, batch):
        self.seen.append((t, batch.count))
        return self.position


def _instance(T=4, model=CostModel.MOVE_FIRST):
    pts = np.arange(T, dtype=float).reshape(T, 1, 1)
    return MSPInstance(RequestSequence.from_packed(pts), start=np.zeros(1),
                       D=2.0, m=1.0, cost_model=model)


class TestSimulate:
    def test_trace_shapes(self):
        tr = simulate(_instance(), StaticServer())
        assert tr.length == 4 and tr.positions.shape == (5, 1)

    def test_static_costs(self):
        # Requests at 0,1,2,3 served from 0 with no movement.
        tr = simulate(_instance(), StaticServer())
        assert tr.total_movement_cost == 0.0
        assert tr.total_service_cost == pytest.approx(0 + 1 + 2 + 3)

    def test_cap_violation_raises(self):
        with pytest.raises(MovementCapViolation, match="teleporter"):
            simulate(_instance(), TeleportingAlgorithm())

    def test_augmentation_extends_cap(self):
        inst = _instance()
        tr0 = simulate(inst, MoveToCenter(), delta=0.0)
        tr1 = simulate(inst, MoveToCenter(), delta=1.0)
        assert tr0.max_step_distance() <= 1.0 + 1e-9
        assert tr1.max_step_distance() <= 2.0 + 1e-9

    def test_algorithm_sees_every_step(self):
        alg = RecordingAlgorithm()
        simulate(_instance(T=3), alg)
        assert alg.seen == [(0, 1), (1, 1), (2, 1)]

    def test_callback_invoked(self):
        calls = []
        simulate(_instance(T=3), StaticServer(),
                 callback=lambda t, old, new, pts: calls.append(t))
        assert calls == [0, 1, 2]

    def test_positions_row0_is_start(self):
        tr = simulate(_instance(), StaticServer())
        np.testing.assert_allclose(tr.positions[0], [0.0])

    def test_answer_first_charges_old_position(self):
        inst = _instance(model=CostModel.ANSWER_FIRST)
        # MtC moves toward each request; in answer-first the service is
        # charged before the move, so it should cost more than move-first
        # on this forward-drifting sequence.
        af = simulate(inst, MoveToCenter(), delta=0.0).total_cost
        mf = simulate(_instance(), MoveToCenter(), delta=0.0).total_cost
        assert af >= mf

    def test_request_counts_recorded(self):
        tr = simulate(_instance(), StaticServer())
        np.testing.assert_array_equal(tr.request_counts, [1, 1, 1, 1])

    def test_empty_sequence(self):
        seq = RequestSequence([np.empty((0, 1))], dim=1)
        inst = MSPInstance(seq, start=np.zeros(1))
        tr = simulate(inst, MoveToCenter())
        assert tr.length == 1 and tr.total_cost == 0.0

    def test_deterministic(self):
        inst = _instance()
        t1 = simulate(inst, MoveToCenter(), delta=0.5)
        t2 = simulate(inst, MoveToCenter(), delta=0.5)
        np.testing.assert_array_equal(t1.positions, t2.positions)

    def test_in_place_mutation_cannot_corrupt_accounting(self):
        """Regression: decide() mutating its position in place and returning it.

        The simulator's pre-move position must never alias the algorithm's
        live position — otherwise such an algorithm sees ``old == new`` and
        its movement is accounted as zero, and the trace rows could be
        retroactively rewritten.
        """

        class InPlaceDrifter(OnlineAlgorithm):
            name = "in-place-drifter"

            def decide(self, t, batch):
                self.position += 0.5  # mutates, then returns the same array
                return self.position

        tr = simulate(_instance(T=4), InPlaceDrifter())
        # Moves 0.5 per step, weighted by D=2.0 -> movement cost 1.0 per step.
        np.testing.assert_allclose(tr.distances_moved, [0.5, 0.5, 0.5, 0.5])
        np.testing.assert_allclose(tr.movement_costs, [1.0, 1.0, 1.0, 1.0])
        # The trace rows are snapshots, not views of the mutated array.
        np.testing.assert_allclose(tr.positions[:, 0], [0.0, 0.5, 1.0, 1.5, 2.0])

    def test_trace_rows_do_not_alias_algorithm_position(self):
        alg = StaticServer()
        tr = simulate(_instance(), alg)
        assert not np.shares_memory(tr.positions, alg.position)


class TestReplayCost:
    def test_matches_simulation(self):
        """Replaying an algorithm's own trajectory reproduces its costs."""
        inst = _instance()
        tr = simulate(inst, MoveToCenter(), delta=0.5)
        rp = replay_cost(inst, tr.positions)
        assert rp.total_cost == pytest.approx(tr.total_cost)
        np.testing.assert_allclose(rp.service_costs, tr.service_costs)

    def test_accepts_post_move_rows(self):
        inst = _instance()
        tr = simulate(inst, MoveToCenter(), delta=0.5)
        rp = replay_cost(inst, tr.positions[1:])  # start prepended internally
        assert rp.total_cost == pytest.approx(tr.total_cost)

    def test_answer_first_accounting(self):
        inst = _instance(model=CostModel.ANSWER_FIRST)
        positions = np.zeros((5, 1))  # never move
        rp = replay_cost(inst, positions)
        assert rp.total_cost == pytest.approx(0 + 1 + 2 + 3)

    def test_movement_only_charges_no_service(self):
        """Same accounting as ``simulate``: a movement-only replay of an
        algorithm's trajectory costs exactly its movement."""
        inst = _instance(model=CostModel.MOVEMENT_ONLY)
        tr = simulate(inst, MoveToCenter(), delta=0.5)
        rp = replay_cost(inst, tr.positions)
        assert not rp.service_costs.any()
        assert rp.total_cost == tr.total_cost == tr.total_movement_cost

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="positions"):
            replay_cost(_instance(), np.zeros((2, 1)))

    def test_wrong_dim_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            replay_cost(_instance(), np.zeros((5, 2)))

    def test_cap_validation_optional(self):
        inst = _instance()
        jumpy = np.zeros((5, 1))
        jumpy[2] = 50.0
        replay_cost(inst, jumpy)  # fine without validation
        with pytest.raises(ValueError, match="movement cap"):
            replay_cost(inst, jumpy, validate_cap=1.0)


class TestMovingClientSimulation:
    def test_lowering_equivalence(self):
        path = np.cumsum(np.full((6, 1), 0.5), axis=0)
        mc = MovingClientInstance(path, start=np.zeros(1), D=2.0,
                                  m_server=1.0, m_agent=0.5)
        tr1 = simulate_moving_client(mc, MoveToCenter(), delta=0.0)
        tr2 = simulate(mc.as_msp(), MoveToCenter(), delta=0.0)
        assert tr1.total_cost == pytest.approx(tr2.total_cost)

    def test_cap_uses_server_speed(self):
        path = np.cumsum(np.full((6, 1), 0.5), axis=0)
        mc = MovingClientInstance(path, start=np.zeros(1), m_server=0.25, m_agent=0.5)
        tr = simulate_moving_client(mc, MoveToCenter(), delta=0.0)
        assert tr.max_step_distance() <= 0.25 + 1e-9
