"""Tests for viz rendering, instance/trace persistence and ratio curves."""

import numpy as np
import pytest

from repro.algorithms import MoveToCenter, StaticServer
from repro.analysis import ratio_curve, separation_curve
from repro.core import (
    CostModel,
    MSPInstance,
    RequestSequence,
    load_instance,
    load_trace,
    save_instance,
    save_trace,
    simulate,
)
from repro.offline import solve_line
from repro.viz import render_line_chart, render_plane, sparkline


class TestSparkline:
    def test_monotone_series(self):
        s = sparkline(np.arange(8.0))
        assert s[0] == "▁" and s[-1] == "█"

    def test_constant_series(self):
        s = sparkline(np.ones(5))
        assert set(s) == {"▁"}

    def test_resampling(self):
        assert len(sparkline(np.arange(1000.0), width=16)) == 16

    def test_empty(self):
        assert sparkline(np.array([])) == ""


class TestRenderPlane:
    def test_contains_markers_and_bounds(self):
        path = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.5]])
        reqs = np.array([[0.5, 0.5], [1.5, 0.8]])
        out = render_plane(path, reqs, title="scene")
        assert "scene" in out
        assert "S" in out and "E" in out and "." in out
        assert "x:[" in out

    def test_reference_path_glyph(self):
        path = np.array([[0.0, 0.0], [2.0, 2.0]])
        ref = np.array([[0.0, 2.0], [2.0, 0.0]])
        out = render_plane(path, reference_path=ref)
        assert "o" in out

    def test_rejects_1d_path(self):
        with pytest.raises(ValueError):
            render_plane(np.zeros((3, 1)))

    def test_degenerate_scene(self):
        out = render_plane(np.zeros((2, 2)))
        assert "S" in out or "E" in out


class TestRenderLineChart:
    def test_two_series_with_legend(self):
        out = render_line_chart({"a": np.arange(10.0), "b": np.ones(10)}, title="t")
        assert "*=a" in out and "o=b" in out and "t" in out

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            render_line_chart({})
        with pytest.raises(ValueError):
            render_line_chart({"a": np.array([])})


class TestPersistence:
    def _instance(self):
        seq = RequestSequence([np.array([[1.0, 2.0]]), np.empty((0, 2)),
                               np.array([[0.0, 0.0], [3.0, 1.0]])], dim=2)
        return MSPInstance(seq, start=np.array([0.5, 0.5]), D=2.0, m=0.75,
                           cost_model=CostModel.ANSWER_FIRST, name="rt")

    def test_instance_roundtrip_exact(self, tmp_path):
        inst = self._instance()
        p = save_instance(inst, tmp_path / "inst")
        back = load_instance(p)
        assert back.D == inst.D and back.m == inst.m
        assert back.cost_model is CostModel.ANSWER_FIRST
        assert back.name == "rt"
        np.testing.assert_array_equal(back.start, inst.start)
        assert back.requests.counts.tolist() == [1, 0, 2]
        for t in range(3):
            np.testing.assert_array_equal(back.requests[t].points,
                                          inst.requests[t].points)

    def test_trace_roundtrip_exact(self, tmp_path, line_instance):
        tr = simulate(line_instance, MoveToCenter(), delta=0.5)
        p = save_trace(tr, tmp_path / "trace")
        back = load_trace(p)
        assert back.algorithm == tr.algorithm
        np.testing.assert_array_equal(back.positions, tr.positions)
        assert back.total_cost == tr.total_cost

    def test_costs_replay_identically_after_roundtrip(self, tmp_path, line_instance):
        from repro.core import replay_cost

        tr = simulate(line_instance, MoveToCenter(), delta=0.5)
        pi = save_instance(line_instance, tmp_path / "i")
        inst2 = load_instance(pi)
        rp = replay_cost(inst2, tr.positions)
        assert rp.total_cost == pytest.approx(tr.total_cost, rel=0, abs=0)

    def test_kind_mismatch_rejected(self, tmp_path, line_instance):
        p = save_instance(line_instance, tmp_path / "x")
        with pytest.raises(ValueError, match="trace"):
            load_trace(p)

    def test_suffix_appended(self, tmp_path, line_instance):
        p = save_instance(line_instance, tmp_path / "noext")
        assert p.suffix == ".npz"


class TestCurves:
    def test_ratio_curve_flattens_for_mtc(self, line_instance):
        tr = simulate(line_instance, MoveToCenter(), delta=0.5)
        dp = solve_line(line_instance)
        curve = ratio_curve(line_instance, tr, dp.positions)
        assert curve.shape == (line_instance.length,)
        assert np.isnan(curve[0])
        tail = curve[~np.isnan(curve)][-10:]
        assert tail.max() - tail.min() < 1.0  # settled

    def test_ratio_curve_final_matches_total_ratio(self, line_instance):
        tr = simulate(line_instance, MoveToCenter(), delta=0.5)
        dp = solve_line(line_instance)
        curve = ratio_curve(line_instance, tr, dp.positions)
        from repro.core import replay_cost

        expected = tr.total_cost / replay_cost(line_instance, dp.positions).total_cost
        assert curve[-1] == pytest.approx(expected)

    def test_separation_curve(self, line_instance):
        tr = simulate(line_instance, StaticServer(), delta=0.0)
        sep = separation_curve(tr, tr.positions)
        np.testing.assert_allclose(sep, 0.0)

    def test_separation_shape_mismatch(self, line_instance):
        tr = simulate(line_instance, StaticServer(), delta=0.0)
        with pytest.raises(ValueError):
            separation_curve(tr, np.zeros((3, 1)))
