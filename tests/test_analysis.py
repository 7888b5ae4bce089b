"""Tests for the analysis package (ratio, potential, lemma6, regression, stats, tables)."""

import numpy as np
import pytest

from repro.algorithms import MoveToCenter, StaticServer
from repro.analysis import (
    bootstrap_ci,
    collapse_to_centers,
    figure2_worst_case,
    fit_linear,
    fit_power_law,
    RatioMeasurement,
    measure_ratio,
    potential_value,
    render_table,
    sample_lemma6,
    summarize,
    to_csv,
    verify_potential_argument,
)
from repro.api import Scenario, run
from repro.api.runtime import build_instances
from repro.core import MSPInstance, RequestSequence, simulate
from repro.offline import bracket_optimum, solve_line
from repro.offline.bounds import OptBracket


class TestMeasureRatio:
    def test_certified_interval_contains_point_estimate(self, line_instance):
        meas = measure_ratio(line_instance, MoveToCenter(), delta=0.5)
        assert meas.ratio_lower <= meas.ratio <= meas.ratio_upper

    def test_ratio_lower_at_least_one_for_exact_opt(self, line_instance):
        """No algorithm beats a valid lower bound on OPT by more than eps."""
        meas = measure_ratio(line_instance, MoveToCenter(), delta=0.5)
        assert meas.ratio_upper >= 1.0 - 1e-6

    def test_explicit_bracket_reused(self, line_instance):
        from repro.offline import bracket_optimum

        br = bracket_optimum(line_instance)
        meas = measure_ratio(line_instance, StaticServer(), bracket=br)
        assert meas.opt_lower == br.lower and meas.opt_upper == br.upper

    def test_static_worse_than_mtc_on_drift(self):
        pts = np.cumsum(np.full((80, 1, 1), 0.8), axis=0)
        inst = MSPInstance(RequestSequence.from_packed(pts), start=np.zeros(1),
                           D=2.0, m=1.0)
        m_static = measure_ratio(inst, StaticServer(), delta=0.5)
        m_mtc = measure_ratio(inst, MoveToCenter(), delta=0.5)
        assert m_static.ratio_upper > m_mtc.ratio_upper


class TestCertify:
    def test_divides_cost_by_bracket_ends(self):
        br = OptBracket(lower=2.0, upper=4.0, method="convex", positions=np.zeros((1, 1)),
                        gap=0.5, converged=False, iterations=7)
        meas = RatioMeasurement.certify(8, br, "mtc")
        assert meas == RatioMeasurement(cost=8.0, opt_lower=2.0, opt_upper=4.0,
                                        ratio_lower=2.0, ratio_upper=4.0, opt_gap=0.5,
                                        opt_converged=False, algorithm="mtc")
        assert isinstance(meas.cost, float)

    def test_zero_lower_bound_stays_finite(self):
        br = OptBracket.exact(lower=0.0, upper=1.0, method="dp-line", positions=np.zeros((1, 1)))
        meas = RatioMeasurement.certify(1.0, br)
        assert np.isfinite(meas.ratio_upper) and meas.ratio_upper > 1e299
        assert meas.ratio_lower == 1.0

    def test_scenario_run_matches_measure_ratio(self):
        """Both callers of ``certify`` give the same per-seed interval."""
        scenario = Scenario.workload("random-walk", "mtc", params={"T": 24},
                                     seeds=[1, 2, 3], delta=0.5, ratio="bracket")
        result = run(scenario)
        instances, _ = build_instances(scenario)
        for inst, got in zip(instances, result.measurements, strict=True):
            want = measure_ratio(inst, MoveToCenter(), delta=0.5, bracket=bracket_optimum(inst))
            assert (got.cost, got.opt_lower, got.opt_upper, got.ratio_lower, got.ratio_upper) == (
                want.cost, want.opt_lower, want.opt_upper, want.ratio_lower, want.ratio_upper)


class TestAdversarialRatio:
    def test_mean_and_per_seed(self):
        result = run(Scenario.adversary("thm1", "mtc", params={"T": 64}, seeds=[1, 2, 3]))
        assert result.ratios.shape == (3,)
        assert result.mean_ratio == pytest.approx(result.ratios.mean())


class TestCollapseToCenters:
    def test_collapsed_batches_are_singleton_valued(self, plane_instance):
        coll = collapse_to_centers(plane_instance)
        assert coll.length == plane_instance.length
        for t in range(coll.length):
            pts = coll.requests[t].points
            assert pts.shape == plane_instance.requests[t].points.shape
            # All rows identical.
            assert np.allclose(pts, pts[0])

    def test_preserves_empty_steps(self):
        seq = RequestSequence([np.empty((0, 1)), np.ones((2, 1))], dim=1)
        inst = MSPInstance(seq, start=np.zeros(1))
        coll = collapse_to_centers(inst)
        assert coll.requests[0].count == 0
        assert coll.requests[1].count == 2


class TestPotential:
    def test_potential_continuity_at_threshold(self):
        """The two branches agree at the switching distance."""
        r, D, delta, m = 4, 2.0, 0.5, 1.0
        threshold = delta * D * m / (4 * r)
        lo = potential_value(threshold, r, D, delta, m)
        hi = potential_value(threshold * (1 + 1e-9), r, D, delta, m)
        assert hi == pytest.approx(lo, rel=1e-6)

    def test_zero_distance_zero_potential(self):
        assert potential_value(0.0, 3, 2.0, 0.5, 1.0) == 0.0

    def test_requires_positive_delta(self):
        with pytest.raises(ValueError):
            potential_value(1.0, 1, 1.0, 0.0, 1.0)

    def test_verify_on_collapsed_instance(self):
        pts = np.cumsum(np.full((60, 1, 1), 0.6), axis=0)
        pts = np.repeat(pts, 3, axis=1)  # 3 co-located requests
        inst = MSPInstance(RequestSequence.from_packed(pts), start=np.zeros(1),
                           D=2.0, m=1.0)
        delta = 0.5
        tr = simulate(inst, MoveToCenter(), delta=delta)
        dp = solve_line(inst)
        rep = verify_potential_argument(inst, tr, dp.positions, delta)
        assert not rep.violations
        assert rep.max_k < 100.0
        assert len(rep.records) == 60

    def test_case_labels_partition(self):
        pts = np.cumsum(np.full((40, 1, 1), 0.6), axis=0)
        inst = MSPInstance(RequestSequence.from_packed(pts), start=np.zeros(1),
                           D=2.0, m=1.0)
        tr = simulate(inst, MoveToCenter(), delta=0.5)
        dp = solve_line(inst)
        rep = verify_potential_argument(inst, tr, dp.positions, 0.5)
        valid = {"1:both-small", "2:p-large-q-small", "3:fast-approach", "4:far", "5:near"}
        assert {r.case for r in rep.records} <= valid

    def test_length_mismatch_rejected(self, line_instance):
        tr = simulate(line_instance, MoveToCenter(), delta=0.5)
        with pytest.raises(ValueError, match="positions"):
            verify_potential_argument(line_instance, tr, np.zeros((3, 1)), 0.5)


class TestLemma6:
    def test_acute_mode_zero_violations(self):
        rep = sample_lemma6(0.25, n_samples=2000, dim=2, acute_only=True,
                            rng=np.random.default_rng(0))
        assert rep.violations == 0

    def test_repaired_mode_zero_violations(self):
        rep = sample_lemma6(0.25, n_samples=2000, dim=2, premise="repaired",
                            rng=np.random.default_rng(0))
        assert rep.violations == 0

    def test_figure2_slack_positive_and_shrinking(self):
        s1 = figure2_worst_case(1.0).slack
        s2 = figure2_worst_case(0.0625).slack
        assert s1 > s2 > 0.0

    def test_invalid_delta(self):
        with pytest.raises(ValueError):
            sample_lemma6(0.0, n_samples=10)

    def test_invalid_premise(self):
        with pytest.raises(ValueError):
            sample_lemma6(0.5, n_samples=10, premise="bogus")

    def test_1d_embedding(self):
        rep = sample_lemma6(0.5, n_samples=500, dim=1, rng=np.random.default_rng(1))
        assert rep.n_checked == 500


class TestRegression:
    def test_power_law_recovers_exponent(self):
        x = np.array([1.0, 2.0, 4.0, 8.0])
        y = 3.0 * x ** 0.5
        fit = fit_power_law(x, y)
        assert fit.exponent == pytest.approx(0.5)
        assert fit.prefactor == pytest.approx(3.0)
        assert fit.r_squared == pytest.approx(1.0)

    def test_linear_recovers_slope(self):
        x = np.arange(5, dtype=float)
        y = 2.0 * x + 1.0
        fit = fit_linear(x, y)
        assert fit.slope == pytest.approx(2.0)
        assert fit.intercept == pytest.approx(1.0)

    def test_power_law_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            fit_power_law(np.array([1.0, -1.0]), np.array([1.0, 1.0]))

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            fit_linear(np.array([1.0]), np.array([1.0]))


class TestStats:
    def test_summarize(self):
        s = summarize(np.array([1.0, 2.0, 3.0]))
        assert s.n == 3 and s.mean == 2.0 and s.median == 2.0
        assert s.minimum == 1.0 and s.maximum == 3.0

    def test_summarize_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize(np.array([]))

    def test_bootstrap_ci_contains_mean(self):
        data = np.random.default_rng(0).normal(loc=5.0, size=200)
        lo, hi = bootstrap_ci(data, rng=np.random.default_rng(1))
        assert lo <= data.mean() <= hi

    def test_bootstrap_validation(self):
        with pytest.raises(ValueError):
            bootstrap_ci(np.array([]))
        with pytest.raises(ValueError):
            bootstrap_ci(np.ones(3), confidence=1.5)


class TestTables:
    def test_render_basic(self):
        txt = render_table(["a", "b"], [[1, 2.5], [3, 4.0]], title="T")
        lines = txt.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "b" in lines[1]
        assert len(lines) == 5

    def test_row_length_mismatch(self):
        with pytest.raises(ValueError):
            render_table(["a"], [[1, 2]])

    def test_float_formatting(self):
        txt = render_table(["x"], [[1234567.0]])
        assert "e" in txt.lower()  # scientific for huge values

    def test_nan_rendering(self):
        assert "nan" in render_table(["x"], [[float("nan")]])

    def test_csv(self):
        csv = to_csv(["a", "b"], [[1, 2]])
        assert csv.splitlines() == ["a,b", "1,2"]
