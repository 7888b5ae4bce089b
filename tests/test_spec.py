"""Tests for the declarative ``ExperimentSpec`` layer and reducer registry.

Synthetic cell functions live at module level so orchestrator workers can
import them by dotted path.
"""

import pytest

from repro.api import (
    CellSpec,
    ExperimentSpec,
    Reduction,
    Scenario,
    available_reducers,
    cell_grid,
    reduce_cells,
    reducer_info,
    register_reducer,
)
from repro.core.store import ResultsStore

_MODULE = "test_spec"


def cell_square(x: int, offset: int) -> dict:
    return {"y": x * x + offset, "ok": x < 10}


class TestReducerRegistry:
    def test_generic_reducers_registered(self):
        names = available_reducers()
        for name in ("table", "ratio-curve", "bootstrap-ci", "regression-fit",
                     "potential-trace"):
            assert name in names

    def test_experiment_reducers_registered(self):
        import repro.experiments  # noqa: F401  (registers e9..e16 reducers)

        names = available_reducers()
        for name in ("e9/lemma6", "e11/potential", "e14/multi-agent",
                     "e15/k-server", "e16/facility"):
            assert name in names

    def test_duplicate_name_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_reducer("table")(lambda *a, **k: Reduction([]))

    def test_unknown_name_lists_available(self):
        with pytest.raises(KeyError, match="unknown reducer"):
            reducer_info("no-such-reducer")

    def test_reducer_must_return_reduction(self):
        register_reducer("test-spec/bad")(lambda cells, **k: [1, 2])
        with pytest.raises(TypeError, match="must return a Reduction"):
            reduce_cells("test-spec/bad", {}, points=[])


class TestGenericReducers:
    CELLS = {"c/1": {"v": 1.0, "flag": True}, "c/2": {"v": 3.0, "flag": True},
             "c/3": {"v": 5.0, "flag": False}}
    POINTS = [("c/1", {"x": 1}), ("c/2", {"x": 1}), ("c/3", {"x": 2})]

    def test_table(self):
        red = reduce_cells("table", self.CELLS, points=self.POINTS,
                           config={"columns": ["v"], "ok": "flag", "notes": ["n1"]})
        assert red.rows == [[1, 1.0], [1, 3.0], [2, 5.0]]
        assert red.notes == ["n1"] and red.passed is False

    def test_ratio_curve_groups_and_bounds(self):
        red = reduce_cells("ratio-curve", self.CELLS, points=self.POINTS,
                           config={"x": "x", "value": "v", "bound": 4.0})
        assert red.rows == [[1, 2.0], [2, 5.0]]
        assert red.passed is False  # 5.0 > 4.0
        red_ok = reduce_cells("ratio-curve", self.CELLS, points=self.POINTS,
                              config={"x": "x", "value": "v", "bound": 6.0})
        assert red_ok.passed is True

    def test_bootstrap_ci_rows_and_determinism(self):
        red = reduce_cells("bootstrap-ci", self.CELLS, points=self.POINTS,
                           config={"x": "x", "value": "v"}, seed=3)
        assert [row[0] for row in red.rows] == [1, 2]
        x1, mean1, lo1, hi1 = red.rows[0]
        assert mean1 == 2.0 and lo1 <= mean1 <= hi1
        # A single-sample group collapses to a degenerate interval.
        x2, mean2, lo2, hi2 = red.rows[1]
        assert lo2 == mean2 == hi2 == 5.0
        assert any("bootstrap CI" in note for note in red.notes)
        again = reduce_cells("bootstrap-ci", self.CELLS, points=self.POINTS,
                             config={"x": "x", "value": "v"}, seed=3)
        assert again.rows == red.rows  # seeded resampling is deterministic

    def test_bootstrap_ci_bound_criterion(self):
        config = {"x": "x", "value": "v", "bound": 4.0}
        red = reduce_cells("bootstrap-ci", self.CELLS, points=self.POINTS,
                           config=config)
        assert red.passed is False  # the x=2 group's upper end is 5.0
        assert any("criterion" in note for note in red.notes)
        red_ok = reduce_cells("bootstrap-ci", self.CELLS, points=self.POINTS,
                              config={"x": "x", "value": "v", "bound": 6.0})
        assert red_ok.passed is True

    def test_regression_fit(self):
        cells = {f"c/{x}": {"v": 2.0 * x**1.5} for x in (1, 2, 4, 8)}
        points = [(f"c/{x}", {"x": x}) for x in (1, 2, 4, 8)]
        red = reduce_cells("regression-fit", cells, points=points,
                           config={"x": "x", "value": "v",
                                   "exponent_range": [1.4, 1.6]})
        assert red.passed is True
        assert any("~ x^1.5" in note for note in red.notes)

    def test_potential_trace(self):
        cells = {"p/1": {"max_k": 2.0, "q95": 1.5, "violations": 0, "amort": 1.1},
                 "p/2": {"max_k": 3.0, "q95": 2.5, "violations": 2, "amort": 1.3}}
        points = [("p/1", {"delta": 1.0}), ("p/2", {"delta": 0.5})]
        red = reduce_cells("potential-trace", cells, points=points)
        assert red.rows == [[1.0, 2.0, 1.5, 0, 1.1], [0.5, 3.0, 2.5, 2, 1.3]]
        assert red.passed is False


class TestCellGrid:
    def test_expansion_merges_common_and_derive(self):
        cells = cell_grid(f"{_MODULE}:cell_square",
                          axes={"x": [1, 2]}, common={"offset": 5},
                          derive={"double": lambda p: 2 * p["x"]})
        assert [c.key for c in cells] == ["cell/x=1", "cell/x=2"]
        assert dict(cells[0].params) == {"x": 1, "offset": 5, "double": 2}
        assert dict(cells[0].point) == {"x": 1}

    def test_point_preserves_axis_order(self):
        cells = cell_grid("m:f", axes={"z": [1], "a": [2]})
        assert list(dict(cells[0].point)) == ["z", "a"]

    def test_derive_collision_rejected(self):
        with pytest.raises(ValueError, match="collides"):
            cell_grid("m:f", axes={"x": [1]}, derive={"x": lambda p: 1})

    def test_cell_round_trip(self):
        cell = cell_grid("m:f", axes={"x": [3]}, common={"o": 1})[0]
        assert CellSpec.from_dict(cell.to_dict()) == cell


def _synthetic_spec(offset: int = 5) -> ExperimentSpec:
    return ExperimentSpec(
        experiment_id="EX",
        title="synthetic squares",
        headers=["x", "y"],
        reducer="table",
        cells=cell_grid(f"{_MODULE}:cell_square", axes={"x": [1, 2, 3]},
                        common={"offset": offset}),
        config={"columns": ["y"], "ok": "ok", "notes": ["criterion: synthetic"]},
    )


class TestExperimentSpec:
    def test_validation(self):
        with pytest.raises(ValueError, match="grid or function cells"):
            ExperimentSpec("EX", "t", ["a"], reducer="table")
        with pytest.raises(KeyError, match="unknown reducer"):
            ExperimentSpec("EX", "t", ["a"], reducer="no-such",
                           cells=cell_grid("m:f", axes={"x": [1]}))

    def test_run_produces_result(self):
        res = _synthetic_spec().run()
        assert res.experiment_id == "EX"
        assert res.rows == [[1, 6], [2, 9], [3, 14]]
        assert res.headers == ["x", "y"] and res.passed

    def test_run_caches_through_store(self, tmp_path):
        from repro.experiments.orchestrator import execute

        store = ResultsStore(tmp_path / "store")
        spec = _synthetic_spec()
        r1 = execute([spec.to_sweep()], store=store)
        r2 = execute([spec.to_sweep()], store=store)
        assert (r1.computed, r1.cached) == (3, 0)
        assert (r2.computed, r2.cached) == (0, 3)
        assert r1.results[0].render() == r2.results[0].render()

    def test_config_change_is_address_neutral_but_rows_change(self, tmp_path):
        """The reducer runs at finalize time: cells cache across configs."""
        from repro.experiments.orchestrator import execute

        store = ResultsStore(tmp_path / "store")
        execute([_synthetic_spec().to_sweep()], store=store)
        spec2 = _synthetic_spec()
        spec2 = ExperimentSpec.from_dict({**spec2.to_dict(),
                                          "config": {"columns": ["y"], "ok": "ok",
                                                     "notes": ["other note"]}})
        report = execute([spec2.to_sweep()], store=store)
        assert report.computed == 0  # same cells, pure cache hits
        assert report.results[0].notes == ["other note"]

    def test_round_trip(self):
        spec = _synthetic_spec()
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec

    def test_scenario_grid_spec(self, tmp_path):
        """A spec whose cells are a Scenario.grid runs end to end."""
        grid = Scenario.grid("drift", "mtc",
                             params={"T": 30, "dim": 1, "D": 2.0, "m": 1.0},
                             delta=[0.25, 0.5], seeds=(0, 1), ratio="bracket")
        spec = ExperimentSpec(
            experiment_id="EX2", title="grid spec",
            headers=["delta", "mean cost", "ratio >=", "ratio <="],
            reducer="scenario-table",
            grid=grid,
            config={"max_ratio": 100.0},
        )
        res = spec.run(store=ResultsStore(tmp_path / "store"))
        assert [row[0] for row in res.rows] == [0.25, 0.5]
        assert all(len(row) == 4 for row in res.rows)
        assert res.passed
        # the certified upper bound populated from the bracket measurements
        assert all(isinstance(row[3], float) for row in res.rows)

    def test_scenario_table_ratio_ceiling_fails(self, tmp_path):
        grid = Scenario.grid("drift", "mtc",
                             params={"T": 30, "dim": 1, "D": 2.0, "m": 1.0},
                             seeds=(0,), ratio="bracket")
        spec = ExperimentSpec(
            experiment_id="EX3", title="ceiling", headers=["cost", "r>=", "r<="],
            reducer="scenario-table", grid=grid,
            config={"max_ratio": 1e-9},
        )
        res = spec.run(store=ResultsStore(tmp_path / "store"))
        assert not res.passed
        assert any("criterion" in n for n in res.notes)


class TestMigratedExperimentSpecs:
    """E9–E16 are declared via ExperimentSpec / orchestrator specs."""

    @pytest.mark.parametrize("module, eid", [
        ("e9_lemma6", "E9"), ("e10_lemma5", "E10"), ("e11_potential", "E11"),
        ("e14_multi_agent", "E14"), ("e15_multi_server", "E15"),
        ("e16_facility", "E16"),
    ])
    def test_spec_declared_and_lowered(self, module, eid):
        import importlib

        mod = importlib.import_module(f"repro.experiments.{module}")
        spec = mod.spec(0.1, 0)
        assert isinstance(spec, ExperimentSpec)
        assert spec.experiment_id == eid
        sweep = mod.build_spec(0.1, 0)
        assert sweep.experiment_id == eid and len(sweep.units) > 1
