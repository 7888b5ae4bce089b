"""Tests for the one experiment form: ``build_spec`` + module ``finalize``.

Synthetic cell and finalize functions live at module level so
orchestrator workers can import them by dotted path.
"""

import importlib
import json
from pathlib import Path

import pytest

from repro.api import reduce_cells
from repro.core.store import ResultsStore
from repro.experiments import SPECS
from repro.experiments.orchestrator import (
    SweepSpec,
    WorkUnit,
    _toposort,
    execute,
    unit_digests,
)
from repro.experiments.runner import ExperimentResult

_MODULE = "test_spec"
DIGESTS = Path(__file__).parent / "data" / "experiment_unit_digests.json"


def cell_square(x: int, offset: int) -> dict:
    return {"y": x * x + offset, "ok": x < 10}


def _finalize(results, note: str) -> ExperimentResult:
    points = [(f"cell/x={x}", {"x": x}) for x in (1, 2, 3)]
    return ExperimentResult(
        experiment_id="EX", title="synthetic squares", headers=["x", "y"],
        rows=reduce_cells(results, points, ["y"]), notes=[note],
        passed=all(results[key]["ok"] for key, _ in points),
    )


def finalize_first(results, scale: float, seed: int) -> ExperimentResult:
    return _finalize(results, "first note")


def finalize_second(results, scale: float, seed: int) -> ExperimentResult:
    return _finalize(results, "second note")


def _synthetic_spec(finalize: str = "finalize_first") -> SweepSpec:
    units = tuple(WorkUnit(f"cell/x={x}", f"{_MODULE}:cell_square", {"x": x, "offset": 5})
                  for x in (1, 2, 3))
    return SweepSpec("EX", units, finalize=f"{_MODULE}:{finalize}")


class TestReduceCells:
    def test_rows_are_coordinates_then_fields(self):
        cells = {"c/1": {"v": 1.0, "w": 2}, "c/2": {"v": 3.0, "w": 4}}
        points = [("c/2", {"x": 2, "z": "b"}), ("c/1", {"x": 1, "z": "a"})]
        assert reduce_cells(cells, points, ["w", "v"]) == [[2, "b", 4, 3.0],
                                                           [1, "a", 2, 1.0]]


class TestSyntheticSweep:
    def test_finalize_builds_the_table(self):
        res = execute([_synthetic_spec()]).results[0]
        assert res.rows == [[1, 6], [2, 9], [3, 14]]
        assert res.headers == ["x", "y"] and res.notes == ["first note"] and res.passed

    def test_finalize_only_change_keeps_cell_addresses(self, tmp_path):
        """Finalize runs after the cells: swapping it reuses every cached cell."""
        store = ResultsStore(tmp_path / "store")
        first = execute([_synthetic_spec("finalize_first")], store=store)
        second = execute([_synthetic_spec("finalize_second")], store=store)
        assert (first.computed, second.computed, second.cached) == (3, 0, 3)
        assert second.results[0].rows == first.results[0].rows
        assert second.results[0].notes == ["second note"]


_CONVERTED = [
    ("e9_lemma6", "E9"), ("e10_lemma5", "E10"), ("e11_potential", "E11"),
    ("e14_multi_agent", "E14"), ("e15_multi_server", "E15"), ("e16_facility", "E16"),
]


class TestExperimentSweeps:
    """E9–E11 and E14–E16 are declared like every other experiment."""

    @pytest.mark.parametrize("module, eid", _CONVERTED)
    def test_build_spec_is_a_function_cell_sweep(self, module, eid):
        path = f"repro.experiments.{module}"
        mod = importlib.import_module(path)
        spec = mod.build_spec(0.1, 0)
        assert SPECS[eid] is mod.build_spec
        assert spec.experiment_id == eid and len(spec.units) > 1
        assert spec.finalize == f"{path}:finalize" and callable(mod.finalize)
        assert len({unit.key for unit in spec.units}) == len(spec.units)
        for unit in spec.units:
            owner, name = unit.fn.split(":")
            assert owner == path and callable(getattr(mod, name))


class TestPinnedAddresses:
    """Every experiment's cells keep the store addresses they were filed under.

    ``experiment_unit_digests.json`` holds, per experiment at scale 0.15
    and seed 1, the digest :func:`execute` stores each non-ephemeral unit
    under.  A change to a unit's key, function path or parameters moves
    its address and orphans every cached cell; this catches it.
    """

    @pytest.mark.parametrize("eid", list(SPECS))
    def test_unit_digests_match_the_pinned_capture(self, eid):
        spec = SPECS[eid](0.15, 1)
        flat = [(f"{eid}/{unit.key}", unit) for unit in spec.units]
        digests = unit_digests(_toposort(flat))
        got = {full.split("/", 1)[1]: digests[full]
               for full, unit in flat if not unit.ephemeral}
        assert got == json.loads(DIGESTS.read_text())[eid]
