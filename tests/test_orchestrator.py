"""Tests for the declarative experiment orchestrator.

Synthetic cell functions live at module level so the orchestrator can
resolve them by dotted path (and worker processes can import them); they
drop marker files so the tests can count real executions vs cache hits.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.core.store import ResultsStore
from repro.experiments import EXPERIMENTS, SPECS, build_specs, run_all, run_all_detailed
from repro.experiments.orchestrator import (
    SweepSpec,
    WorkUnit,
    execute,
    execute_spec,
)
from repro.experiments.runner import ExperimentResult, sweep_seeds

_MODULE = "test_orchestrator"


def _mark(workdir: str, name: str) -> None:
    Path(workdir, name.replace("/", "_")).touch()


def cell_base(value: float, workdir: str) -> dict:
    _mark(workdir, f"base-{value}")
    return {"value": value, "arr": np.arange(3) * value}


def cell_double(key: str, workdir: str, deps: dict) -> dict:
    _mark(workdir, f"double-{key}")
    return {"value": 2 * deps[key]["value"]}


def finalize_sum(results: dict, scale: float, seed: int) -> ExperimentResult:
    total = sum(v["value"] for k, v in results.items() if k.startswith("double/"))
    return ExperimentResult("EX", "synthetic", ["total"], [[total]],
                            notes=["criterion: synthetic"], passed=True)


def cell_soft_source(value: float, workdir: str) -> dict:
    _mark(workdir, f"softsrc-{value}")
    return {"value": value}


def cell_soft_consumer(value: float, workdir: str, deps: dict | None = None) -> dict:
    """Same payload with or without the soft dep — the soft-dep contract."""
    _mark(workdir, f"softcons-{value}")
    base = deps["src"]["value"] if deps else value
    return {"value": 10 * base}


def finalize_first(results: dict, scale: float, seed: int) -> ExperimentResult:
    value = next(iter(results.values()))["value"]
    return ExperimentResult("EX", "soft", ["v"], [[value]], notes=["n"], passed=True)


def _spec(workdir: str, values=(1.0, 2.0, 3.0)) -> SweepSpec:
    units = []
    for v in values:
        units.append(WorkUnit(f"base/{v}", f"{_MODULE}:cell_base",
                              {"value": v, "workdir": workdir}))
        units.append(WorkUnit(f"double/{v}", f"{_MODULE}:cell_double",
                              {"key": f"base/{v}", "workdir": workdir},
                              deps=(f"base/{v}",)))
    return SweepSpec("EX", tuple(units), f"{_MODULE}:finalize_sum")


class TestExecuteInline:
    def test_deps_flow_and_finalize(self, tmp_path):
        result = execute_spec(_spec(str(tmp_path)))
        assert result.rows == [[2.0 * (1 + 2 + 3)]]
        assert len(list(tmp_path.iterdir())) == 6

    def test_unknown_dep_rejected(self):
        spec = SweepSpec("EX", (WorkUnit("a", f"{_MODULE}:cell_base", {"value": 1, "workdir": "."},
                                         deps=("missing",)),), f"{_MODULE}:finalize_sum")
        with pytest.raises(KeyError, match="unknown unit"):
            execute([spec])

    def test_duplicate_keys_rejected(self):
        unit = WorkUnit("a", f"{_MODULE}:cell_base", {"value": 1, "workdir": "."})
        spec = SweepSpec("EX", (unit, unit), f"{_MODULE}:finalize_sum")
        with pytest.raises(ValueError, match="duplicate"):
            execute([spec])

    def test_cycle_rejected(self):
        units = (
            WorkUnit("a", f"{_MODULE}:cell_double", {"key": "b", "workdir": "."}, deps=("b",)),
            WorkUnit("b", f"{_MODULE}:cell_double", {"key": "a", "workdir": "."}, deps=("a",)),
        )
        with pytest.raises(ValueError, match="cycle"):
            execute([SweepSpec("EX", units, f"{_MODULE}:finalize_sum")])


class TestStoreCaching:
    def test_cache_hit_skips_recompute(self, tmp_path):
        work = tmp_path / "work"
        work.mkdir()
        store = ResultsStore(tmp_path / "store")
        report1 = execute([_spec(str(work))], store=store)
        assert (report1.cached, report1.computed) == (0, 6)
        n_markers = len(list(work.iterdir()))

        report2 = execute([_spec(str(work))], store=store)
        assert (report2.cached, report2.computed) == (6, 0)
        assert len(list(work.iterdir())) == n_markers  # nothing re-ran
        assert report2.results[0].render() == report1.results[0].render()

    def test_param_change_is_cache_miss(self, tmp_path):
        work = tmp_path / "work"
        work.mkdir()
        store = ResultsStore(tmp_path / "store")
        execute([_spec(str(work), values=(1.0,))], store=store)
        report = execute([_spec(str(work), values=(4.0,))], store=store)
        assert report.cached == 0 and report.computed == 2

    def test_resume_after_partial_run(self, tmp_path):
        """Simulate an interrupted grid: drop some cells, re-execute."""
        work = tmp_path / "work"
        work.mkdir()
        store = ResultsStore(tmp_path / "store")
        execute([_spec(str(work))], store=store)

        # "Interrupt": remove two of the six persisted cells.
        entries = sorted(store.root.glob("*.npz"))
        for path in entries[:2]:
            path.unlink()

        for marker in work.iterdir():
            marker.unlink()
        report = execute([_spec(str(work))], store=store)
        assert report.computed == 2 and report.cached == 4
        assert len(list(work.iterdir())) == 2  # only the missing cells re-ran

    def test_fresh_store_with_in_run_twins_reports_no_hits(self, tmp_path):
        """E8's T=200/T=400 cells coincide at small scale: the twin is
        computed once and reported as computed, never as cached."""
        (spec,) = build_specs(["E8"], scale=0.1, seed=0)
        report = execute([spec], store=ResultsStore(tmp_path / "store"))
        assert report.cached == 0
        assert report.computed + report.skipped == len(spec.units)
        assert len(report.timings) == report.computed

    def test_pooled_run_many_flags_only_store_hits(self, tmp_path):
        from repro.api import Scenario, run_many

        sc = Scenario.workload("drift", "mtc", params={"T": 12, "dim": 1}, seeds=[0, 1])
        store = ResultsStore(tmp_path / "store")
        first = run_many([sc, sc.with_(name="twin")], store=store, jobs=2)
        assert [r.cached for r in first] == [False, False]
        again = run_many([sc, sc.with_(name="twin")], store=store, jobs=2)
        assert [r.cached for r in again] == [True, True]

    def test_rerun_recomputes_everything(self, tmp_path):
        work = tmp_path / "work"
        work.mkdir()
        store = ResultsStore(tmp_path / "store")
        execute([_spec(str(work))], store=store)
        report = execute([_spec(str(work))], store=store, rerun=True)
        assert report.cached == 0 and report.computed == 6


class TestParallelExecution:
    def test_jobs2_synthetic_identical(self, tmp_path):
        work1 = tmp_path / "w1"
        work1.mkdir()
        work2 = tmp_path / "w2"
        work2.mkdir()
        r1 = execute([_spec(str(work1))], jobs=1)
        r2 = execute([_spec(str(work2))], jobs=2)
        assert r1.results[0].render() == r2.results[0].render()

    def test_jobs2_experiment_identical_and_store_parity(self, tmp_path):
        """E4 through 2 worker processes == E4 inline, cell for cell."""
        store1 = ResultsStore(tmp_path / "s1")
        store2 = ResultsStore(tmp_path / "s2")
        r1 = run_all_detailed(["E4"], scale=0.1, seed=3, jobs=1, store=store1)
        r2 = run_all_detailed(["E4"], scale=0.1, seed=3, jobs=2, store=store2)
        assert r1.results[0].render() == r2.results[0].render()
        # identical content addresses and identical stored bytes-level payloads
        assert sorted(p.name for p in store1.root.glob("*.npz")) == \
               sorted(p.name for p in store2.root.glob("*.npz"))


class TestSoftDeps:
    def _soft_spec(self, workdir: str, with_dep: bool) -> SweepSpec:
        units = []
        consumer_kwargs = {}
        if with_dep:
            units.append(WorkUnit("src", f"{_MODULE}:cell_soft_source",
                                  {"value": 7.0, "workdir": workdir}, ephemeral=True))
            consumer_kwargs["soft_deps"] = ("src",)
        units.append(WorkUnit("consume", f"{_MODULE}:cell_soft_consumer",
                              {"value": 7.0, "workdir": workdir}, **consumer_kwargs))
        return SweepSpec("EX", tuple(units), f"{_MODULE}:finalize_first")

    def test_soft_dep_payload_delivered(self, tmp_path):
        report = execute([self._soft_spec(str(tmp_path), with_dep=True)])
        assert report.results[0].rows == [[70.0]]
        assert (tmp_path / "softsrc-7.0").exists()

    def test_soft_deps_do_not_change_the_address(self, tmp_path):
        """A cell computed with a soft dep is a cache hit for one without."""
        store = ResultsStore(tmp_path / "store")
        execute([self._soft_spec(str(tmp_path), with_dep=True)], store=store)
        report = execute([self._soft_spec(str(tmp_path), with_dep=False)], store=store)
        assert (report.computed, report.cached) == (0, 1)

    def test_ephemeral_excluded_from_finalize(self, tmp_path):
        report = execute([self._soft_spec(str(tmp_path), with_dep=True)])
        # finalize_first saw only the consumer (rows came out of its payload)
        assert report.results[0].rows == [[70.0]]

    def test_ephemeral_skipped_when_consumers_cached(self, tmp_path):
        """A warm sweep must not re-derive shared ephemeral cells."""
        store = ResultsStore(tmp_path / "store")
        # Seed the store through the dep-free variant: only the consumer lands.
        execute([self._soft_spec(str(tmp_path), with_dep=False)], store=store)
        (tmp_path / "softcons-7.0").unlink()
        report = execute([self._soft_spec(str(tmp_path), with_dep=True)], store=store)
        assert (report.computed, report.cached, report.skipped) == (0, 1, 1)
        assert not (tmp_path / "softsrc-7.0").exists()
        assert not (tmp_path / "softcons-7.0").exists()

    def test_soft_dep_missing_unit_rejected(self, tmp_path):
        spec = SweepSpec("EX", (WorkUnit("consume", f"{_MODULE}:cell_soft_consumer",
                                         {"value": 1.0, "workdir": str(tmp_path)},
                                         soft_deps=("nope",)),),
                         f"{_MODULE}:finalize_first")
        with pytest.raises(KeyError, match="unknown unit"):
            execute([spec])


class TestLegacyWrapping:
    def test_experiments_derived_from_specs(self):
        assert list(EXPERIMENTS) == list(SPECS)

    @pytest.mark.parametrize("eid", list(SPECS))
    def test_build_specs_all_multi_cell(self, eid):
        """Every experiment is a real sweep — no one-cell wrappers."""
        (spec,) = build_specs([eid], scale=0.1, seed=0)
        assert spec.experiment_id == eid and len(spec.units) > 1

    def test_run_all_unknown_id_still_rejected(self):
        with pytest.raises(KeyError, match="unknown experiment"):
            run_all(["E99"], scale=0.01)

    def test_duplicate_ids_run_twice(self, tmp_path):
        """`--ids E9 E9` must behave like the old loop: two results."""
        store = ResultsStore(tmp_path / "store")
        report = run_all_detailed(["E9", "E9"], scale=0.1, seed=0, store=store)
        assert len(report.results) == 2
        assert report.results[0].render() == report.results[1].render()
        # The second spec's cells share the first's content addresses, so
        # they are filled from the first run, but nothing came from the
        # (empty) store: no cache hits.
        assert report.cached == 0
        assert report.computed == report.total > 0


class TestSweepSeeds:
    def test_default_stride(self):
        assert sweep_seeds(7, 3) == [700, 701, 702]

    def test_custom_stride(self):
        assert sweep_seeds(2, 2, stride=1000) == [2000, 2001]

    def test_zero_count(self):
        assert sweep_seeds(5, 0) == []
