"""Tests for the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main

_SRC = str(Path(__file__).resolve().parent.parent / "src")


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "mtc" in out and "E1" in out and "drift" in out

    def test_experiments_subset(self, capsys, tmp_path):
        code = main(["experiments", "--ids", "E9", "--scale", "0.05",
                     "--csv", str(tmp_path), "--store", ""])
        out = capsys.readouterr().out
        assert "[E9]" in out
        assert (tmp_path / "e9.csv").exists()
        assert code == 0

    def test_experiments_store_caches_second_run(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        argv = ["experiments", "--ids", "E9", "--scale", "0.05", "--store", store]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "store: 0/15 work units cached, 15 computed" in cold
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "store: 15/15 work units cached, 0 computed" in warm
        assert warm.split("store:")[0] == cold.split("store:")[0]

    def test_experiments_rerun_recomputes(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        base = ["experiments", "--ids", "E9", "--scale", "0.05", "--store", store]
        assert main(base) == 0
        capsys.readouterr()
        assert main(base + ["--rerun"]) == 0
        assert "15 computed" in capsys.readouterr().out

    def test_experiments_resume_label(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        base = ["experiments", "--ids", "E9", "--scale", "0.05", "--store", store]
        assert main(base) == 0
        capsys.readouterr()
        assert main(base + ["--resume"]) == 0
        assert "work units resumed" in capsys.readouterr().out

    def test_experiments_jobs_validation(self, capsys):
        assert main(["experiments", "--ids", "E9", "--jobs", "0"]) == 2

    @pytest.mark.parametrize("argv", [
        ["--ids", "E99"],
        ["--ids", "E9", "--scale", "0"],
        ["--ids", "E9", "--scale", "-1"],
        ["--ids", "E9", "--scale", "nan"],
    ], ids=["E99", "scale0", "scale-1", "scale-nan"])
    def test_experiments_rejects_bad_argument(self, argv):
        """A bad id or scale is a usage error: one line, exit 2, no traceback."""
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "experiments", *argv, "--store", ""],
            capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=_SRC),
        )
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.strip().splitlines()) == 1, proc.stderr
        assert argv[-1] in proc.stderr

    def test_experiments_parallel_jobs(self, capsys, tmp_path):
        code = main(["experiments", "--ids", "E4", "--scale", "0.1", "--jobs", "2",
                     "--store", str(tmp_path / "store")])
        out = capsys.readouterr().out
        assert code == 0
        assert "[E4]" in out

    def test_compare(self, capsys):
        assert main(["compare", "--workload", "drift", "--T", "60", "--dim", "1"]) == 0
        out = capsys.readouterr().out
        assert "mtc" in out and "ratio" in out

    def test_compare_unknown_workload(self, capsys):
        assert main(["compare", "--workload", "nope"]) == 2

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])


class TestCLITiming:
    def test_timing_line_reports_computed_cells(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        argv = ["experiments", "--ids", "E9", "--scale", "0.05", "--store", store]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert "timing: 15 cells computed" in cold and "slowest:" in cold
        assert main(argv) == 0
        warm = capsys.readouterr().out
        assert "timing:" not in warm  # pure cache hits compute nothing


class TestCLIStoreGC:
    def test_store_gc_reports_eviction(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        base = ["experiments", "--ids", "E9", "--scale", "0.05", "--store", store]
        assert main(base) == 0
        capsys.readouterr()
        assert main(base + ["--store-gc", "0"]) == 0
        out = capsys.readouterr().out
        assert "store-gc: evicted 15 entries" in out
        assert main(base) == 0  # store emptied: the cells recompute
        assert "15 computed" in capsys.readouterr().out

    def test_store_gc_size_suffixes(self, capsys, tmp_path):
        store = str(tmp_path / "store")
        base = ["experiments", "--ids", "E9", "--scale", "0.05", "--store", store]
        assert main(base) == 0
        capsys.readouterr()
        assert main(base + ["--store-gc", "1G"]) == 0
        assert "store-gc: evicted 0 entries" in capsys.readouterr().out


class TestCLIRun:
    def test_run_adversary_scenario(self, capsys):
        assert main(["run", "--source", "thm1", "-p", "T=32",
                     "--algorithm", "mtc", "--seeds", "0", "1"]) == 0
        out = capsys.readouterr().out
        assert "thm1/mtc" in out and "ratio >=" in out

    def test_run_workload_with_bracket(self, capsys):
        assert main(["run", "--source", "drift", "-p", "T=40", "-p", "dim=1",
                     "--delta", "0.5", "--ratio", "bracket"]) == 0
        out = capsys.readouterr().out
        assert "certified ratio interval" in out

    def test_run_store_caches(self, capsys, tmp_path):
        argv = ["run", "--source", "thm1", "-p", "T=32", "--seeds", "0",
                "--store", str(tmp_path / "store")]
        assert main(argv) == 0
        assert "engine" in capsys.readouterr().out
        assert main(argv) == 0
        assert "cache hit" in capsys.readouterr().out

    def test_run_unknown_source(self, capsys):
        assert main(["run", "--source", "nope"]) == 2
        assert "unknown source" in capsys.readouterr().err

    def test_run_algorithm_params(self, capsys):
        assert main(["run", "--source", "drift", "-p", "T=30", "-p", "dim=1",
                     "--algorithm", "mtc", "--alg-param", "step_scale=0.5",
                     "--delta", "0.5"]) == 0
        # Variants play the lock-step engine like every other cell.
        assert "batched engine" in capsys.readouterr().out

    def test_run_grid_sweep(self, capsys):
        assert main(["run", "--grid", "--source", "drift",
                     "--algorithm", "mtc,greedy-centroid",
                     "-p", "T=30", "-p", "dim=1", "-p", "D=2.0", "-p", "m=1.0",
                     "--delta", "0.25,0.5", "--seeds", "0", "1",
                     "--ratio", "bracket"]) == 0
        out = capsys.readouterr().out
        assert "algorithm" in out and "delta" in out
        assert "grid: 4 scenarios" in out and "4 computed" in out

    def test_run_grid_param_axis(self, capsys):
        assert main(["run", "--grid", "--source", "drift",
                     "-p", "T=20,30", "-p", "dim=1", "-p", "D=2.0", "-p", "m=1.0",
                     "--ratio", "none"]) == 0
        out = capsys.readouterr().out
        assert "grid: 2 scenarios" in out

    def test_run_grid_store_caches_second_pass(self, capsys, tmp_path):
        argv = ["run", "--grid", "--source", "drift", "--algorithm", "mtc",
                "-p", "T=20", "-p", "dim=1", "-p", "D=2.0", "-p", "m=1.0",
                "--delta", "0.25,0.5", "--ratio", "bracket",
                "--store", str(tmp_path / "store")]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "0 cached, 2 computed" in first
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "2 cached, 0 computed" in second

    def test_run_grid_unknown_source(self, capsys):
        assert main(["run", "--grid", "--source", "nope,drift"]) == 2
        assert "bad grid" in capsys.readouterr().err

    def test_run_grid_jobs_validation(self, capsys):
        assert main(["run", "--grid", "--source", "drift", "--jobs", "0"]) == 2
        assert "--jobs" in capsys.readouterr().err

    def test_run_rejects_bad_scenario(self, capsys):
        assert main(["run", "--source", "thm1", "-p", "T=16",
                     "--cost-model", "answer-first"]) == 2
        assert "bad scenario" in capsys.readouterr().err

    def test_run_rejects_bad_source_param(self, capsys):
        assert main(["run", "--source", "thm1", "-p", "bogus=1"]) == 2
        assert "bad scenario" in capsys.readouterr().err

    def test_run_rejects_incompatible_algorithm(self, capsys):
        assert main(["run", "--source", "drift", "-p", "T=20", "-p", "dim=2",
                     "--algorithm", "work-function"]) == 2
        assert "bad scenario" in capsys.readouterr().err

    def test_store_gc_requires_store(self, capsys):
        assert main(["experiments", "--ids", "E9", "--scale", "0.05",
                     "--store", "", "--store-gc", "1M"]) == 2
        assert "--store-gc needs a persistent store" in capsys.readouterr().err
