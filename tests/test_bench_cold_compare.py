"""Exit behaviour of ``benchmarks/bench_cold_compare.py``.

Each tree's tables must repeat across its own rounds (exit 1 at once
otherwise); tables that differ *between* trees are still timed and
reported as ``tables_identical: false`` before the script exits 1.
The cold runs are stubbed, so no experiment executes here.
"""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_cold_compare.py"


@pytest.fixture
def bench():
    spec = importlib.util.spec_from_file_location("bench_cold_compare", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _stub(monkeypatch, bench, renders):
    """``renders(src, round) -> table``; every run takes one second."""
    rounds: dict[str, int] = {}

    def cold_run(src, eid, scale, seed):
        rnd = rounds[src] = rounds.get(src, -1) + 1
        return {"seconds": 1.0, "cached": 0, "render": renders(src, rnd)}

    monkeypatch.setattr(bench, "_cold_run", cold_run)


def _run(bench, capsys):
    code = bench.main(["--src", "a=A", "--src", "b=B", "--ids", "E1", "--rounds", "2"])
    out = capsys.readouterr().out
    start = out.find("{")
    return code, (json.loads(out[start:]) if start >= 0 else None)


def test_identical_tables_exit_zero(bench, monkeypatch, capsys):
    _stub(monkeypatch, bench, lambda src, rnd: "table")
    code, record = _run(bench, capsys)
    assert code == 0
    assert record["seconds"]["E1"]["tables_identical"] is True


def test_tables_differing_across_trees_are_timed_then_fail(bench, monkeypatch, capsys):
    _stub(monkeypatch, bench, lambda src, rnd: f"table of {src}")
    code, record = _run(bench, capsys)
    assert code == 1
    row = record["seconds"]["E1"]
    assert row["tables_identical"] is False
    assert row["a"]["runs"] == row["b"]["runs"] == [1.0, 1.0]


def test_tables_differing_within_a_tree_fail_before_the_record(bench, monkeypatch, capsys):
    _stub(monkeypatch, bench, lambda src, rnd: f"round {rnd}" if src == "B" else "table")
    code, record = _run(bench, capsys)
    assert code == 1
    assert record is None
