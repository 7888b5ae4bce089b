"""Tests for reprolint (:mod:`repro.devtools.lint`).

Every rule has a paired good/bad fixture under ``tests/data/lint/``: the
bad snippet must produce findings, the good one must be clean — so each
contract is demonstrated by an example that fails before its fix lands.
On top of that: suppression-pragma semantics (reason mandatory, unknown
rules flagged), the ``--json`` schema, CLI exit codes, ``--list``, and
the self-gate — the repository's own ``src``/``tests``/``benchmarks``
trees lint clean, which is exactly what the CI ``invariant-lint`` job
asserts.
"""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.devtools.lint import (
    JSON_SCHEMA_VERSION,
    RULES,
    LintRule,
    available_rules,
    register_rule,
    rule_info,
    run_lint,
)

FIXTURES = Path(__file__).resolve().parent / "data" / "lint"
REPO_ROOT = Path(__file__).resolve().parent.parent

ALL_RULES = ("API001", "CLK001", "DET001", "IO001", "MET001", "REG001",
             "RNG001", "SPEC001")

#: In-scope destination for each per-module rule's fixture snippets —
#: the scaffold mirrors the real tree so path-scoped rules apply.
PLACEMENTS = {
    "RNG001": "src/repro/workloads/fixture_mod.py",
    "CLK001": "src/repro/experiments/executors/fixture_mod.py",
    "IO001": "src/repro/experiments/executors/fixture_mod.py",
    "DET001": "src/repro/analysis/fixture_mod.py",
    "API001": "src/repro/api/surface_mod.py",
    "MET001": "src/repro/algorithms/fixture_mod.py",
}


def place(tmp_path: Path, fixture: str, relpath: str) -> Path:
    dst = tmp_path / relpath
    dst.parent.mkdir(parents=True, exist_ok=True)
    dst.write_text((FIXTURES / fixture).read_text())
    return dst


def lint_scaffold(tmp_path: Path, select=None):
    return run_lint([tmp_path / "src"], root=tmp_path, select=select)


class TestRuleFixtures:
    @pytest.mark.parametrize("rule", sorted(PLACEMENTS))
    def test_bad_fixture_fires(self, tmp_path, rule):
        place(tmp_path, f"{rule.lower()}_bad.py", PLACEMENTS[rule])
        report = lint_scaffold(tmp_path, select=[rule])
        assert report.findings, f"{rule} bad fixture produced no findings"
        assert {f.rule for f in report.findings} == {rule}

    @pytest.mark.parametrize("rule", sorted(PLACEMENTS))
    def test_good_fixture_clean(self, tmp_path, rule):
        place(tmp_path, f"{rule.lower()}_good.py", PLACEMENTS[rule])
        report = lint_scaffold(tmp_path, select=[rule])
        assert report.findings == [], [f.render() for f in report.findings]

    def test_rng001_flags_both_shapes(self, tmp_path):
        place(tmp_path, "rng001_bad.py", PLACEMENTS["RNG001"])
        report = lint_scaffold(tmp_path, select=["RNG001"])
        messages = " ".join(f.message for f in report.findings)
        assert "seedless" in messages and "legacy" in messages
        assert len(report.findings) >= 3  # default_rng() + seed + rand

    def test_rng001_out_of_scope_tests_tree(self, tmp_path):
        # Tests may use seedless rng freely: the rule only guards src/.
        dst = tmp_path / "tests" / "test_something.py"
        dst.parent.mkdir(parents=True)
        dst.write_text((FIXTURES / "rng001_bad.py").read_text())
        report = run_lint([tmp_path / "tests"], root=tmp_path, select=["RNG001"])
        assert report.findings == []

    def test_met001_flags_both_shapes(self, tmp_path):
        place(tmp_path, "met001_bad.py", PLACEMENTS["MET001"])
        report = lint_scaffold(tmp_path, select=["MET001"])
        assert len(report.findings) == 2  # dotted np.linalg.norm + bare alias

    def test_met001_exempts_metric_module(self, tmp_path):
        # The metric layer itself legitimately spells out l2 arithmetic.
        place(tmp_path, "met001_bad.py", "src/repro/core/metric.py")
        report = lint_scaffold(tmp_path, select=["MET001"])
        assert report.findings == []

    def test_met001_out_of_scope_analysis_tree(self, tmp_path):
        # Analysis geometry is explicitly Euclidean; the rule only guards
        # the trees that execute under a caller-chosen metric.
        place(tmp_path, "met001_bad.py", "src/repro/analysis/fixture_mod.py")
        report = lint_scaffold(tmp_path, select=["MET001"])
        assert report.findings == []

    def test_det001_requires_hash_context(self, tmp_path):
        # json.dumps without sort_keys is fine outside digest scopes.
        dst = tmp_path / "src" / "mod.py"
        dst.parent.mkdir(parents=True)
        dst.write_text("import json\n\ndef render(d):\n    return json.dumps(d)\n")
        report = lint_scaffold(tmp_path, select=["DET001"])
        assert report.findings == []

    def test_clk001_out_of_scope_module(self, tmp_path):
        # Wall-clock reads outside the digest/store/spool layers pass.
        place(tmp_path, "clk001_bad.py", "src/repro/analysis/fixture_mod.py")
        report = lint_scaffold(tmp_path, select=["CLK001"])
        assert report.findings == []


class TestReg001:
    def test_bad_tree_fires_every_check(self):
        root = FIXTURES / "reg001_bad"
        report = run_lint([root / "src", root / "tests"], root=root,
                          select=["REG001"])
        messages = " ".join(f.message for f in report.findings)
        assert "StepKernel 'ghost'" in messages  # dead kernel: no registry name
        assert "never referenced" in messages   # parity suite misses 'ghost'
        assert all(f.rule == "REG001" for f in report.findings)
        assert len(report.findings) == 2

    def test_good_tree_clean(self):
        root = FIXTURES / "reg001_good"
        report = run_lint([root / "src", root / "tests"], root=root,
                          select=["REG001"])
        assert report.findings == [], [f.render() for f in report.findings]

    def test_parity_module_loaded_on_demand(self):
        # Linting only src/ must still verify the parity tests: the
        # project rule pulls tests/test_kernels.py in by relative path.
        root = FIXTURES / "reg001_bad"
        report = run_lint([root / "src"], root=root, select=["REG001"])
        assert any("never referenced" in f.message for f in report.findings)

    def test_skips_foreign_trees(self, tmp_path):
        (tmp_path / "src").mkdir()
        (tmp_path / "src" / "other.py").write_text("X = 1\n")
        report = lint_scaffold(tmp_path, select=["REG001"])
        assert report.findings == []


class TestSpec001:
    def test_bad_tree_fires_every_check(self):
        root = FIXTURES / "spec001_bad"
        report = run_lint([root / "src"], root=root, select=["SPEC001"])
        messages = " ".join(f.message for f in report.findings)
        assert "duplicate SPECS key 'E1'" in messages
        assert "already declared" in messages           # cross-module id clash
        assert all(f.rule == "SPEC001" for f in report.findings)
        assert len(report.findings) == 2

    def test_good_tree_clean(self):
        root = FIXTURES / "spec001_good"
        report = run_lint([root / "src"], root=root, select=["SPEC001"])
        assert report.findings == [], [f.render() for f in report.findings]

    def test_in_module_restatement_allowed(self):
        # e2_second builds ExperimentSpec(experiment_id="E2") twice; a
        # repeat inside the owning module must not be flagged.
        root = FIXTURES / "spec001_good"
        report = run_lint([root / "src"], root=root, select=["SPEC001"])
        assert not any("'E2'" in f.message for f in report.findings)

    def test_skips_foreign_trees(self, tmp_path):
        (tmp_path / "src").mkdir()
        (tmp_path / "src" / "other.py").write_text("X = 1\n")
        report = lint_scaffold(tmp_path, select=["SPEC001"])
        assert report.findings == []


class TestSuppressions:
    def _bad_line(self, pragma: str) -> str:
        return (
            "import numpy as np\n\n"
            "def build():\n"
            f"    return np.random.default_rng()  {pragma}\n"
        )

    def test_pragma_with_reason_suppresses(self, tmp_path):
        dst = tmp_path / "src" / "mod.py"
        dst.parent.mkdir(parents=True)
        dst.write_text(self._bad_line(
            "# reprolint: allow[RNG001] reason=entropy wanted here"))
        report = lint_scaffold(tmp_path, select=["RNG001"])
        assert report.findings == []
        assert [f.rule for f in report.suppressed] == ["RNG001"]

    def test_pragma_without_reason_is_its_own_finding(self, tmp_path):
        dst = tmp_path / "src" / "mod.py"
        dst.parent.mkdir(parents=True)
        dst.write_text(self._bad_line("# reprolint: allow[RNG001]"))
        report = lint_scaffold(tmp_path, select=["RNG001"])
        assert [f.rule for f in report.findings] == ["SUP001"]
        assert [f.rule for f in report.suppressed] == ["RNG001"]

    def test_pragma_unknown_rule_flagged_and_inert(self, tmp_path):
        dst = tmp_path / "src" / "mod.py"
        dst.parent.mkdir(parents=True)
        dst.write_text(self._bad_line(
            "# reprolint: allow[RNG999] reason=typo in the rule name"))
        report = lint_scaffold(tmp_path, select=["RNG001"])
        rules = sorted(f.rule for f in report.findings)
        assert rules == ["RNG001", "SUP002"]  # nothing suppressed

    def test_pragma_other_line_does_not_suppress(self, tmp_path):
        dst = tmp_path / "src" / "mod.py"
        dst.parent.mkdir(parents=True)
        dst.write_text(
            "import numpy as np\n"
            "# reprolint: allow[RNG001] reason=wrong line\n"
            "RNG = np.random.default_rng()\n"
        )
        report = lint_scaffold(tmp_path, select=["RNG001"])
        assert [f.rule for f in report.findings] == ["RNG001"]

    def test_pragma_inside_string_ignored(self, tmp_path):
        dst = tmp_path / "src" / "mod.py"
        dst.parent.mkdir(parents=True)
        dst.write_text(
            'DOC = "# reprolint: allow[RNG001] reason=not a comment"\n'
        )
        report = lint_scaffold(tmp_path, select=["RNG001"])
        assert report.findings == [] and report.suppressed == []

    def test_wildcard_pragma(self, tmp_path):
        dst = tmp_path / "src" / "mod.py"
        dst.parent.mkdir(parents=True)
        dst.write_text(self._bad_line("# reprolint: allow[*] reason=demo"))
        report = lint_scaffold(tmp_path, select=["RNG001"])
        assert report.findings == []
        assert [f.rule for f in report.suppressed] == ["RNG001"]


class TestRunnerAndSchema:
    def test_unparseable_file_is_a_finding(self, tmp_path):
        dst = tmp_path / "src" / "broken.py"
        dst.parent.mkdir(parents=True)
        dst.write_text("def broken(:\n")
        report = lint_scaffold(tmp_path)
        assert [f.rule for f in report.findings] == ["LNT000"]

    def test_json_schema(self, tmp_path):
        place(tmp_path, "det001_bad.py", "src/mod.py")
        report = lint_scaffold(tmp_path, select=["DET001"])
        data = report.to_json_dict()
        assert data["version"] == JSON_SCHEMA_VERSION
        assert data["rules"] == ["DET001"]
        assert data["files"] == 1
        assert data["counts"] == {
            "findings": len(data["findings"]),
            "suppressed": len(data["suppressed"]),
        }
        for entry in data["findings"]:
            assert sorted(entry) == ["col", "line", "message", "path", "rule"]
            assert entry["path"] == "src/mod.py"
        # Deterministic output: two runs render byte-identically.
        again = lint_scaffold(tmp_path, select=["DET001"])
        assert again.to_json() == report.to_json()

    def test_unknown_select_raises(self, tmp_path):
        (tmp_path / "src").mkdir()
        with pytest.raises(KeyError):
            run_lint([tmp_path / "src"], root=tmp_path, select=["NOPE001"])

    def test_registry_rejects_duplicates(self):
        name = sorted(RULES)[0]
        with pytest.raises(KeyError):
            register_rule(LintRule(name=name, summary="dup", check=lambda m, i: []))

    def test_rule_info_unknown(self):
        with pytest.raises(KeyError):
            rule_info("XXX000")

    def test_available_rules(self):
        assert tuple(available_rules()) == ALL_RULES


class TestCli:
    def test_lint_clean_exit_zero(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        place(tmp_path, "det001_good.py", "src/mod.py")
        assert main(["lint", "src"]) == 0
        out = capsys.readouterr().out
        assert "0 finding(s)" in out

    def test_lint_findings_exit_one(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        place(tmp_path, "det001_bad.py", "src/mod.py")
        assert main(["lint", "src"]) == 1
        out = capsys.readouterr().out
        assert "DET001" in out and "src/mod.py:" in out

    def test_lint_json_flag(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        place(tmp_path, "det001_bad.py", "src/mod.py")
        assert main(["lint", "src", "--json"]) == 1
        data = json.loads(capsys.readouterr().out)
        assert data["version"] == JSON_SCHEMA_VERSION
        assert data["counts"]["findings"] >= 1

    def test_lint_list(self, capsys):
        assert main(["lint", "--list"]) == 0
        out = capsys.readouterr().out
        for rule in ALL_RULES:
            assert rule in out

    def test_lint_select(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        place(tmp_path, "det001_bad.py", "src/mod.py")
        assert main(["lint", "src", "--select", "RNG001"]) == 0
        assert main(["lint", "src", "--select", "RNG001,DET001"]) == 1

    def test_lint_bad_select_exit_two(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "src").mkdir()
        assert main(["lint", "src", "--select", "NOPE001"]) == 2
        assert "bad --select" in capsys.readouterr().err

    def test_lint_missing_path_exit_two(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["lint", "no-such-dir"]) == 2
        assert "no such path" in capsys.readouterr().err


class TestSelfGate:
    """The repository's own tree holds every invariant — the CI gate."""

    def test_src_tests_benchmarks_clean(self):
        report = run_lint(
            [REPO_ROOT / "src", REPO_ROOT / "tests", REPO_ROOT / "benchmarks"],
            root=REPO_ROOT,
        )
        assert report.findings == [], "\n" + "\n".join(
            f.render() for f in report.findings
        )

    def test_every_suppression_in_tree_has_reason(self):
        report = run_lint([REPO_ROOT / "src"], root=REPO_ROOT)
        assert not any(f.rule == "SUP001" for f in report.findings)

    def test_no_seedless_rng_left_in_src(self):
        report = run_lint([REPO_ROOT / "src"], root=REPO_ROOT, select=["RNG001"])
        assert report.findings == []


class TestSeededFallbacks:
    """The RNG001 fixes: unseeded entry points are now deterministic."""

    def test_coinflip_default_rng_deterministic(self):
        from repro.algorithms import CoinFlip

        a, b = CoinFlip(), CoinFlip()
        assert a.rng.random() == b.rng.random()

    def test_facility_default_rng_deterministic(self):
        from repro.extensions.facility import MeyersonStatic

        a, b = MeyersonStatic(), MeyersonStatic()
        assert a.rng.random() == b.rng.random()

    def test_pagemigration_coinflip_default_rng_deterministic(self):
        from repro.pagemigration.algorithms import CoinFlipGraph

        a, b = CoinFlipGraph(), CoinFlipGraph()
        assert a.rng.random() == b.rng.random()

    def test_lemma6_sampling_reproducible(self):
        from repro.analysis.lemma6 import sample_lemma6

        first = sample_lemma6(delta=0.5, n_samples=200)
        second = sample_lemma6(delta=0.5, n_samples=200)
        assert first.min_slack == second.min_slack
        assert first.min_slack_relative == second.min_slack_relative
