"""Tests for the unified scenario layer (``repro.api``).

Covers the Scenario dataclass (validation, serialization, content
addressing), the workload/adversary registries (full module coverage via
``resolve``), the ``run()`` dispatcher (scalar-vs-batched parity against
both legacy entry points for every registered algorithm), ``run_many``
sharing, and the orchestrator integration (scenario cells share store
addresses with inline runs).
"""

from __future__ import annotations

import pkgutil

import numpy as np
import pytest

import repro.adversaries as adversaries_pkg
import repro.workloads as workloads_pkg
from repro.adversaries import AdversarialInstance
from repro.adversaries.registry import ADVERSARIES, AdaptiveGame, BoundAdversary
from repro.algorithms import algorithm_info, available_algorithms, make_algorithm
from repro.api import (
    RunResult,
    Scenario,
    build_instances,
    resolve,
    run,
    run_many,
    scenario_unit,
)
from repro.cli import main
from repro.core import CostModel, simulate, simulate_batch
from repro.core.store import ResultsStore
from repro.workloads.registry import WORKLOADS


class TestScenario:
    def test_params_are_frozen_and_sorted(self):
        sc = Scenario.workload("drift", "mtc", params={"b": 2, "a": 1})
        assert sc.source_params == (("a", 1), ("b", 2))
        assert sc.source_kwargs() == {"a": 1, "b": 2}

    def test_hashable(self):
        a = Scenario.workload("drift", "mtc", params={"T": 10})
        b = Scenario.workload("drift", "mtc", params={"T": 10})
        assert a == b and hash(a) == hash(b)

    def test_dict_round_trip(self):
        sc = Scenario.adversary("thm2", "mtc", params={"delta": 0.5, "cycles": 3},
                                seeds=[5, 6], delta=0.5, name="x")
        assert Scenario.from_dict(sc.to_dict()) == sc

    def test_digest_stable_and_param_sensitive(self):
        sc = Scenario.workload("drift", "mtc", params={"T": 10})
        assert sc.digest() == sc.digest()
        assert sc.digest() != sc.with_(source_params={"T": 11}).digest()
        assert sc.digest() != sc.with_(delta=0.5).digest()

    def test_digest_ignores_display_name(self):
        sc = Scenario.workload("drift", "mtc", params={"T": 10})
        assert sc.digest() == sc.with_(name="E1/some/label").digest()
        assert "name" not in sc.cache_dict()

    def test_rejects_bad_fields(self):
        with pytest.raises(ValueError, match="kind"):
            Scenario(source="drift", algorithm="mtc", kind="nope")
        with pytest.raises(ValueError, match="ratio"):
            Scenario.workload("drift", "mtc", ratio="nope")
        with pytest.raises(ValueError, match="engine"):
            Scenario.workload("drift", "mtc", engine="nope")
        with pytest.raises(ValueError, match="delta"):
            Scenario.workload("drift", "mtc", delta=-1.0)
        with pytest.raises(ValueError, match="seed"):
            Scenario.workload("drift", "mtc", seeds=[])

    def test_rejects_non_jsonable_params(self):
        with pytest.raises(TypeError, match="JSON-able"):
            Scenario.workload("drift", "mtc", params={"x": object()})

    def test_effective_ratio_auto(self):
        assert Scenario.workload("drift", "mtc").effective_ratio() == "none"
        assert Scenario.adversary("thm1", "mtc").effective_ratio() == "adversary"


class TestRegistryCoverage:
    """Satellite: ``resolve`` round-trips every workloads/ and adversaries/ module."""

    # Scaffolding modules (abstract bases, the registries themselves) are
    # not request sources; every other module must be reachable by name.
    WORKLOAD_SCAFFOLDING = {"base", "registry"}
    ADVERSARY_SCAFFOLDING = {"base", "registry"}

    #: Minimal constructor params per registered workload.
    WORKLOAD_PARAMS = {name: {"T": 6} for name in WORKLOADS}

    #: Minimal construction params per registered adversary (new entries
    #: default to ``{"T": 9}`` — extend this map if that does not apply).
    ADVERSARY_PARAMS = {
        "thm2": {"delta": 0.5, "cycles": 2},
        "thm3": {"cycles": 2},
    }

    def _adversary_params(self, name: str) -> dict:
        return dict(self.ADVERSARY_PARAMS.get(name, {"T": 9}))

    def _source_module(self, obj) -> str:
        if isinstance(obj, AdaptiveGame):
            obj = obj.adversary
        if isinstance(obj, BoundAdversary):
            return obj.info.builder.__module__.rsplit(".", 1)[-1]
        return type(obj).__module__.rsplit(".", 1)[-1]

    def test_every_workload_module_is_registered(self):
        modules = {m.name for m in pkgutil.iter_modules(workloads_pkg.__path__)}
        expected = modules - self.WORKLOAD_SCAFFOLDING
        covered = {
            self._source_module(resolve(name, **self.WORKLOAD_PARAMS[name]))
            for name in WORKLOADS
        }
        missing = expected - covered
        assert not missing, f"workload modules without a registry entry: {sorted(missing)}"

    def test_every_adversary_module_is_registered(self):
        modules = {m.name for m in pkgutil.iter_modules(adversaries_pkg.__path__)}
        expected = modules - self.ADVERSARY_SCAFFOLDING
        covered = {
            self._source_module(resolve(name, **self._adversary_params(name)))
            for name in ADVERSARIES
        }
        missing = expected - covered
        assert not missing, f"adversary modules without a registry entry: {sorted(missing)}"

    def test_resolved_workloads_generate(self):
        rng = np.random.default_rng(0)
        for name in WORKLOADS:
            gen = resolve(name, **self.WORKLOAD_PARAMS[name])
            inst = gen.generate(rng)
            assert inst.length >= 1

    def test_resolved_adversaries_build(self):
        for name in ADVERSARIES:
            params = self._adversary_params(name)
            if ADVERSARIES[name].adaptive:
                outcome = resolve(name, **params).play(make_algorithm("static"))
                assert outcome.adversary_cost > 0
            else:
                adv = resolve(name, **params).build(np.random.default_rng(0))
                assert isinstance(adv, AdversarialInstance)

    def test_unknown_source_lists_both_registries(self):
        with pytest.raises(KeyError, match="drift.*thm1") as err:
            resolve("definitely-not-a-source")
        assert "thm2" in str(err.value)


def _parity_scenario(name: str) -> Scenario:
    """A scenario the named algorithm can legally play, B >= 2."""
    info = algorithm_info(name)
    if info.requires_moving_client:
        return Scenario.workload(
            "patrol-agent",
            algorithm=name,
            params={"T": 25, "dim": 2, "D": 2.0},
            seeds=[0, 1, 2],
            delta=0.5,
        )
    if not info.supports_metric("euclidean"):
        # Metric-restricted entries: the re-homed classical scenarios.
        if "graph" in info.metrics:
            return Scenario.workload(
                "graph-road",
                algorithm=name,
                params={"T": 25, "D": 2.0, "m": 50.0, "requests_per_step": 1},
                seeds=[0, 1, 2],
                metric="graph",
                ratio="none",
            )
        return Scenario.workload(
            "kserver-line",
            algorithm=name,
            params={"T": 25, "dim": 3},
            seeds=[0, 1, 2],
            metric=info.metrics[0],
            cost_model="movement-only",
            ratio="none",
        )
    cost_model = None
    if info.cost_models is not None:
        cost_model = info.cost_models[0]
    return Scenario.workload(
        "drift",
        algorithm=name,
        params={"T": 25, "dim": 1, "D": 2.0, "speed": 0.7, "spread": 0.3,
                "requests_per_step": 2},
        seeds=[0, 1, 2],
        delta=0.5,
        cost_model=cost_model,
    )


class TestDispatcherParity:
    """Satellite: identical costs through every path, for every algorithm."""

    @pytest.mark.parametrize("name", available_algorithms())
    def test_scalar_batched_and_legacy_agree(self, name):
        sc = _parity_scenario(name)
        scalar = run(sc.with_(engine="scalar"))
        batched = run(sc.with_(engine="batched"))
        auto = run(sc)
        assert scalar.engine == "scalar" and batched.engine == "batched"
        np.testing.assert_array_equal(scalar.costs, batched.costs)
        np.testing.assert_array_equal(scalar.costs, auto.costs)

        # Legacy path 1: the scalar simulator loop.
        instances, _ = build_instances(sc)
        legacy = np.array([
            simulate(inst, make_algorithm(name), delta=sc.delta,
                     metric=sc.metric).total_cost
            for inst in instances
        ])
        np.testing.assert_array_equal(scalar.costs, legacy)

        # Legacy path 2: the batched engine called directly.
        direct = simulate_batch(instances, name, delta=sc.delta,
                                metric=sc.metric).total_costs
        np.testing.assert_array_equal(batched.costs, direct)

    @pytest.mark.parametrize("name, params", [
        ("mtc", {"step_scale": 0.5}),
        ("lazy", {"threshold_factor": 0.5}),
        ("follow-last", {"smoothing": 0.5}),
    ])
    def test_algorithm_params_variants_run_batched(self, name, params):
        """Variants play the lock-step engine through a factory and match
        the scalar reference loop bit for bit."""
        sc = _parity_scenario(name).with_(algorithm_params=params)
        batched = run(sc)
        scalar = run(sc.with_(engine="scalar"))
        assert batched.engine == "batched" and scalar.engine == "scalar"
        np.testing.assert_array_equal(batched.costs, scalar.costs)
        for a, b in zip(batched.traces, scalar.traces):
            np.testing.assert_array_equal(a.positions, b.positions)

    def test_algorithm_params_change_behaviour(self):
        sc = _parity_scenario("mtc")
        base = run(sc)
        variant = run(sc.with_(algorithm_params={"step_scale": 0.25}))
        assert not np.array_equal(base.costs, variant.costs)


class TestRunSemantics:
    def test_adversary_ratios_match_legacy_loop(self):
        sc = Scenario.adversary("thm2", "mtc", params={"delta": 0.5, "cycles": 3},
                                seeds=[0, 1, 2], delta=0.5)
        result = run(sc)
        source = resolve("thm2", delta=0.5, cycles=3)
        for i, seed in enumerate(sc.seeds):
            adv = source.build(np.random.default_rng(seed))
            trace = simulate(adv.instance, make_algorithm("mtc"), delta=0.5)
            assert result.ratios[i] == adv.ratio_of(trace.total_cost)
        assert result.mean_ratio == float(result.ratios.mean())

    def test_bracket_measurements(self):
        sc = Scenario.workload("drift", "mtc", params={"T": 20, "dim": 1, "D": 2.0},
                               seeds=[0, 1], delta=0.5, ratio="bracket")
        result = run(sc)
        assert len(result.measurements) == 2
        assert np.all(result.ratio_lower <= result.ratio_upper)

    def test_cost_model_override(self):
        base = Scenario.workload("drift", "mtc",
                                 params={"T": 20, "dim": 1, "D": 2.0,
                                         "requests_per_step": 3},
                                 seeds=[0], delta=0.5)
        af = run(base.with_(cost_model="answer-first"))
        mf = run(base)
        assert af.costs[0] != mf.costs[0]
        instances, _ = build_instances(base.with_(cost_model="answer-first"))
        assert instances[0].cost_model is CostModel.ANSWER_FIRST

    def test_adversary_rejects_cost_model_override(self):
        sc = Scenario.adversary("thm1", "mtc", params={"T": 16}, seeds=[0])
        with pytest.raises(ValueError, match="cost_model"):
            run(sc.with_(cost_model="answer-first"))

    def test_incompatible_algorithm_rejected(self):
        sc = Scenario.workload("drift", "mtc-moving-client",
                               params={"T": 10, "dim": 1}, seeds=[0])
        with pytest.raises(ValueError, match="moving-client"):
            run(sc)

    def test_wrong_cost_model_rejected(self):
        sc = Scenario.workload("drift", "mtc-answer-first",
                               params={"T": 10, "dim": 1}, seeds=[0])
        with pytest.raises(ValueError, match="cost model"):
            run(sc)

    def test_dim_restriction_rejected(self):
        sc = Scenario.workload("drift", "work-function",
                               params={"T": 10, "dim": 2}, seeds=[0])
        with pytest.raises(ValueError, match="dim"):
            run(sc)

    def test_workload_cannot_certify_against_adversary(self):
        sc = Scenario.workload("drift", "mtc", params={"T": 10, "dim": 1},
                               seeds=[0], ratio="adversary")
        with pytest.raises(ValueError, match="adversary"):
            run(sc)

    def test_adaptive_game_runs(self):
        sc = Scenario.adversary("greedy-escape", "mtc", params={"T": 20, "D": 2.0},
                                seeds=[0, 1], delta=0.5)
        result = run(sc)
        assert result.engine == "scalar"
        assert result.ratios.shape == (2,)
        with pytest.raises(ValueError, match="adaptive"):
            run(sc.with_(engine="batched"))

    def test_adaptive_game_rejects_bracket_ratio(self, capsys):
        """Adaptive games have no instances to bracket: an explicit error,
        not a result with every certificate silently missing."""
        sc = Scenario.adversary("greedy-escape", "mtc", params={"T": 20, "D": 2.0},
                                seeds=[0], delta=0.5, ratio="bracket")
        with pytest.raises(ValueError, match="no pre-built instances to bracket"):
            run(sc)
        assert main(["run", "--source", "greedy-escape", "-p", "T=20",
                     "--ratio", "bracket"]) == 2
        assert "bad scenario" in capsys.readouterr().err

    def test_movement_only_rejects_bracket_ratio(self, capsys):
        """The offline bracket bounds a serve-at-a-distance optimum; it must
        not certify a movement-only cost against it."""
        sc = Scenario.workload("random-walk", "mtc",
                               params={"T": 30, "dim": 2, "D": 2.0, "m": 1.0},
                               seeds=[0], ratio="bracket", cost_model="movement-only")
        with pytest.raises(ValueError, match="'movement-only' cost model"):
            run(sc)
        assert main(["run", "--source", "random-walk", "-p", "T=30", "-p", "dim=2",
                     "--cost-model", "movement-only", "--ratio", "bracket"]) == 2
        assert "bad scenario" in capsys.readouterr().err

    def test_moving_client_source_lowers_to_msp(self):
        sc = Scenario.workload("patrol-agent", "mtc-moving-client",
                               params={"T": 15, "dim": 2, "m_agent": 0.8},
                               seeds=[0])
        result = run(sc)
        assert result.costs.shape == (1,)


class TestRunMany:
    def test_store_round_trip_and_cache_hit(self, tmp_path):
        store = ResultsStore(tmp_path / "store")
        sc = Scenario.adversary("thm1", "mtc", params={"T": 16}, seeds=[0, 1])
        first = run_many([sc], store=store)[0]
        assert sc.digest() in store
        second = run_many([sc], store=store)[0]
        assert second.traces is None  # reloaded, summaries only
        np.testing.assert_array_equal(first.costs, second.costs)
        np.testing.assert_array_equal(first.ratios, second.ratios)

    def test_shares_instances_across_algorithms(self):
        base = dict(params={"T": 20, "dim": 1, "D": 2.0}, seeds=[0, 1],
                    delta=0.5, ratio="bracket")
        results = run_many([
            Scenario.workload("drift", "mtc", **base),
            Scenario.workload("drift", "static", **base),
        ])
        # Identical instances => identical brackets on both results.
        a, b = results
        assert [m.opt_lower for m in a.measurements] == [m.opt_lower for m in b.measurements]

    def test_matches_individual_runs(self):
        scs = [
            Scenario.adversary("thm1", "mtc", params={"T": 16}, seeds=[0, 1]),
            Scenario.workload("drift", "lazy", params={"T": 20, "dim": 1}, seeds=[2]),
        ]
        many = run_many(scs)
        for sc, res in zip(scs, many):
            np.testing.assert_array_equal(res.costs, run(sc).costs)


class TestOrchestratorIntegration:
    def test_scenario_unit_digest_matches_inline_digest(self, tmp_path):
        from repro.experiments.orchestrator import SweepSpec, execute

        sc = Scenario.adversary("thm1", "mtc", params={"T": 16}, seeds=[0, 1],
                                name="a sweep label the cache must ignore")
        unit = scenario_unit("cell", sc)
        spec = SweepSpec("TEST", (unit,), finalize="test_api:_finalize_passthrough")
        store = ResultsStore(tmp_path / "store")
        report = execute([spec], store=store)
        assert report.computed == 1
        # The orchestrated cell and the inline API share the address:
        assert sc.digest() in store
        inline = run_many([sc], store=store)[0]
        assert report.results[0].rows[0][0] == float(inline.costs.mean())

    def test_cell_payload_round_trips_exactly(self):
        from repro.api import cell_run

        sc = Scenario.adversary("thm2", "mtc", params={"delta": 0.5, "cycles": 2},
                                seeds=[0, 1], delta=0.5)
        payload = cell_run(sc.to_dict())
        restored = RunResult.from_payload(payload)
        np.testing.assert_array_equal(restored.costs, run(sc).costs)


def _finalize_passthrough(results, scale, seed):
    from repro.experiments.runner import ExperimentResult

    mean_cost = float(np.asarray(results["cell"]["costs"]).mean())
    return ExperimentResult("TEST", "t", ["mean_cost"], [[mean_cost]], notes=["n"])
