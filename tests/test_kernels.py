"""Fused step kernels and cross-cell mega-batching: bit-parity contracts.

Two independent fast paths promise *bit-identical* float64 results:

* :mod:`repro.core.kernels` — fused decide/clamp/validate/accounting
  kernels that :func:`repro.core.engine.simulate_batch` auto-selects for
  kernel-capable algorithms on uniformly packed request stacks, checked
  against the scalar reference rules (``fuse=False``); and
* cross-cell mega-batching (:mod:`repro.api.runtime`) — compatible
  scenario cells packed into one wide ``simulate_batch`` call, split
  back per cell with unchanged store digests.

These tests enforce both contracts, the fusion toggles that gate them
(``--no-fuse``), and the dispatch conditions under which they engage.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.kernels as kernels_mod
from repro.api import Scenario, run, run_many
from repro.api.runtime import _mega_key, build_instances, cell_run
from repro.core import (
    KERNELS,
    CostModel,
    MSPInstance,
    RequestSequence,
    fusion,
    fusion_enabled,
    set_fusion,
    simulate_batch,
)
from repro.core.kernels import kernel_for
from repro.core.store import ResultsStore

KERNEL_ALGOS = sorted(KERNELS)

_TRACE_FIELDS = ("positions", "movement_costs", "service_costs",
                 "distances_moved", "request_counts")


def _assert_batches_equal(a, b):
    for field in _TRACE_FIELDS:
        np.testing.assert_array_equal(getattr(a, field), getattr(b, field),
                                      err_msg=field)


def _uniform_instances(dim: int, T: int, B: int, r: int, *,
                       model: CostModel = CostModel.MOVE_FIRST,
                       seed: int = 0) -> list[MSPInstance]:
    """Packed instances with heterogeneous caps: per-lane D and m vary."""
    out = []
    for s in range(B):
        rng = np.random.default_rng(seed * 1000 + s)
        demand = np.cumsum(rng.normal(scale=0.4, size=(T, dim)), axis=0)
        pts = demand[:, None, :] + rng.normal(scale=0.3, size=(T, r, dim))
        out.append(MSPInstance(
            RequestSequence.from_packed(pts),
            start=rng.normal(scale=0.5, size=dim),
            D=1.5 + 0.5 * (s % 3),
            m=0.5 + 0.25 * (s % 4),
            cost_model=model,
        ))
    return out


# -- fused kernel parity ---------------------------------------------------


class TestFusedParity:
    @pytest.mark.parametrize("name", KERNEL_ALGOS)
    @pytest.mark.parametrize("model", [CostModel.MOVE_FIRST, CostModel.ANSWER_FIRST])
    @pytest.mark.parametrize("dim,r", [(1, 1), (1, 9), (2, 1), (2, 4), (3, 9)])
    def test_bit_identical_to_per_step_loop(self, name, model, dim, r):
        """Every kernel, both cost models, dims/request counts straddling
        the kernels' internal layout thresholds (d≤2 slice-add vs einsum,
        r≥8 transposed reductions), against the scalar reference."""
        instances = _uniform_instances(dim, T=36, B=6, r=r, model=model)
        loop = simulate_batch(instances, name, delta=0.5, fuse=False)
        fused = simulate_batch(instances, name, delta=0.5, fuse=True)
        _assert_batches_equal(fused, loop)

    @pytest.mark.parametrize("name", KERNEL_ALGOS)
    @pytest.mark.parametrize("delta", [0.0, 0.125, 1.0])
    def test_delta_sweep(self, name, delta):
        instances = _uniform_instances(2, T=30, B=5, r=2, seed=3)
        loop = simulate_batch(instances, name, delta=delta, fuse=False)
        fused = simulate_batch(instances, name, delta=delta, fuse=True)
        _assert_batches_equal(fused, loop)

    @pytest.mark.parametrize("name", KERNEL_ALGOS)
    def test_per_lane_delta_array(self, name):
        instances = _uniform_instances(2, T=30, B=4, r=2, seed=5)
        deltas = np.array([0.0, 0.25, 0.5, 1.0])
        loop = simulate_batch(instances, name, delta=deltas, fuse=False)
        fused = simulate_batch(instances, name, delta=deltas, fuse=True)
        _assert_batches_equal(fused, loop)

    @pytest.mark.parametrize("name", KERNEL_ALGOS)
    def test_mixed_cost_models_per_lane(self, name):
        base = _uniform_instances(2, T=25, B=4, r=3, seed=9)
        instances = [
            inst.with_cost_model(CostModel.ANSWER_FIRST if i % 2 else CostModel.MOVE_FIRST)
            for i, inst in enumerate(base)
        ]
        loop = simulate_batch(instances, name, delta=0.5, fuse=False)
        fused = simulate_batch(instances, name, delta=0.5, fuse=True)
        _assert_batches_equal(fused, loop)

    def test_ragged_instances_fall_back_and_agree(self):
        """No packed stack → fused dispatch declines; results still agree."""
        rng = np.random.default_rng(2)
        instances = []
        for s in range(3):
            counts = rng.integers(0, 4, size=20)
            batches = [rng.normal(scale=0.5, size=(int(c), 2)) for c in counts]
            seq = RequestSequence(batches, dim=2)
            instances.append(MSPInstance(seq, start=np.zeros(2), D=2.0, m=1.0))
        loop = simulate_batch(instances, "greedy-centroid", delta=0.5, fuse=False)
        fused = simulate_batch(instances, "greedy-centroid", delta=0.5, fuse=True)
        _assert_batches_equal(fused, loop)


class TestMedianFamilyVariants:
    """Ablation variants share their family's kernel; every parameter
    combination must stay bit-identical to the per-step loop under both
    cost models and per-lane δ arrays."""

    def _factories(self):
        from repro.algorithms import (
            FollowLastRequest,
            KernelAlgorithm,
            LazyThreshold,
            MoveToCenter,
            MoveToMin,
        )

        variants = {
            "mtc-scale": ("mtc", lambda: MoveToCenter(step_scale=0.5)),
            "mtc-weiszfeld": ("mtc", lambda: MoveToCenter(tie_break="weiszfeld")),
            "mtc-midpoint": ("mtc", lambda: MoveToCenter(tie_break="midpoint")),
            "mtc-capfrac": ("mtc", lambda: MoveToCenter(cap_fraction=0.5)),
            "follow-smooth": ("follow-last", lambda: FollowLastRequest(smoothing=0.25)),
            "lazy-aggressive": ("lazy", lambda: LazyThreshold(threshold_factor=0.25)),
            "lazy-window": ("lazy", lambda: LazyThreshold(window=3)),
            "mtm-phase": ("move-to-min", lambda: MoveToMin(phase_requests=3)),
        }
        # The kernel is bound by registry name; the scalar factory
        # supplies the variant parameters it reads.
        return {key: (lambda name=name, factory=factory: KernelAlgorithm(name, factory))
                for key, (name, factory) in variants.items()}

    @pytest.mark.parametrize("variant", [
        "mtc-scale", "mtc-weiszfeld", "mtc-midpoint", "mtc-capfrac",
        "follow-smooth", "lazy-aggressive", "lazy-window", "mtm-phase",
    ])
    @pytest.mark.parametrize("model", [CostModel.MOVE_FIRST, CostModel.ANSWER_FIRST])
    def test_variant_bit_identical(self, variant, model):
        factory = self._factories()[variant]
        instances = _uniform_instances(2, T=32, B=5, r=3, model=model, seed=4)
        deltas = np.array([0.0, 0.25, 0.5, 1.0, 2.0])
        loop = simulate_batch(instances, factory(), delta=deltas, fuse=False)
        fused = simulate_batch(instances, factory(), delta=deltas, fuse=True)
        _assert_batches_equal(fused, loop)

    @pytest.mark.parametrize("name", ["lazy-aggressive", "follow-smooth"])
    def test_registry_variant_names_fuse(self, name, monkeypatch):
        """The registry spellings dispatch to their family kernel and stay
        bit-identical."""
        calls = []
        real = kernels_mod.run_fused

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(kernels_mod, "run_fused", spy)
        instances = _uniform_instances(2, T=24, B=4, r=2, seed=6)
        fused = simulate_batch(instances, name, delta=0.5)
        assert len(calls) == 1
        loop = simulate_batch(instances, name, delta=0.5, fuse=False)
        _assert_batches_equal(fused, loop)


class TestNearestChaserTies:
    def test_exact_ties_resolve_to_first_request(self, monkeypatch):
        """Duplicate equidistant requests on the kernel path: argmin must
        keep the scalar first-index tie-break."""
        calls = []
        real = kernels_mod.run_fused

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(kernels_mod, "run_fused", spy)
        ties = np.array([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0]])
        far = np.array([[0.5, 2.0], [0.5, 2.0], [0.5, -2.0]])
        seq = RequestSequence.from_packed(np.stack([ties, far, ties]))
        inst = MSPInstance(seq, start=np.zeros(2), D=1.0, m=1.0)
        fused = simulate_batch([inst], "nearest-chaser", delta=0.0)
        assert len(calls) == 1
        np.testing.assert_array_equal(fused.positions[0, 1], [1.0, 0.0])
        reference = simulate_batch([inst], "nearest-chaser", delta=0.0, fuse=False)
        _assert_batches_equal(fused, reference)


# -- dispatch and toggles --------------------------------------------------


class TestFusionDispatch:
    def test_every_kernel_is_registered_on_its_algorithm(self):
        from repro.algorithms import KernelAlgorithm, make_algorithm, make_vectorized

        for name in KERNEL_ALGOS:
            algo = make_vectorized(name)
            assert isinstance(algo, KernelAlgorithm)
            assert algo.kernel is kernel_for(name) is KERNELS[name]
            assert algo.name == make_algorithm(name).name
        # Variant registry names are bound to their family's kernel ...
        assert kernel_for("lazy-aggressive") is KERNELS["lazy"]
        assert kernel_for("follow-smooth") is KERNELS["follow-last"]
        # ... and the per-lane-RNG algorithm stays unkerneled.
        assert kernel_for("coin-flip") is None
        assert not isinstance(make_vectorized("coin-flip"), KernelAlgorithm)

    def test_set_fusion_returns_previous_state(self):
        assert fusion_enabled()
        assert set_fusion(False) is True
        try:
            assert not fusion_enabled()
            assert set_fusion(True) is False
        finally:
            set_fusion(True)
        assert fusion_enabled()

    def test_fusion_context_manager_restores_on_exit(self):
        with fusion(False):
            assert not fusion_enabled()
            with fusion(True):
                assert fusion_enabled()
            assert not fusion_enabled()
        assert fusion_enabled()

    def _count_fused_calls(self, monkeypatch):
        calls = []
        real = kernels_mod.run_fused

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(kernels_mod, "run_fused", spy)
        return calls

    def test_auto_dispatch_uses_kernel_when_enabled(self, monkeypatch):
        calls = self._count_fused_calls(monkeypatch)
        instances = _uniform_instances(2, T=10, B=3, r=2)
        simulate_batch(instances, "static", delta=0.5)
        assert len(calls) == 1

    def test_auto_dispatch_respects_global_toggle(self, monkeypatch):
        calls = self._count_fused_calls(monkeypatch)
        instances = _uniform_instances(2, T=10, B=3, r=2)
        with fusion(False):
            simulate_batch(instances, "static", delta=0.5)
        assert calls == []

    def test_no_kernel_for_unkerneled_algorithm(self, monkeypatch):
        calls = self._count_fused_calls(monkeypatch)
        instances = _uniform_instances(2, T=10, B=3, r=2)
        simulate_batch(instances, "coin-flip", delta=0.5)
        assert calls == []

    @pytest.mark.parametrize("name", ["mtc-answer-first", "mtc-moving-client",
                                      "mtc-multi-agent"])
    def test_mtc_subclasses_never_fuse(self, name, monkeypatch):
        """Kernels are bound by registry name, so the MtC subclasses stay
        on their own scalar rules even on packed ℓ2 stacks."""
        from repro.algorithms import make_algorithm
        from repro.core import simulate
        from repro.extensions import MultiAgentMtC

        calls = self._count_fused_calls(monkeypatch)
        r, model = 3, CostModel.MOVE_FIRST
        if name == "mtc-answer-first":
            model = CostModel.ANSWER_FIRST
        if name == "mtc-moving-client":
            r = 1
        instances = _uniform_instances(2, T=12, B=3, r=r, model=model)
        if name == "mtc-multi-agent":
            factory = lambda: MultiAgentMtC(n_agents=r)  # noqa: E731
            algorithm = factory
        else:
            factory = lambda: make_algorithm(name)  # noqa: E731
            algorithm = name
            assert kernel_for(name) is None
        batch = simulate_batch(instances, algorithm, delta=0.5)
        assert calls == []
        assert batch.algorithm == factory().name
        for i, inst in enumerate(instances):
            scalar = simulate(inst, factory(), delta=0.5)
            np.testing.assert_array_equal(batch.positions[i], scalar.positions)
            np.testing.assert_array_equal(batch.service_costs[i], scalar.service_costs)


# -- cross-cell mega-batching ----------------------------------------------


def _scenario(algorithm: str, *, delta: float, seeds, source: str = "random-walk",
              ratio: str = "none", T: int = 30) -> Scenario:
    params = {"T": T, "dim": 2, "D": 2.0, "m": 1.0,
              "sigma": 0.3, "spread": 0.4, "requests_per_step": 2}
    if source == "drift":
        params = {"T": T, "dim": 2, "D": 2.0, "m": 1.0,
                  "speed": 0.6, "spread": 0.2, "requests_per_step": 2}
    return Scenario.workload(source, algorithm, params=params, seeds=seeds,
                             delta=delta, ratio=ratio)


def _values_equal(va, vb, path: str) -> None:
    if isinstance(va, dict):
        assert isinstance(vb, dict) and set(va) == set(vb), path
        for k in va:
            _values_equal(va[k], vb[k], f"{path}.{k}")
    elif isinstance(va, (list, tuple, np.ndarray)) and not isinstance(va, str):
        np.testing.assert_array_equal(np.asarray(va), np.asarray(vb),
                                      err_msg=path)
    else:
        assert va == vb, path


def _payloads_equal(a: dict, b: dict) -> None:
    """Payload equality modulo wall-clock (the only licensed difference)."""
    assert set(a) == set(b)
    for key in a:
        if key != "elapsed":
            _values_equal(a[key], b[key], key)


class TestMegaBatching:
    #: A sweep that differs only in seed/δ/source — one mega group per
    #: (algorithm, T, dim), i.e. all four cells fuse into one wide pass.
    def _sweep(self, algorithm: str = "greedy-centroid") -> list[Scenario]:
        return [
            _scenario(algorithm, delta=d, seeds=[10 + s, 20 + s], source=src)
            for d in (0.25, 1.0)
            for s, src in enumerate(("random-walk", "drift"))
        ]

    @pytest.mark.parametrize("algorithm", ["greedy-centroid", "work-function"])
    def test_one_seed_cells_run_as_one_wide_pass(self, algorithm, monkeypatch):
        """E13's shape: one one-seed bracket cell per 1-D suite source under
        one algorithm runs as the lanes of a single simulate_batch call,
        with payloads equal to the scalar reference apart from wall-clock
        and the engine label."""
        import repro.api.runtime as runtime_mod
        from repro.workloads import SUITE_NAMES, suite_entry

        sources = dict(suite_entry(name, 1) for name in SUITE_NAMES)
        scenarios = [
            Scenario.workload(source, algorithm,
                              params={"T": 24, "dim": 1, "D": 4.0, "m": 1.0, **extra},
                              seeds=(3,), delta=0.5, ratio="bracket")
            for source, extra in sources.items()
        ]
        lanes: list[int] = []
        original = runtime_mod.simulate_batch

        def spy(instances, *args, **kwargs):
            lanes.append(len(instances))
            return original(instances, *args, **kwargs)

        monkeypatch.setattr(runtime_mod, "simulate_batch", spy)
        grouped = run_many(scenarios)
        assert lanes == [len(scenarios)]
        for sc, res in zip(scenarios, grouped):
            assert res.engine == "batched"
            reference = run(sc.with_(engine="scalar")).as_payload()
            assert reference["engine"] == "scalar"
            payload = res.as_payload()
            reference["scenario"] = payload["scenario"]
            reference["engine"] = payload["engine"]
            _payloads_equal(payload, reference)

    def test_ragged_instances_point_at_scalar_engine(self):
        sc = _scenario("greedy-centroid", delta=0.5, seeds=[0, 1])
        ragged = [build_instances(sc.with_(source_params={**sc.source_kwargs(), "T": T},
                                           seeds=[s]))[0][0]
                  for s, T in ((0, 20), (1, 30))]
        with pytest.raises(ValueError, match="engine='scalar'"):
            run(sc, instances=ragged)
        costs = run(sc.with_(engine="scalar"), instances=ragged).costs
        assert costs.shape == (2,)

    def test_run_many_matches_individual_runs(self):
        scenarios = self._sweep()
        grouped = run_many(scenarios)
        for sc, res in zip(scenarios, grouped):
            assert res.engine == "batched"
            _payloads_equal(res.as_payload(), run(sc).as_payload())

    def test_run_many_matches_no_fuse(self):
        scenarios = self._sweep("nearest-chaser")
        grouped = run_many(scenarios)
        with fusion(False):
            ungrouped = run_many(scenarios)
        for a, b in zip(grouped, ungrouped):
            _payloads_equal(a.as_payload(), b.as_payload())

    def test_bracket_certified_cells_mega_batch(self):
        """ratio="bracket" cells join the group; measurements are identical."""
        scenarios = [_scenario("greedy-centroid", delta=d, seeds=[7, 8],
                               ratio="bracket", T=20) for d in (0.5, 1.0)]
        grouped = run_many(scenarios)
        for sc, res in zip(scenarios, grouped):
            assert res.measurements is not None
            _payloads_equal(res.as_payload(), run(sc).as_payload())

    def test_store_digests_unchanged_and_cache_hits(self, tmp_path):
        """Mega-batched results land under each cell's standalone digest,
        so a re-run (and a fusion-off run) is a pure cache hit."""
        scenarios = self._sweep()
        store = ResultsStore(tmp_path / "store")
        first = run_many(scenarios, store=store)
        assert all(not r.cached for r in first)
        for sc in scenarios:
            assert store.load_or_none(sc.digest()) is not None
        again = run_many(scenarios, store=store)
        assert all(r.cached for r in again)
        with fusion(False):
            off = run_many(scenarios, store=store)
        assert all(r.cached for r in off)
        for a, b in zip(first, again):
            _payloads_equal(a.as_payload(), b.as_payload())

    def test_mixed_algorithms_split_into_groups(self):
        scenarios = (self._sweep("greedy-centroid")[:2]
                     + self._sweep("static")[:2]
                     + [_scenario("mtc", delta=0.5, seeds=[3, 4])])
        results = run_many(scenarios)
        for sc, res in zip(scenarios, results):
            _payloads_equal(res.as_payload(), run(sc).as_payload())

    def test_two_mtc_cells_pack_without_warm_start_leaks(self):
        """Regression: mtc's per-lane warm-start centers must stay inside
        their own cell when two mtc cells pack into one wide simulate_batch
        (and when the loop path replays the same pack with fusion off)."""
        scenarios = [_scenario("mtc", delta=d, seeds=[1, 2]) for d in (0.25, 1.0)]
        keys = {_mega_key(sc, build_instances(sc)[0]) for sc in scenarios}
        assert len(keys) == 1  # both cells really share one mega group
        for fuse_on in (True, False):
            with fusion(fuse_on):
                grouped = run_many(scenarios)
                for sc, res in zip(scenarios, grouped):
                    _payloads_equal(res.as_payload(), run(sc).as_payload())

    def test_adversarial_scenarios_mega_batch(self):
        scenarios = [
            Scenario.adversary("thm2", "mtc",
                               params={"delta": d, "cycles": 2, "dim": 2},
                               seeds=[5, 6], delta=d)
            for d in (0.5, 1.0)
        ]
        grouped = run_many(scenarios)
        for sc, res in zip(scenarios, grouped):
            assert res.ratios is not None
            _payloads_equal(res.as_payload(), run(sc).as_payload())

    def test_cell_run_group_matches_cell_run(self):
        """The orchestrator's grouped entry point is bit-identical to the
        per-cell function (the contract that keeps content addresses
        standalone)."""
        runner = cell_run.group_runner
        assert callable(runner)
        calls = [({"scenario": sc.cache_dict()}, None) for sc in self._sweep()]
        grouped = runner(calls)
        for (params, deps), payload in zip(calls, grouped):
            _payloads_equal(payload, cell_run(params["scenario"], deps))
