"""Tests for the algorithm registry."""

import pytest

from repro.algorithms import OnlineAlgorithm, available_algorithms, make_algorithm, register
from repro.algorithms.registry import ALGORITHMS


class TestRegistry:
    def test_all_names_instantiate(self):
        for name in available_algorithms():
            alg = make_algorithm(name)
            assert isinstance(alg, OnlineAlgorithm)

    def test_expected_core_entries(self):
        names = available_algorithms()
        for expected in ("mtc", "static", "greedy-center", "move-to-min", "coin-flip",
                         "work-function", "lazy", "follow-last", "retrospective"):
            assert expected in names

    def test_unknown_name_raises_with_choices(self):
        with pytest.raises(KeyError, match="available"):
            make_algorithm("definitely-not-registered")

    def test_register_and_use(self):
        from repro.algorithms import StaticServer

        register("test-static", StaticServer)
        try:
            assert isinstance(make_algorithm("test-static"), StaticServer)
        finally:
            del ALGORITHMS["test-static"]

    def test_register_duplicate_rejected(self):
        from repro.algorithms import StaticServer

        with pytest.raises(KeyError, match="already"):
            register("mtc", StaticServer)

    def test_register_overwrite_allowed(self):
        from repro.algorithms import StaticServer

        original = ALGORITHMS["mtc"]
        try:
            register("mtc", StaticServer, overwrite=True)
            assert isinstance(make_algorithm("mtc"), StaticServer)
        finally:
            ALGORITHMS["mtc"] = original

    def test_factories_give_fresh_instances(self):
        a = make_algorithm("lazy")
        b = make_algorithm("lazy")
        assert a is not b

    def test_sorted_output(self):
        names = available_algorithms()
        assert names == sorted(names)


class TestCapabilities:
    def test_default_entry_supports_everything(self):
        from repro.algorithms import algorithm_info

        info = algorithm_info("mtc")
        assert info.supported_dims is None
        assert not info.requires_moving_client
        assert info.supports_dim(1) and info.supports_dim(7)

    def test_declared_restrictions(self):
        from repro.algorithms import algorithm_info

        assert algorithm_info("work-function").supported_dims == (1,)
        assert algorithm_info("mtc-moving-client").requires_moving_client

    def test_compatible_filtering(self):
        from repro.algorithms import compatible_algorithms

        dim1 = compatible_algorithms(dim=1, moving_client=False)
        dim2 = compatible_algorithms(dim=2, moving_client=False)
        assert "work-function" in dim1 and "work-function" not in dim2
        assert "mtc-moving-client" not in dim1
        assert "mtc-moving-client" in compatible_algorithms(dim=1, moving_client=True)

    def test_unknown_name_raises(self):
        from repro.algorithms import algorithm_info

        with pytest.raises(KeyError, match="available"):
            algorithm_info("nope")

    def test_register_with_capabilities(self):
        from repro.algorithms import StaticServer, algorithm_info, compatible_algorithms

        register("test-1d-only", StaticServer, supported_dims=(1,))
        try:
            assert algorithm_info("test-1d-only").supported_dims == (1,)
            assert "test-1d-only" not in compatible_algorithms(dim=2)
        finally:
            del ALGORITHMS["test-1d-only"]

    def test_overwrite_without_caps_preserves_metadata(self):
        from repro.algorithms import StaticServer, algorithm_info

        original = ALGORITHMS["work-function"]
        try:
            register("work-function", StaticServer, overwrite=True)
            assert algorithm_info("work-function").supported_dims == (1,)
        finally:
            ALGORITHMS["work-function"] = original

    def test_overwrite_with_caps_replaces_metadata(self):
        from repro.algorithms import StaticServer, algorithm_info
        from repro.algorithms.registry import _CAPABILITIES

        original = ALGORITHMS["work-function"]
        original_caps = _CAPABILITIES.get("work-function")
        try:
            register("work-function", StaticServer, overwrite=True,
                     supported_dims=(1, 2))
            assert algorithm_info("work-function").supported_dims == (1, 2)
        finally:
            ALGORITHMS["work-function"] = original
            if original_caps is not None:
                _CAPABILITIES["work-function"] = original_caps


class TestCostModelCapability:
    def test_answer_first_entry_declared(self):
        from repro.algorithms import algorithm_info

        info = algorithm_info("mtc-answer-first")
        assert info.cost_models == ("answer-first",)
        assert info.supports_cost_model("answer-first")
        assert not info.supports_cost_model("move-first")

    def test_default_entries_support_all_models(self):
        from repro.algorithms import algorithm_info
        from repro.core import CostModel

        info = algorithm_info("mtc")
        assert info.supports_cost_model(CostModel.MOVE_FIRST)
        assert info.supports_cost_model(CostModel.ANSWER_FIRST)

    def test_compatible_filters_by_cost_model(self):
        from repro.algorithms import compatible_algorithms

        default = compatible_algorithms(dim=1, moving_client=False)
        assert "mtc-answer-first" not in default  # move-first is the default
        af = compatible_algorithms(dim=1, moving_client=False, cost_model="answer-first")
        assert "mtc-answer-first" in af
        assert "mtc-answer-first" in compatible_algorithms(dim=1, cost_model=None)


class TestVectorizedFlag:
    def test_parameterized_factory(self):
        from repro.algorithms import MoveToCenter, make_algorithm

        alg = make_algorithm("mtc", step_scale=0.25)
        assert isinstance(alg, MoveToCenter) and alg.step_scale == 0.25
        with pytest.raises(TypeError):
            make_algorithm("lazy-aggressive", threshold_factor=0.5)  # lambda entry
