"""Tests for the content-addressed results store (repro.core.store)."""

import os

import numpy as np
import pytest

from repro.api import Scenario, run_many
from repro.core.store import (
    MISSING,
    ResultsStore,
    digest_key,
    load_payload,
    pack_payload,
    save_payload,
    unpack_payload,
)
from repro.experiments.runner import ExperimentResult


class TestPayloadPacking:
    def test_scalars_and_structures_roundtrip(self):
        payload = {
            "a": 1,
            "b": 0.1 + 0.2,  # not exactly representable in decimal
            "c": "text",
            "d": None,
            "e": True,
            "nested": {"list": [1, 2.5, "x", [None, False]]},
        }
        skeleton, arrays = pack_payload(payload)
        assert arrays == []
        assert unpack_payload(skeleton, arrays) == payload

    def test_arrays_bit_exact(self):
        rng = np.random.default_rng(0)
        payload = {"x": rng.standard_normal(17), "meta": {"y": rng.integers(0, 9, size=4)}}
        skeleton, arrays = pack_payload(payload)
        out = unpack_payload(skeleton, arrays)
        assert out["x"].dtype == np.float64
        np.testing.assert_array_equal(out["x"], payload["x"])
        np.testing.assert_array_equal(out["meta"]["y"], payload["meta"]["y"])

    def test_numpy_scalars_converted_losslessly(self):
        value = np.float64(1.0) / np.float64(3.0)
        skeleton, _ = pack_payload({"v": value})
        assert skeleton["v"] == float(value)
        assert isinstance(skeleton["v"], float)

    def test_tuples_become_lists(self):
        skeleton, _ = pack_payload({"t": (1, 2)})
        assert skeleton["t"] == [1, 2]

    def test_rejects_non_string_keys(self):
        with pytest.raises(TypeError, match="keys must be str"):
            pack_payload({1: "x"})

    def test_rejects_unknown_types(self):
        with pytest.raises(TypeError, match="unsupported payload"):
            pack_payload({"x": object()})

    def test_file_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        payload = {"arr": rng.standard_normal((5, 2)), "f": float(np.pi), "s": ["a", "b"]}
        path = save_payload(tmp_path / "cell", payload)
        assert path.suffix == ".npz"
        loaded = load_payload(path)
        np.testing.assert_array_equal(loaded["arr"], payload["arr"])
        assert loaded["f"] == payload["f"]
        assert loaded["s"] == payload["s"]


class TestDigestKey:
    def test_deterministic(self):
        assert digest_key("m:f", {"a": 1}) == digest_key("m:f", {"a": 1})

    def test_key_order_irrelevant(self):
        assert digest_key("m:f", {"a": 1, "b": 2}) == digest_key("m:f", {"b": 2, "a": 1})

    def test_params_change_digest(self):
        assert digest_key("m:f", {"a": 1}) != digest_key("m:f", {"a": 2})

    def test_fn_changes_digest(self):
        assert digest_key("m:f", {"a": 1}) != digest_key("m:g", {"a": 1})

    def test_dependency_digest_propagates(self):
        dep_a = digest_key("m:dep", {"x": 1})
        dep_b = digest_key("m:dep", {"x": 2})
        assert digest_key("m:f", {}, {"d": dep_a}) != digest_key("m:f", {}, {"d": dep_b})


class TestResultsStore:
    def test_save_contains_load(self, tmp_path):
        store = ResultsStore(tmp_path / "store")
        digest = digest_key("m:f", {"a": 1})
        assert digest not in store
        store.save(digest, {"v": 42})
        assert digest in store
        assert store.load(digest) == {"v": 42}
        assert len(store) == 1

    def test_delete(self, tmp_path):
        store = ResultsStore(tmp_path / "store")
        digest = digest_key("m:f", {})
        store.save(digest, {"v": 1})
        assert store.delete(digest)
        assert digest not in store
        assert not store.delete(digest)

    def test_missing_root_is_empty(self, tmp_path):
        store = ResultsStore(tmp_path / "nope")
        assert len(store) == 0
        assert "0" * 64 not in store


class TestSupersededBrackets:
    """Entries whose offline brackets predate their certificate fields are
    read as misses (same address, recomputed in place), never served."""

    OLD_BRACKET = {"lower": 1.0, "upper": 2.0, "method": "convex",
                   "positions": np.zeros((3, 2))}

    def test_old_bracket_payload_is_a_miss_and_stays_on_disk(self, tmp_path):
        store = ResultsStore(tmp_path / "store")
        digest = digest_key("repro.api.runtime:cell_brackets", {"seeds": [0]})
        store.save(digest, {"brackets": [self.OLD_BRACKET]})
        assert store.load_or_none(digest, MISSING) is MISSING
        assert digest in store
        current = dict(self.OLD_BRACKET, gap=0.5, converged=True, iterations=3)
        store.save(digest, {"brackets": [current]})
        assert store.load_or_none(digest, MISSING)["brackets"][0]["gap"] == 0.5

    def test_old_measurement_record_recomputes_in_run_many(self, tmp_path):
        store = ResultsStore(tmp_path / "store")
        sc = Scenario.workload("random-walk", "mtc", params={"T": 12, "dim": 2},
                               seeds=[0, 1], delta=0.5, ratio="bracket")
        fresh = run_many([sc], store=store)[0]
        old = fresh.as_payload()
        for key in ("opt_gap", "opt_converged"):
            del old["measures"][key]
        old["measures"]["opt_lower"] = old["measures"]["opt_lower"] * 2.0  # a stale number
        store.save(sc.digest(), old)
        again = run_many([sc], store=store)[0]
        assert not again.cached
        assert [m.opt_lower for m in again.measurements] == [m.opt_lower for m in fresh.measurements]
        assert "opt_gap" in store.load(sc.digest())["measures"]
        assert run_many([sc], store=store)[0].cached


class TestExperimentResultPersistence:
    def _result(self):
        return ExperimentResult(
            experiment_id="EX",
            title="a title",
            headers=["name", "n", "ratio"],
            rows=[["alpha", 3, 0.1 + 0.2], ["beta", 7, float(np.float64(1) / 3)]],
            notes=["criterion: something", "value: 1.23"],
            passed=False,
        )

    def test_payload_roundtrip_exact(self):
        res = self._result()
        back = ExperimentResult.from_payload(res.as_payload())
        assert back.rows == [list(r) for r in res.rows]
        assert back.render() == res.render()
        assert back.csv() == res.csv()
        assert back.passed is False

    def test_save_load_roundtrip_exact(self, tmp_path):
        res = self._result()
        path = res.save(tmp_path / "result")
        back = ExperimentResult.load(path)
        assert back.render() == res.render()
        assert back.rows[0][2] == res.rows[0][2]  # float preserved to the last bit


class TestStoreGC:
    def _filled_store(self, tmp_path, n=4):
        store = ResultsStore(tmp_path / "store")
        digests = []
        for i in range(n):
            digest = digest_key("pkg.mod:fn", {"i": i})
            store.save(digest, {"x": np.arange(100) + i})
            # Distinct, strictly increasing mtimes so LRU order is exact.
            entry = store.path_for(digest)
            os.utime(entry, (1_000_000 + i, 1_000_000 + i))
            digests.append(digest)
        return store, digests

    def test_size_bytes_counts_entries(self, tmp_path):
        store, _ = self._filled_store(tmp_path)
        assert store.size_bytes() > 0
        assert ResultsStore(tmp_path / "nope").size_bytes() == 0

    def test_gc_noop_when_under_budget(self, tmp_path):
        store, digests = self._filled_store(tmp_path)
        stats = store.gc(store.size_bytes())
        assert stats.evicted == 0 and stats.freed_bytes == 0
        assert all(d in store for d in digests)

    def _budget_for(self, store, digests):
        """A byte budget that fits exactly the given entries."""
        return sum(store.path_for(d).stat().st_size for d in digests)

    def test_gc_evicts_oldest_first(self, tmp_path):
        store, digests = self._filled_store(tmp_path)
        stats = store.gc(self._budget_for(store, digests[2:]))
        assert stats.evicted == 2
        assert digests[0] not in store and digests[1] not in store
        assert digests[2] in store and digests[3] in store
        assert stats.remaining_entries == 2
        assert stats.remaining_bytes == store.size_bytes()

    def test_load_refreshes_recency(self, tmp_path):
        store, digests = self._filled_store(tmp_path)
        budget = self._budget_for(store, [digests[0], digests[3]])
        store.load(digests[0])  # a cache hit makes the oldest entry newest
        stats = store.gc(budget)
        assert stats.evicted == 2
        assert digests[0] in store
        assert digests[1] not in store and digests[2] not in store

    def test_gc_to_zero_clears_store(self, tmp_path):
        store, _ = self._filled_store(tmp_path)
        stats = store.gc(0)
        assert stats.evicted == 4 and len(store) == 0
        assert stats.remaining_bytes == 0

    def test_gc_rejects_negative_budget(self, tmp_path):
        store, _ = self._filled_store(tmp_path)
        with pytest.raises(ValueError, match="non-negative"):
            store.gc(-1)

    def test_gc_never_evicts_pinned_entries(self, tmp_path):
        # Live serve-session checkpoints pin themselves: even a zero
        # budget must not evict them, and they still count in the total.
        store, digests = self._filled_store(tmp_path)
        store.pin(digests[0])
        store.pin(digests[2])
        assert store.pinned() == {digests[0], digests[2]}
        stats = store.gc(0)
        assert stats.evicted == 2
        assert digests[0] in store and digests[2] in store
        assert digests[1] not in store and digests[3] not in store
        assert stats.remaining_bytes == store.size_bytes() > 0

    def test_unpin_makes_entry_evictable_again(self, tmp_path):
        store, digests = self._filled_store(tmp_path)
        store.pin(digests[0])
        store.gc(0)
        assert digests[0] in store
        store.unpin(digests[0])
        assert store.pinned() == frozenset()
        store.gc(0)
        assert digests[0] not in store and len(store) == 0

    def test_unpin_unknown_digest_is_noop(self, tmp_path):
        store = ResultsStore(tmp_path / "store")
        store.unpin("never-pinned")
        assert store.pinned() == frozenset()
