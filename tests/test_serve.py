"""Streaming serve subsystem parity (:mod:`repro.serve`).

The tentpole contract: a request stream fed step by step through a
:class:`~repro.serve.pool.SessionPool` — in any pool composition, with
fused or unfused kernels, and across a checkpoint/resume cycle — must
reproduce the batched engine's per-step costs and positions
**bit-identically** for every vectorized algorithm.  Every comparison
here is exact (``trace_json`` round-trips float64 via ``repr``, so JSON
equality is bit equality), never approximate.
"""

import numpy as np
import pytest

from repro.algorithms.vectorized import VECTORIZED, KernelAlgorithm
from repro.api import Scenario, run
from repro.core import KERNELS
from repro.core.store import ResultsStore
from repro.serve import (
    CheckpointLog,
    SessionPool,
    SessionSpec,
    batch_reference,
    poolable,
    request_stream_digest,
    save_session_checkpoint,
    stream_scenario,
    trace_json,
)

VEC_NAMES = sorted(VECTORIZED)
#: Kernels serve waves step one step at a time; "stack" kernels pool
#: earlier steps and run through the scalar adapter.
WAVE_KERNELS = sorted(name for name, k in KERNELS.items() if k.layout != "stack")
COST_MODELS = ("move-first", "answer-first")


def make_history(rng, steps, dim, *, max_r=3, allow_empty=True):
    """A ragged request stream: per-step (r_t, dim) arrays, r_t varying."""
    lo = 0 if allow_empty else 1
    return [
        rng.normal(size=(int(rng.integers(lo, max_r + 1)), dim))
        for _ in range(steps)
    ]


def make_spec(algorithm, *, dim=2, cost_model="move-first", seed=0, **kw):
    rng = np.random.default_rng(seed)
    return SessionSpec(
        algorithm=algorithm,
        dim=dim,
        start=tuple(float(x) for x in rng.normal(size=dim)),
        D=1.5,
        m=0.7,
        cost_model=cost_model,
        delta=0.25,
        **kw,
    )


def stream_one(spec, history, *, fuse=None):
    pool = SessionPool(fuse=fuse)
    session = pool.open(spec, "lane")
    for step, points in enumerate(history):
        session.feed(points, at=step)
        pool.tick()
    return session


def assert_bit_identical(session, reference):
    streamed = session.trace()
    assert trace_json(streamed) == trace_json(reference)
    assert streamed.positions.tobytes() == reference.positions.tobytes()
    assert streamed.movement_costs.tobytes() == reference.movement_costs.tobytes()
    assert streamed.service_costs.tobytes() == reference.service_costs.tobytes()


class TestSingleLaneParity:
    @pytest.mark.parametrize("cost_model", COST_MODELS)
    @pytest.mark.parametrize("algorithm", VEC_NAMES)
    def test_every_vectorized_algorithm(self, algorithm, cost_model):
        rng = np.random.default_rng(7)
        spec = make_spec(algorithm, cost_model=cost_model)
        history = make_history(rng, 25, spec.dim)
        session = stream_one(spec, history)
        assert_bit_identical(session, batch_reference(spec, history))

    @pytest.mark.parametrize("algorithm", ("mtc", "lazy", "coin-flip"))
    def test_unfused_path_matches(self, algorithm):
        rng = np.random.default_rng(11)
        spec = make_spec(algorithm, dim=3)
        history = make_history(rng, 20, spec.dim)
        fused = stream_one(spec, history, fuse=True)
        unfused = stream_one(spec, history, fuse=False)
        reference = batch_reference(spec, history, fuse=False)
        assert trace_json(fused.trace()) == trace_json(unfused.trace())
        assert_bit_identical(unfused, reference)

    def test_scalar_adapter_lane(self):
        # algorithm_params force the scalar-adapter path (not poolable);
        # it must still bit-match the batch engine's adapter path.
        rng = np.random.default_rng(13)
        spec = make_spec("mtc", algorithm_params={"step_scale": 0.25})
        assert not poolable(spec)
        history = make_history(rng, 15, spec.dim)
        session = stream_one(spec, history)
        assert_bit_identical(session, batch_reference(spec, history))


class TestPooledParity:
    def test_mixed_pool_lanes_stay_independent(self):
        # Different algorithms, dims and cost models in ONE pool: each
        # lane must still reproduce its own B=1 batch run exactly.
        rng = np.random.default_rng(17)
        specs = [
            make_spec("mtc", dim=2, seed=1),
            make_spec("greedy-centroid", dim=3, seed=2),
            make_spec("lazy", dim=2, cost_model="answer-first", seed=3),
            make_spec("coin-flip", dim=2, seed=4),
            make_spec("nearest-chaser", dim=5, seed=5),
        ]
        histories = [make_history(rng, 18, s.dim) for s in specs]
        pool = SessionPool()
        sessions = [pool.open(s, f"lane{i}") for i, s in enumerate(specs)]
        for step in range(18):
            for i, session in enumerate(sessions):
                session.feed(histories[i][step], at=step)
            pool.tick()
        for session, spec, history in zip(sessions, specs, histories):
            assert_bit_identical(session, batch_reference(spec, history))

    def test_same_algorithm_wave_packs_wide(self):
        # Lanes sharing (algorithm, dim, cost model) advance as one wide
        # wave — results must equal each lane's solo batch run.
        rng = np.random.default_rng(19)
        specs = [make_spec("greedy-center", seed=s) for s in range(6)]
        histories = [make_history(rng, 22, 2) for _ in specs]
        pool = SessionPool()
        sessions = [pool.open(s, f"w{i}") for i, s in enumerate(specs)]
        for step in range(22):
            for i, session in enumerate(sessions):
                session.feed(histories[i][step], at=step)
            pool.tick()
        for session, spec, history in zip(sessions, specs, histories):
            assert_bit_identical(session, batch_reference(spec, history))

    def test_ragged_request_counts_subgroup(self):
        # Lanes with differing per-step r land in different sub-waves;
        # each still matches its own reference including empty steps.
        rng = np.random.default_rng(23)
        specs = [make_spec("follow-last", seed=s) for s in range(4)]
        histories = [
            [rng.normal(size=(r, 2)) for r in (0, 1, 2, 3, 0, 2, 1, 4, 0, 1)],
            [rng.normal(size=(r, 2)) for r in (1, 1, 0, 3, 2, 2, 1, 0, 4, 1)],
            [rng.normal(size=(r, 2)) for r in (2, 0, 2, 0, 2, 0, 2, 0, 2, 0)],
            [rng.normal(size=(r, 2)) for r in (3, 3, 3, 3, 3, 3, 3, 3, 3, 3)],
        ]
        pool = SessionPool()
        sessions = [pool.open(s, f"r{i}") for i, s in enumerate(specs)]
        for step in range(10):
            for i, session in enumerate(sessions):
                session.feed(histories[i][step], at=step)
            pool.tick()
        for session, spec, history in zip(sessions, specs, histories):
            assert_bit_identical(session, batch_reference(spec, history))

    def test_dynamic_membership(self):
        # Opening a lane mid-stream and closing another must not perturb
        # the survivors: carried lane state licenses re-packing.
        rng = np.random.default_rng(29)
        spec_a = make_spec("move-to-min", seed=1)
        spec_b = make_spec("move-to-min", seed=2)
        spec_c = make_spec("move-to-min", seed=3)
        hist_a = make_history(rng, 20, 2)
        hist_b = make_history(rng, 12, 2)
        hist_c = make_history(rng, 10, 2)

        pool = SessionPool()
        a = pool.open(spec_a, "a")
        b = pool.open(spec_b, "b")
        for step in range(12):
            a.feed(hist_a[step], at=step)
            b.feed(hist_b[step], at=step)
            pool.tick()
        pool.close("b")
        c = pool.open(spec_c, "c")
        for step in range(12, 20):
            a.feed(hist_a[step], at=step)
            c.feed(hist_c[step - 12], at=step - 12)
            pool.tick()
        c.feed_steps(hist_c[8:], at=8)
        pool.drain()

        assert_bit_identical(a, batch_reference(spec_a, hist_a))
        assert_bit_identical(b, batch_reference(spec_b, hist_b))
        assert_bit_identical(c, batch_reference(spec_c, hist_c))

    def test_staggered_scalar_adapter_lanes_share_one_wave(self, monkeypatch):
        # coin-flip has no kernel: its lanes share one adapter wave per
        # tick even when they sit at different steps with ragged counts.
        import repro.serve.pool as pool_module

        calls = []
        real = pool_module.advance_lanes

        def spy(algo, t, positions, step, **kw):
            calls.append(np.array(t, copy=True))
            return real(algo, t, positions, step, **kw)

        monkeypatch.setattr(pool_module, "advance_lanes", spy)
        rng = np.random.default_rng(37)
        opens = [0, 3, 7, 8]
        specs = [make_spec("coin-flip", seed=s) for s in range(len(opens))]
        assert not any(poolable(spec) for spec in specs)
        histories = [make_history(rng, 20 - o, 2) for o in opens]
        pool = SessionPool()
        sessions = [None] * len(specs)
        for tick in range(20):
            for i, spec in enumerate(specs):
                if tick == opens[i]:
                    sessions[i] = pool.open(spec, f"c{i}")
                if tick >= opens[i]:
                    sessions[i].feed(histories[i][tick - opens[i]], at=tick - opens[i])
            pool.tick()
        assert len(calls) == 20  # one advance_lanes call per tick
        assert calls[-1].tolist() == [19 - o for o in opens]
        for session, spec, history in zip(sessions, specs, histories):
            assert_bit_identical(session, batch_reference(spec, history))

    def test_wide_packing_matches_solo_lanes(self):
        # A lane advanced inside a packed wave must equal the same lane
        # advanced alone in its own pool.
        rng = np.random.default_rng(31)
        specs = [make_spec("nearest-chaser", seed=s) for s in range(3)]
        histories = [make_history(rng, 15, 2) for _ in specs]

        pool = SessionPool()
        wide = [pool.open(s, f"n{i}") for i, s in enumerate(specs)]
        for step in range(15):
            for i, session in enumerate(wide):
                session.feed(histories[i][step], at=step)
            pool.tick()

        for i, spec in enumerate(specs):
            solo_pool = SessionPool()
            solo = solo_pool.open(spec, "solo")
            solo.feed_steps(histories[i], at=0)
            solo_pool.drain()
            assert trace_json(wide[i].trace()) == trace_json(solo.trace())


def _wave_case(case, rng, steps=16):
    """``(histories, opens)``: four lanes' request streams and the tick
    each lane opens at (a lane closes once its stream is exhausted)."""
    if case == "r-changes":
        # r varies step to step (ragged reference runs), plus one lane
        # with a constant r whose reference is the fused engine path.
        histories = [[rng.normal(size=(int(rng.integers(1, 4)), 2))
                      for _ in range(steps)] for _ in range(3)]
        histories.append([rng.normal(size=(2, 2)) for _ in range(steps)])
        return histories, [0, 0, 0, 0]
    if case == "empty-steps":
        patterns = [
            (0, 0, 2, 2, 0, 0, 0, 2, 2, 0, 2, 0, 0, 0, 2, 2),
            (2, 0, 0, 0, 0, 2, 2, 2, 0, 2, 0, 0, 2, 2, 0, 0),
            (0,) * 6 + (2,) * 4 + (0,) * 6,
            (2, 2, 0, 2, 2, 0, 2, 2, 0, 2, 2, 0, 2, 2, 0, 2),
        ]
        return [[rng.normal(size=(r, 2)) for r in pat] for pat in patterns], [0, 0, 0, 0]
    # "recomposed": lanes join and leave mid-stream, so waves mix lanes
    # at different step indices and every wave composition is new.
    lengths, opens = (16, 7, 10, 6), [0, 0, 4, 9]
    histories = [[rng.normal(size=(int(rng.integers(0, 3)), 2)) for _ in range(n)]
                 for n in lengths]
    return histories, opens


class TestKernelWaves:
    """Every kernel serve waves step, in ragged, empty and recomposed waves."""

    @pytest.mark.parametrize("case", ["r-changes", "empty-steps", "recomposed"])
    @pytest.mark.parametrize("algorithm", WAVE_KERNELS)
    def test_wave_matches_batch_run(self, algorithm, case, monkeypatch):
        widths = []
        real = KernelAlgorithm.decide_batch

        def spy(self, t, positions, step):
            widths.append(positions.shape[0])
            return real(self, t, positions, step)

        monkeypatch.setattr(KernelAlgorithm, "decide_batch", spy)
        rng = np.random.default_rng(53)
        histories, opens = _wave_case(case, rng)
        specs = [make_spec(algorithm, seed=s) for s in range(len(histories))]
        assert all(poolable(spec) for spec in specs)
        pool = SessionPool(fuse=True)
        sessions = [None] * len(specs)
        for tick in range(max(o + len(h) for o, h in zip(opens, histories))):
            for i, spec in enumerate(specs):
                if tick == opens[i]:
                    sessions[i] = pool.open(spec, f"k{i}")
                step = tick - opens[i]
                if 0 <= step < len(histories[i]):
                    sessions[i].feed(histories[i][step], at=step)
            pool.tick()
            for i, session in enumerate(sessions):
                if session is not None and not session.closed and \
                        session.steps == len(histories[i]):
                    pool.close(session.session_id)
        assert max(widths) > 1  # lanes really shared kernel waves
        for session, spec, history in zip(sessions, specs, histories):
            assert session.steps == len(history)
            assert_bit_identical(session, batch_reference(spec, history))


def restored_histories(store, server_id="srv"):
    """What a fresh server would resume: session id -> (spec, history)."""
    return {sid: (spec, history)
            for sid, spec, history in CheckpointLog(store, server_id).restore()}


class TestCheckpointResume:
    def test_mid_trace_resume_is_bit_identical(self, tmp_path):
        # Kill-and-resume semantics without a subprocess: checkpoint a
        # session mid-stream, rebuild it in a fresh pool by replaying the
        # checkpointed history, feed the remainder — the final trace must
        # be byte-equal to the uninterrupted run.
        rng = np.random.default_rng(37)
        store = ResultsStore(tmp_path / "store")
        for algorithm in ("mtc", "coin-flip", "lazy-aggressive"):
            spec = make_spec(algorithm, seed=41)
            history = make_history(rng, 24, spec.dim)

            pool = SessionPool()
            live = pool.open(spec, "live")
            log = CheckpointLog(store, "srv")
            log.open(live)
            for step in range(14):
                live.feed(history[step], at=step)
                pool.tick()
            save_session_checkpoint(log, [live])

            loaded = restored_histories(store).get("live")
            assert loaded is not None
            restored_spec, restored_history = loaded
            assert restored_spec == spec
            assert len(restored_history) == 14

            pool2 = SessionPool()
            resumed = pool2.open(restored_spec, "live")
            resumed.feed_steps(restored_history, at=0)
            pool2.drain()
            for step in range(14, 24):
                resumed.feed(history[step], at=step)
                pool2.tick()

            assert_bit_identical(resumed, batch_reference(spec, history))
            log.close("live")

    def test_checkpoint_roundtrip_preserves_stream_digest(self, tmp_path):
        rng = np.random.default_rng(43)
        store = ResultsStore(tmp_path / "store")
        spec = make_spec("static")
        history = make_history(rng, 9, spec.dim)
        pool = SessionPool()
        session = pool.open(spec, "d")
        log = CheckpointLog(store, "srv")
        log.open(session)
        session.feed_steps(history, at=0)
        pool.drain()
        save_session_checkpoint(log, [session])
        loaded_spec, loaded_history = restored_histories(store)["d"]
        assert request_stream_digest(loaded_history, spec.dim) == session.stream_digest()

    def test_missing_head_restores_nothing(self, tmp_path):
        store = ResultsStore(tmp_path / "store")
        assert restored_histories(store) == {}

    def test_one_segment_per_wave_holds_every_due_session(self, tmp_path):
        rng = np.random.default_rng(53)
        store = ResultsStore(tmp_path / "store")
        log = CheckpointLog(store, "srv")
        pool = SessionPool()
        specs = {sid: make_spec("mtc", dim=dim, seed=i)
                 for i, (sid, dim) in enumerate((("a", 1), ("b", 2), ("c", 3)))}
        histories = {sid: make_history(rng, 10, spec.dim) for sid, spec in specs.items()}
        sessions = [pool.open(spec, sid) for sid, spec in specs.items()]
        for session in sessions:
            log.open(session)
        for cut in (4, 10):
            for session in sessions:
                session.feed_steps(histories[session.session_id][session.steps:cut],
                                   at=session.steps)
            pool.drain()
            before = len(store)
            save_session_checkpoint(log, sessions)
            assert len(store) == before + 1  # one segment; the head is rewritten
        assert {sid: len(chain) for sid, chain in log.chains.items()} == \
            {"a": 2, "b": 2, "c": 2}
        restored = restored_histories(store)
        for sid, (spec, history) in restored.items():
            assert spec == specs[sid]
            assert request_stream_digest(history, spec.dim) == \
                request_stream_digest(histories[sid], spec.dim)
        for sid in specs:
            log.close(sid)
        assert len(store) == 0


class TestScenarioStreaming:
    def test_stream_scenario_matches_api_run(self):
        scenario = Scenario.workload(
            "drift", "greedy-centroid", params={"T": 30, "dim": 2},
            seeds=(0, 1, 2), delta=0.3,
        )
        result = run(scenario, keep_traces=True)
        sessions = stream_scenario(scenario)
        assert len(sessions) == 3
        streamed_costs = np.array([s.total_cost for s in sessions])
        np.testing.assert_array_equal(streamed_costs, result.costs)
        for session, reference in zip(sessions, result.traces):
            assert trace_json(session.trace()) == trace_json(reference)


class TestSessionProtocol:
    def test_duplicate_feed_is_idempotent_gap_raises(self):
        spec = make_spec("mtc")
        pool = SessionPool()
        session = pool.open(spec, "p")
        pts = np.zeros((1, 2))
        assert session.feed(pts, at=0) is True
        assert session.feed(pts, at=0) is False  # replayed duplicate
        with pytest.raises(ValueError, match="gap"):
            session.feed(pts, at=5)
        with pytest.raises(ValueError):
            session.feed(np.zeros((1, 3)), at=1)  # wrong dim

    def test_closed_session_rejects_feeds(self):
        pool = SessionPool()
        session = pool.open(make_spec("static"), "c")
        session.feed(np.zeros((1, 2)), at=0)
        pool.close("c")
        assert session.closed
        with pytest.raises(RuntimeError):
            session.feed(np.zeros((1, 2)), at=1)

    def test_spec_roundtrips_through_dict(self):
        spec = make_spec("lazy", algorithm_params={"threshold": 2.0})
        assert SessionSpec.from_dict(spec.to_dict()) == spec
        with pytest.raises(ValueError):
            SessionSpec.from_dict({"algorithm": "mtc", "dim": 2,
                                   "start": [0.0, 0.0], "bogus": 1})

    def test_running_digest_matches_every_prefix(self):
        rng = np.random.default_rng(59)
        for dim in (1, 2, 3):
            spec = make_spec("greedy-centroid", dim=dim)
            history = make_history(rng, 12, dim)
            pool = SessionPool()
            session = pool.open(spec, "p")
            assert session.stream_digest() == request_stream_digest([], dim)
            for step, points in enumerate(history):
                session.feed(points, at=step)
                pool.tick()
                assert session.stream_digest() == \
                    request_stream_digest(history[:step + 1], dim)
                assert session.stream_digest() == \
                    request_stream_digest(session.history, dim)

    @pytest.mark.parametrize("field,value", [
        ("algorithm", "nope"),
        ("D", float("nan")), ("D", float("inf")),
        ("m", float("nan")), ("m", float("-inf")),
        ("delta", float("nan")), ("delta", float("inf")),
    ])
    def test_spec_rejects_unknown_algorithm_and_non_finite_knobs(self, field, value):
        payload = dict(make_spec("mtc").to_dict(), **{field: value})
        with pytest.raises(ValueError, match=field if field != "algorithm" else "unknown"):
            SessionSpec.from_dict(payload)

    def test_stream_digest_sensitivity(self):
        rng = np.random.default_rng(47)
        a = [rng.normal(size=(2, 2)), rng.normal(size=(1, 2))]
        base = request_stream_digest(a, 2)
        assert request_stream_digest(a, 2) == base
        assert request_stream_digest(list(reversed(a)), 2) != base
        assert request_stream_digest(a[:1], 2) != base
        perturbed = [a[0].copy(), a[1].copy()]
        perturbed[1][0, 0] += 1e-12
        assert request_stream_digest(perturbed, 2) != base
