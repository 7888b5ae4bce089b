"""Certificates of the offline bracket, and bit-for-bit Lemma-6 parity.

The offline bracket (:mod:`repro.offline.convex`) is tested for what it
certifies rather than for the trajectory of a particular solver: weak
duality (no dual value exceeds a feasible cost), nesting inside the exact
line DP's bracket, and regression pins on instances where the former
smoothed L-BFGS relaxation reported a "lower bound" above a cap-feasible
cost.

The solver's objective, dual value and iteration are array code over
grouped request stacks; the objective-parity tests hold each to a
per-step loop kept below as the reference.

The Figure-1 sampler in :mod:`repro.analysis.lemma6` is array code over
whole draws; it must perform the same floating-point operations, in the
same order, as the per-sample loop it replaced, which is kept below as
the reference.  Exact equality, never a tolerance.

``tests/data/golden_bracket.json`` pins the E5 and E17 tables (the two
experiments built on the convex bracket) at ``scale=0.15, seed=1``.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from repro.algorithms import MoveToCenter
from repro.analysis import Lemma6Report, RatioMeasurement, sample_lemma6
from repro.api import Scenario, build_instances, run
from repro.core import MSPInstance, RequestSequence, replay_cost, simulate
from repro.core.costs import CostModel
from repro.experiments import EXPERIMENTS
from repro.experiments.runner import unconverged_notes
from repro.offline import OptBracket, bracket_optimum, convex_bracket, project_to_cap, solve_line
from repro.offline import convex
from repro.workloads import DriftWorkload, PatrolAgentWorkload, RandomWalkWorkload

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_bracket.json"

with GOLDEN_PATH.open() as fh:
    GOLDEN = json.load(fh)


# -- references: the loops the array code is held to --------------------------


def reference_config_geometry(a1, a2, s2, angle_polar, angle_azim, dim):
    """Distances (h, q) for one concrete embedding of Figure 1."""
    p_alg = np.zeros(dim)
    p_alg2 = np.zeros(dim)
    p_alg2[0] = a1
    c = np.zeros(dim)
    c[0] = a1 + a2
    u = np.zeros(dim)
    if dim == 1:
        u[0] = np.sign(np.cos(angle_polar)) or 1.0
    elif dim == 2:
        u[0], u[1] = np.cos(angle_polar), np.sin(angle_polar)
    else:
        u[0] = np.cos(angle_polar)
        u[1] = np.sin(angle_polar) * np.cos(angle_azim)
        u[2] = np.sin(angle_polar) * np.sin(angle_azim)
    p_opt2 = c + s2 * u
    h = float(np.linalg.norm(p_opt2 - p_alg))
    q = float(np.linalg.norm(p_opt2 - p_alg2))
    return h, q


def reference_sample_lemma6(delta, n_samples, dim, rng, premise, acute_only,
                            tolerance=1e-9, scale=10.0):
    """The per-sample Lemma-6 check, drawing in the library's RNG order."""
    if premise == "paper":
        bound_premise = np.sqrt(delta) / (1.0 + 0.5 * delta)
    else:
        bound_premise = np.sqrt(delta) / (1.0 + delta)
    bound_conclusion = (1.0 + 0.5 * delta) / (1.0 + delta)
    a1 = np.exp(rng.uniform(np.log(1e-3), np.log(scale), size=n_samples))
    a2 = np.exp(rng.uniform(np.log(1e-3), np.log(scale), size=n_samples))
    s2 = rng.uniform(0.0, 1.0, size=n_samples) * bound_premise * a2
    if acute_only:
        polar = rng.uniform(-0.5 * np.pi, 0.5 * np.pi, size=n_samples)
    else:
        polar = rng.uniform(0.0, 2.0 * np.pi, size=n_samples)
    azim = rng.uniform(0.0, 2.0 * np.pi, size=n_samples)
    violations = 0
    min_slack = np.inf
    min_rel = np.inf
    for i in range(n_samples):
        h, q = reference_config_geometry(a1[i], a2[i], s2[i], polar[i], azim[i], dim)
        slack = (h - q) - bound_conclusion * a1[i]
        if slack < -tolerance * max(1.0, a1[i]):
            violations += 1
        min_slack = min(min_slack, slack)
        min_rel = min(min_rel, slack / a1[i])
    return Lemma6Report(n_checked=n_samples, violations=violations,
                        min_slack=float(min_slack), min_slack_relative=float(min_rel))


def _served_row(instance, t):
    """Primal row (``P_{row+1}``) serving step ``t``; ``-1`` is the fixed start."""
    return t if instance.cost_model.serves_after_move else t - 1


def reference_objective(instance, x):
    """Per-step cost of the primal ``P_1 … P_T`` (cap ignored), one request at a time."""
    cost = 0.0
    prev = instance.start
    for t in range(instance.length):
        cost += instance.D * float(np.linalg.norm(x[t] - prev))
        prev = x[t]
        row = _served_row(instance, t)
        at = instance.start if row < 0 else x[row]
        for v in instance.requests[t].points:
            cost += float(np.linalg.norm(at - v))
    return cost


def reference_dual_value(instance, w):
    """Per-step dual value of service duals ``w`` (one ``(r, d)`` array per
    step; entries of steps served at the fixed start are ignored)."""
    T, dim = instance.length, instance.dim
    terms = []
    attached = [np.zeros(dim) for _ in range(T)]
    for t in range(T):
        row = _served_row(instance, t)
        for i, v in enumerate(instance.requests[t].points):
            if row < 0:
                terms.append(float(np.linalg.norm(instance.start - v)))
            else:
                attached[row] += w[t][i]
                terms.append(-float(w[t][i] @ v))
    u = np.zeros(dim)
    for t in reversed(range(T)):
        u = u - attached[t]
        terms.append(-instance.m * max(0.0, float(np.linalg.norm(u)) - instance.D))
    if T:
        terms.append(-float(u @ instance.start))
    return math.fsum(terms)


def reference_pdhg(instance, n_iter, every=None):
    """The PDHG iteration as a per-step, per-request loop.

    Returns the service duals after ``n_iter`` iterations (one ``(r, d)``
    array per step) and, when ``every`` is given, the duals seen every
    ``every`` iterations.
    """
    T, dim = instance.length, instance.dim
    start, D, m = instance.start, instance.D, instance.m
    batches = [instance.requests[t].points for t in range(T)]
    served = [t for t in range(T) if _served_row(instance, t) >= 0 and batches[t].shape[0]]
    step = 0.99 / math.sqrt(4.0 + max((batches[t].shape[0] for t in served), default=0))
    x = np.empty((T, dim))
    cur = np.asarray(start, dtype=np.float64)
    for t in range(T):
        if batches[t].shape[0]:
            cur = batches[t].mean(axis=0)
        x[t] = cur
    x_bar = x.copy()
    y = np.zeros((T, dim))
    w = [np.zeros_like(b) for b in batches]
    seen = []
    for it in range(1, n_iter + 1):
        kty = np.zeros((T, dim))
        for t in range(T):
            y[t] += step * (x_bar[t] - (x_bar[t - 1] if t else start))
            norm = float(np.linalg.norm(y[t]))
            if norm > 0.0:
                y[t] *= min(max(norm - step * m, D), norm) / norm
        for t in range(T):
            kty[t] += y[t] - (y[t + 1] if t + 1 < T else 0.0)
        for t in served:
            row = _served_row(instance, t)
            for i, v in enumerate(batches[t]):
                w[t][i] += step * (x_bar[row] - v)
                w[t][i] /= max(1.0, float(np.linalg.norm(w[t][i])))
                kty[row] += w[t][i]
        x_new = x - step * kty
        x_bar = 2.0 * x_new - x
        x = x_new
        if every and it % every == 0:
            seen.append([wt.copy() for wt in w])
    return w, seen


# -- objective parity ---------------------------------------------------------
#
# The solver's objective, dual value and iteration are array code over the
# grouped request stacks of ``_group_steps`` (ragged counts, empty steps and
# the answer-first shift included); each must agree with the per-step loops
# above.  The vectorized sums round differently from the loops, so values
# are compared to a few ulps of the instance's term magnitude.


def _sequence(counts, dim, rng):
    return RequestSequence([rng.normal(size=(int(r), dim)) * 3.0 for r in counts], dim=dim)


def _per_group(program, instance, w_steps):
    """Per-step duals ``w_steps`` in the library's grouped layout."""
    shift = 0 if instance.cost_model.serves_after_move else 1
    steps = np.arange(instance.length)
    return [np.stack([w_steps[row + shift] for row in steps[rows]]) for rows, _ in program.groups]


def _certified(program, value):
    """``value`` less :meth:`_Program.dual_bound`'s stated rounding slack."""
    inst = program.instance
    K = program.n_requests + inst.length + inst.dim + 2
    gamma = K * 2.0 ** -53 / (1.0 - K * 2.0 ** -53)
    return max(0.0, value - 3.0 * gamma * program.magnitude)


def _assert_objective_parity(seq, rng, monkeypatch, D=2.0, m=1.0, n_points=4):
    dim, T = seq.dim, seq.length
    start = rng.normal(size=dim)
    for model in ("move-first", "answer-first"):
        inst = MSPInstance(seq, start=start, D=D, m=m, cost_model=CostModel(model))
        program = convex._Program(inst)
        tol = 1e-13 * max(1.0, program.magnitude)
        for _ in range(n_points):
            x = rng.normal(size=(T, dim)) * 2.0
            assert program.objective(x) == pytest.approx(reference_objective(inst, x), abs=tol)
            w = [_random_unit_ball(seq[t].points.shape, rng) for t in range(T)]
            assert program.dual_bound(_per_group(program, inst, w)) == pytest.approx(
                _certified(program, reference_dual_value(inst, w)), abs=tol)
        # One certificate round of the vectorized iteration against the loop.
        with monkeypatch.context() as mp:
            mp.setattr(convex, "BUDGET", convex.CHECK_EVERY)
            res = convex.minimize(inst)
        assert res.nit in (0, convex.CHECK_EVERY)
        w_ref, _ = reference_pdhg(inst, res.nit)
        assert res.lower == pytest.approx(
            _certified(program, reference_dual_value(inst, w_ref)), abs=tol)
        assert 0.0 <= res.lower <= res.fun


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("r", [1, 2, 4, 8, 9, 17])
def test_objective_parity_uniform(dim, r, monkeypatch):
    rng = np.random.default_rng(100 * dim + r)
    seq = _sequence([r] * 40, dim, rng)
    assert seq.is_uniform
    _assert_objective_parity(seq, rng, monkeypatch)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("seed", range(12))
def test_objective_parity_ragged(dim, seed, monkeypatch):
    rng = np.random.default_rng(seed)
    T = int(rng.integers(2, 60))
    seq = _sequence(rng.choice(RAGGED_COUNTS, size=T), dim, rng)
    _assert_objective_parity(seq, rng, monkeypatch, D=float(rng.uniform(1.0, 4.0)),
                             m=float(rng.uniform(0.3, 1.5)))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_objective_parity_all_empty(dim, monkeypatch):
    rng = np.random.default_rng(dim)
    seq = RequestSequence([np.empty((0, dim))] * 7, dim=dim)
    assert convex._group_steps(seq) == []
    _assert_objective_parity(seq, rng, monkeypatch)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("r", [0, 1, 9])
def test_objective_parity_single_step(dim, r, monkeypatch):
    rng = np.random.default_rng(r + dim)
    _assert_objective_parity(_sequence([r], dim, rng), rng, monkeypatch)


@pytest.mark.parametrize("dim", [5, 8])
def test_objective_parity_high_dimension(dim, monkeypatch):
    """E17 solves the capped program up to d = 8."""
    rng = np.random.default_rng(dim)
    _assert_objective_parity(_sequence(rng.choice(RAGGED_COUNTS, size=30), dim, rng), rng,
                             monkeypatch)


def test_e5_sized_solve_matches_reference_and_reports_the_cap(monkeypatch):
    """An E5-shaped instance: one certificate round matches the loop, a solve
    cut at its budget is flagged, and the full solve converges."""
    wl = RandomWalkWorkload(100, dim=2, D=2.0, m=1.0, sigma=0.3, spread=0.4,
                            requests_per_step=4)
    inst = wl.generate(np.random.default_rng(5))
    program = convex._Program(inst)
    with monkeypatch.context() as mp:
        mp.setattr(convex, "BUDGET", convex.CHECK_EVERY)
        capped = convex.minimize(inst)
    assert capped.status == 1 and not capped.success and capped.nit == convex.CHECK_EVERY
    assert capped.gap > convex.TOL and 0.0 < capped.lower <= capped.fun
    w_ref, _ = reference_pdhg(inst, capped.nit)
    assert capped.lower == pytest.approx(
        _certified(program, reference_dual_value(inst, w_ref)),
        abs=1e-13 * program.magnitude)
    cb = convex_bracket(inst)
    assert cb.converged and cb.gap <= convex.TOL and cb.iterations < convex.BUDGET
    assert cb.lower >= capped.lower and cb.upper <= capped.fun


def test_relaxed_lower_bound_matches_reference_ragged():
    """A whole solve: the bound is the best certificate of the loop iteration,
    and the trajectory is cap-feasible and replays to the bracket's upper end."""
    rng = np.random.default_rng(11)
    seq = _sequence(rng.choice(RAGGED_COUNTS, size=12), 2, rng)
    inst = MSPInstance(seq, start=np.zeros(2), D=2.0, m=1.0)
    lower, positions = convex.relaxed_lower_bound(inst)
    cb = convex_bracket(inst)
    assert lower == cb.lower and np.array_equal(positions, cb.feasible_positions)
    assert cb.converged
    program = convex._Program(inst)
    _, seen = reference_pdhg(inst, cb.iterations, every=convex.CHECK_EVERY)
    lower_ref = max(_certified(program, reference_dual_value(inst, w)) for w in seen)
    assert lower == pytest.approx(lower_ref, rel=1e-9)
    assert replay_cost(inst, positions, validate_cap=inst.m).total_cost == cb.upper


# -- certificates -------------------------------------------------------------


RAGGED_COUNTS = [0, 1, 2, 3, 5, 8, 9, 17]


def _ragged_instance(dim, seed, cost_model="move-first", T=25):
    rng = np.random.default_rng(seed)
    counts = rng.choice(RAGGED_COUNTS, size=T)
    walk = np.cumsum(rng.normal(scale=0.8, size=(T, dim)), axis=0)
    seq = RequestSequence([walk[t] + rng.normal(size=(int(r), dim)) for t, r in enumerate(counts)],
                          dim=dim)
    return MSPInstance(seq, start=rng.normal(size=dim), D=float(rng.uniform(1.0, 4.0)),
                       m=float(rng.uniform(0.3, 1.5)), cost_model=CostModel(cost_model))


def _random_unit_ball(shape, rng):
    w = rng.normal(size=shape)
    norms = np.linalg.norm(w, axis=-1, keepdims=True)
    radii = rng.choice([1.0, rng.uniform()], size=norms.shape)  # on the sphere and inside
    return w / norms * radii


@pytest.mark.parametrize("cost_model", ["move-first", "answer-first"])
@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("seed", range(4))
def test_weak_duality_for_random_unit_duals(dim, seed, cost_model):
    """No dual value exceeds the cost of a cap-feasible trajectory: MtC's, or
    ``project_to_cap`` of an arbitrary target path."""
    inst = _ragged_instance(dim, seed, cost_model)
    rng = np.random.default_rng(1000 + seed)
    mtc = simulate(inst, MoveToCenter(), delta=0.0)
    targets = np.cumsum(rng.normal(scale=2.0, size=(inst.length, dim)), axis=0)
    repaired = project_to_cap(targets, inst.start, inst.m)
    feasible = [replay_cost(inst, mtc.positions, validate_cap=inst.m).total_cost,
                replay_cost(inst, repaired, validate_cap=inst.m).total_cost]
    program = convex._Program(inst)
    for _ in range(20):
        W = [_random_unit_ball(pts.shape, rng) for _, pts in program.groups]
        assert program.dual_bound(W) <= min(feasible)
    cb = convex_bracket(inst)
    assert cb.converged and cb.lower <= cb.upper <= min(feasible) * (1 + 1e-12)


@pytest.mark.parametrize("cost_model", ["move-first", "answer-first"])
@pytest.mark.parametrize("source,seed", [("walk", 0), ("walk", 2), ("drift", 0), ("drift", 2)])
def test_pdhg_bracket_nests_in_dp_line(source, seed, cost_model):
    """On the line the exact solver gives PDHG a ground truth: its
    rounding-sized bracket lies inside PDHG's, which is within 1e-6."""
    wl = (RandomWalkWorkload(30, dim=1, D=2.0, m=1.0) if source == "walk"
          else DriftWorkload(30, dim=1, D=2.0, m=1.0))
    inst = wl.generate(np.random.default_rng(seed)).with_cost_model(CostModel(cost_model))
    cb = convex_bracket(inst)
    dp = solve_line(inst)
    assert cb.converged and cb.gap <= convex.TOL
    assert dp.cost - dp.lower_bound <= 1e-9 * dp.cost
    assert cb.lower <= dp.lower_bound <= dp.cost <= cb.upper


def test_movement_only_dp_line_bracket_holds_zero():
    """Movement-only charges no service, so staying put costs 0: the line
    solver must return exactly [0, 0] with the server at its start, as
    PDHG does (the grid DP once added service terms and read
    [10.55, 12.59] here)."""
    wl = RandomWalkWorkload(30, dim=1, D=2.0, m=1.0)
    inst = wl.generate(np.random.default_rng(0)).with_cost_model(CostModel("movement-only"))
    cb = convex_bracket(inst)
    dp = solve_line(inst)
    assert (cb.lower, cb.upper) == (0.0, 0.0)
    assert (dp.lower_bound, dp.cost) == (0.0, 0.0)
    assert np.all(dp.positions == inst.start)


def test_e5_spot_check_pin_sits_below_the_old_lower_bound():
    """E5's seed-1 spot check (scale 0.15): L-BFGS reported lower = 16.11468979…,
    above a cap-feasible cost the certified solve finds."""
    wl = RandomWalkWorkload(20, dim=2, D=2.0, m=1.0, sigma=0.3, spread=0.3, requests_per_step=2)
    cb = convex_bracket(wl.generate(np.random.default_rng(1)))
    assert cb.converged and cb.gap <= convex.TOL
    assert cb.lower <= cb.upper < 16.114689


def test_e8_spot_pin_sits_below_the_old_lower_bound():
    """E8's 2-D patrol instance (scale 0.15, seed 1): L-BFGS reported
    lower = 173.1644…"""
    wl = PatrolAgentWorkload(50, dim=2, D=4.0, m_server=1.0, m_agent=1.0, arena=15.0)
    cb = convex_bracket(wl.generate(np.random.default_rng(1)).as_msp())
    assert cb.converged and cb.gap <= convex.TOL
    assert cb.lower <= cb.upper < 173.1644


def test_budget_hit_is_flagged_through_to_the_run_result(monkeypatch):
    scenario = Scenario.workload("random-walk", "mtc", params={"T": 40, "dim": 2},
                                 seeds=[3, 4], ratio="bracket")
    instances, _ = build_instances(scenario)
    brackets = []
    monkeypatch.setattr(convex, "BUDGET", 50)
    for inst in instances:
        res = convex.minimize(inst)
        assert res.status == 1 and not res.success and res.nit == 50
        assert 0.0 <= res.lower <= res.fun and res.gap > convex.TOL
        brackets.append(OptBracket(res.lower, res.fun, "convex", res.x, gap=res.gap,
                                   converged=res.success, iterations=res.nit))
    monkeypatch.undo()
    measure = RatioMeasurement.certify(1.0, brackets[0])
    assert measure.opt_converged is False and measure.opt_gap == brackets[0].gap
    result = run(scenario, brackets=brackets)
    assert result.unconverged == 2
    assert "UNCONVERGED" in result.summary()
    assert unconverged_notes({"walk": result.as_payload()["measures"]}) == [
        "UNCONVERGED offline brackets (valid but wide): walk (2)"]
    converged = run(scenario)
    assert converged.unconverged == 0
    assert unconverged_notes({"walk": converged.as_payload()["measures"]}) == []


def test_dual_value_above_a_feasible_cost_raises(monkeypatch):
    """A broken certificate is an error, never clipped into an ordered bracket."""
    inst = _ragged_instance(2, 0)
    monkeypatch.setattr(convex._Program, "dual_bound", lambda self, W: 1e9)
    with pytest.raises(ArithmeticError, match="certificate is broken"):
        convex_bracket(inst)


def test_movement_only_program_stays_put():
    inst = _ragged_instance(2, 1, "movement-only")
    br = bracket_optimum(inst)
    assert (br.lower, br.upper, br.converged, br.iterations) == (0.0, 0.0, True, 0)
    assert np.array_equal(br.positions, np.repeat(inst.start[None, :], inst.length + 1, axis=0))


# -- solver health ------------------------------------------------------------


def test_small_solve_reports_convergence():
    wl = RandomWalkWorkload(6, dim=2, D=2.0, m=1.0, sigma=0.3, spread=0.4,
                            requests_per_step=4)
    cb = convex_bracket(wl.generate(np.random.default_rng(0)))
    assert cb.converged and cb.gap <= convex.TOL
    assert 0 < cb.iterations < convex.BUDGET


def test_empty_instance_is_trivially_converged():
    inst = MSPInstance(RequestSequence([], dim=2), start=np.zeros(2))
    cb = convex_bracket(inst)
    assert cb.converged and cb.iterations == 0 and cb.lower == 0.0 and cb.gap == 0.0


# -- Lemma-6 parity -----------------------------------------------------------


MODES = {
    "paper+acute": dict(premise="paper", acute_only=True),
    "paper+all": dict(premise="paper", acute_only=False),
    "repaired": dict(premise="repaired", acute_only=False),
}


@pytest.mark.parametrize("delta", [1.0, 0.125])
@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_sample_lemma6_matches_per_sample_reference(dim, mode, delta):
    seed = 31 * dim + int(8 * delta)
    got = sample_lemma6(delta, n_samples=3000, dim=dim,
                        rng=np.random.default_rng(seed), **MODES[mode])
    want = reference_sample_lemma6(delta, 3000, dim, np.random.default_rng(seed),
                                   **MODES[mode])
    assert got == want


def test_sample_lemma6_zero_samples():
    rep = sample_lemma6(0.5, n_samples=0)
    assert rep == Lemma6Report(n_checked=0, violations=0, min_slack=np.inf,
                               min_slack_relative=np.inf)


# -- golden tables ------------------------------------------------------------


@pytest.mark.parametrize("eid", sorted(GOLDEN))
def test_bracket_experiment_reproduces_golden_table(eid):
    pin = GOLDEN[eid]
    result = EXPERIMENTS[eid](scale=pin["scale"], seed=pin["seed"])
    assert result.render(precision=10) == pin["render"]
