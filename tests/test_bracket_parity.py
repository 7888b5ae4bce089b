"""Bit-for-bit parity of the vectorized offline bracket and Lemma-6 sampler.

The relaxation objective in :mod:`repro.offline.convex` and the Figure-1
sampler in :mod:`repro.analysis.lemma6` are array code over whole request
stacks and whole draws.  Both must perform the same floating-point
operations, in the same order, as the per-step and per-sample loops they
replaced, which are kept below as the references.  Exact equality (``==``
and ``np.array_equal``), never a tolerance: a last-ulp change in the
objective moves the L-BFGS trajectory, hence every bracket and table.

``tests/data/golden_bracket.json`` pins the E5 and E17 tables (the two
experiments built on the convex bracket) at ``scale=0.15, seed=1``,
captured from the per-step loop before it was vectorized.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize

from repro.analysis import Lemma6Report, sample_lemma6
from repro.core import MSPInstance, RequestSequence
from repro.experiments import EXPERIMENTS
from repro.offline import convex_bracket, relaxed_lower_bound
from repro.offline.convex import _group_steps, _objective_and_grad
from repro.workloads import RandomWalkWorkload

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_bracket.json"

with GOLDEN_PATH.open() as fh:
    GOLDEN = json.load(fh)


# -- references: the loops the array code replaced ---------------------------


def reference_objective_and_grad(flat, start, batches, D, eps, dim):
    """The per-step smoothed cost and gradient (one step per iteration)."""
    T = len(batches)
    P = flat.reshape(T, dim)
    prev = np.vstack([start[None, :], P[:-1]])
    seg = P - prev
    seg_norm = np.sqrt(np.einsum("ij,ij->i", seg, seg) + eps * eps)
    cost = D * float(seg_norm.sum())
    grad = np.zeros_like(P)
    unit = seg / seg_norm[:, None]
    grad += D * unit
    grad[:-1] -= D * unit[1:]
    for t, pts in enumerate(batches):
        if pts.shape[0] == 0:
            continue
        d = P[t] - pts
        dn = np.sqrt(np.einsum("ij,ij->i", d, d) + eps * eps)
        cost += float(dn.sum())
        grad[t] += (d / dn[:, None]).sum(axis=0)
    return cost, grad.ravel()


def reference_relaxed_lower_bound(instance, eps=1e-6, max_iter=2000):
    """L-BFGS driven by the reference objective, else as the library does."""
    T, dim = instance.length, instance.dim
    batches = [instance.requests[t].points for t in range(T)]
    init = np.empty((T, dim))
    cur = np.asarray(instance.start, dtype=np.float64)
    for t, pts in enumerate(batches):
        if pts.shape[0]:
            cur = pts.mean(axis=0)
        init[t] = cur
    n_terms = T + int(instance.requests.total_requests())
    res = minimize(
        reference_objective_and_grad,
        init.ravel(),
        args=(instance.start, batches, instance.D, eps, dim),
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": max_iter, "ftol": 1e-12, "gtol": 1e-10},
    )
    positions = np.vstack([instance.start[None, :], res.x.reshape(T, dim)])
    return max(0.0, float(res.fun) - eps * n_terms), positions


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


# -- objective parity ---------------------------------------------------------


RAGGED_COUNTS = [0, 1, 2, 3, 5, 8, 9, 16, 17]  # r >= 8 takes numpy's unrolled pairwise sum


def _sequence(counts, dim, rng):
    return RequestSequence([rng.normal(size=(int(r), dim)) * 3.0 for r in counts], dim=dim)


def _assert_objective_parity(seq, rng, D=2.0, eps=1e-6, n_points=4):
    dim, T = seq.dim, seq.length
    start = rng.normal(size=dim)
    batches = [seq[t].points for t in range(T)]
    groups = _group_steps(seq)
    for _ in range(n_points):
        flat = rng.normal(size=T * dim) * 2.0
        cost_ref, grad_ref = reference_objective_and_grad(flat, start, batches, D, eps, dim)
        cost, grad = _objective_and_grad(flat, start, groups, D, eps, dim)
        assert cost == cost_ref
        assert np.array_equal(grad, grad_ref)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("r", [1, 2, 4, 8, 9, 17])
def test_objective_parity_uniform(dim, r):
    rng = np.random.default_rng(100 * dim + r)
    seq = _sequence([r] * 40, dim, rng)
    assert seq.is_uniform
    _assert_objective_parity(seq, rng)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("seed", range(12))
def test_objective_parity_ragged(dim, seed):
    rng = np.random.default_rng(seed)
    T = int(rng.integers(2, 60))
    seq = _sequence(rng.choice(RAGGED_COUNTS, size=T), dim, rng)
    _assert_objective_parity(seq, rng, D=float(rng.uniform(0.5, 4.0)),
                             eps=float(rng.choice([1e-6, 1e-3])))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_objective_parity_all_empty(dim):
    rng = np.random.default_rng(dim)
    seq = RequestSequence([np.empty((0, dim))] * 7, dim=dim)
    assert _group_steps(seq) == []
    _assert_objective_parity(seq, rng)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("r", [0, 1, 9])
def test_objective_parity_single_step(dim, r):
    rng = np.random.default_rng(r + dim)
    _assert_objective_parity(_sequence([r], dim, rng), rng)


@pytest.mark.parametrize("dim", [5, 8])
def test_objective_parity_high_dimension(dim):
    """E17 solves the relaxation up to d = 8."""
    rng = np.random.default_rng(dim)
    _assert_objective_parity(_sequence(rng.choice(RAGGED_COUNTS, size=30), dim, rng), rng)


def test_e5_sized_solve_matches_reference_and_reports_the_cap():
    """An E5-shaped instance: the whole L-BFGS trajectory is unchanged, and
    like E5's benign instances it stops at the cap, so the bound is not
    certified."""
    wl = RandomWalkWorkload(100, dim=2, D=2.0, m=1.0, sigma=0.3, spread=0.4,
                            requests_per_step=4)
    inst = wl.generate(np.random.default_rng(5))
    cb = convex_bracket(inst)
    lower_ref, positions_ref = reference_relaxed_lower_bound(inst)
    assert cb.lower == min(lower_ref, cb.upper)
    assert np.array_equal(cb.relaxed_positions, positions_ref)
    assert cb.converged is False
    assert cb.iterations == 2000


def test_relaxed_lower_bound_matches_reference_ragged():
    rng = np.random.default_rng(11)
    seq = _sequence(rng.choice(RAGGED_COUNTS, size=12), 2, rng)
    inst = MSPInstance(seq, start=np.zeros(2), D=2.0, m=1.0)
    lower, positions = relaxed_lower_bound(inst)
    lower_ref, positions_ref = reference_relaxed_lower_bound(inst)
    assert lower == lower_ref
    assert np.array_equal(positions, positions_ref)


# -- solver health ------------------------------------------------------------


def test_small_solve_reports_convergence():
    wl = RandomWalkWorkload(6, dim=2, D=2.0, m=1.0, sigma=0.3, spread=0.4,
                            requests_per_step=4)
    cb = convex_bracket(wl.generate(np.random.default_rng(0)))
    assert cb.converged
    assert 0 < cb.iterations < 2000


def test_empty_instance_is_trivially_converged():
    inst = MSPInstance(RequestSequence([], dim=2), start=np.zeros(2))
    cb = convex_bracket(inst)
    assert cb.converged and cb.iterations == 0 and cb.lower == 0.0


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
