"""Micro-benchmarks of the library's computational kernels.

Not tied to a paper table; these track the throughput of the pieces every
experiment is built from (per the hpc-parallel guidance: measure before
optimizing, and keep measuring):

* the simulation step loop (requests/second end-to-end);
* the safeguarded Weiszfeld solver;
* the banded 1-D DP;
* the small 2-D grid DP transition;
* the Theorem-2 instance generator.
"""

import numpy as np

from repro.adversaries import build_thm2
from repro.algorithms import MoveToCenter
from repro.core import simulate
from repro.median import weiszfeld
from repro.offline import solve_grid, solve_line
from repro.workloads import RandomWalkWorkload


def test_simulation_throughput(benchmark):
    wl = RandomWalkWorkload(1000, dim=2, D=4.0, m=1.0, sigma=0.3, spread=0.5,
                            requests_per_step=8)
    inst = wl.generate(np.random.default_rng(0))

    def kernel():
        return simulate(inst, MoveToCenter(), delta=0.5).total_cost

    assert benchmark(kernel) > 0


def test_weiszfeld_throughput(benchmark):
    pts = np.random.default_rng(0).normal(size=(64, 2))

    def kernel():
        return weiszfeld(pts).iterations

    assert benchmark(kernel) >= 1


def test_dp_line_throughput(benchmark):
    wl = RandomWalkWorkload(300, dim=1, D=2.0, m=1.0, sigma=0.4, spread=0.3,
                            requests_per_step=2)
    inst = wl.generate(np.random.default_rng(1))

    def kernel():
        return solve_line(inst).cost

    assert benchmark(kernel) >= 0


def test_dp_grid_throughput(benchmark):
    wl = RandomWalkWorkload(30, dim=2, D=2.0, m=1.0, sigma=0.3, spread=0.3,
                            requests_per_step=2)
    inst = wl.generate(np.random.default_rng(2))

    def kernel():
        return solve_grid(inst, grid_shape=(24, 24)).cost

    assert benchmark(kernel) >= 0


def test_thm2_generation_throughput(benchmark):
    def kernel():
        return build_thm2(0.125, cycles=4, rng=np.random.default_rng(3)).instance.length

    assert benchmark(kernel) > 0


def _fused_batch(B=64, T=256):
    wl = RandomWalkWorkload(T, dim=2, D=2.0, m=1.0, sigma=0.3, spread=0.4,
                            requests_per_step=2)
    return [wl.generate(np.random.default_rng(100 + s)) for s in range(B)]


def test_fused_kernel_throughput(benchmark):
    """The fused step-kernel path (decide+clamp+validate+account per block)."""
    from repro.core import simulate_batch

    instances = _fused_batch()

    def kernel():
        return simulate_batch(instances, "greedy-centroid", delta=0.5,
                              fuse=True).total_costs.sum()

    assert benchmark(kernel) > 0


def test_batched_loop_throughput(benchmark):
    """The per-step batched loop on the same workload (fused's baseline)."""
    from repro.core import simulate_batch

    instances = _fused_batch()

    def kernel():
        return simulate_batch(instances, "greedy-centroid", delta=0.5,
                              fuse=False).total_costs.sum()

    assert benchmark(kernel) > 0
