"""Fixture experiment: id ``E2`` by keyword, restated in-module (not a collision)."""

from repro.experiments.orchestrator import SweepSpec


def build_spec(scale=1.0, seed=0):
    return SweepSpec(experiment_id="E2", units=(),
                     finalize="repro.experiments.e2_second:finalize",
                     scale=scale, seed=seed)


def preview():
    # Same id restated inside its own module is one experiment, not a clash.
    return SweepSpec("E2", (), finalize="repro.experiments.e2_second:finalize")
