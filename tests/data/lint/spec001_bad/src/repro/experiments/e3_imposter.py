"""Fixture experiment: claims ``E1`` although e1_first already owns it."""

from repro.experiments.orchestrator import SweepSpec


def build_spec(scale=1.0, seed=0):
    return SweepSpec("E1", (), finalize="repro.experiments.e3_imposter:finalize",
                     scale=scale, seed=seed)
