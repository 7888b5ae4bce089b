"""Fixture experiment: the legitimate owner of id ``E1``."""

from repro.experiments.orchestrator import SweepSpec


def build_spec(scale=1.0, seed=0):
    return SweepSpec("E1", (), finalize="repro.experiments.e1_first:finalize",
                     scale=scale, seed=seed)
