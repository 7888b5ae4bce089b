"""Fixture experiment: the legitimate owner of id ``E1``."""

from repro.api.spec import ExperimentSpec


def build_spec(scale=1.0):
    return ExperimentSpec(
        experiment_id="E1",
        title="first experiment",
    )
