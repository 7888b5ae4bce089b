"""Fixture experiment: id ``E2``, restated in-module (not a collision)."""

from repro.api.spec import ExperimentSpec


def build_spec(scale=1.0):
    return ExperimentSpec(
        experiment_id="E2",
        title="second experiment",
    )


def preview():
    return ExperimentSpec(experiment_id="E2", title="second experiment (preview)")
