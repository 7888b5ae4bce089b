"""Fixture experiment: claims ``E1`` although e1_first already owns it."""

from repro.api.spec import ExperimentSpec


def build_spec(scale=1.0):
    return ExperimentSpec(
        experiment_id="E1",
        title="imposter claiming E1",
    )
