"""Fixture experiment: id ``E2``, restated twice in one module (allowed)."""

from repro.api.spec import ExperimentSpec


def build_spec(scale=1.0):
    return ExperimentSpec(
        experiment_id="E2",
        title="second experiment",
    )


def preview():
    # Same id restated inside its own module is one experiment, not a clash.
    return ExperimentSpec(experiment_id="E2", title="second experiment (preview)")
