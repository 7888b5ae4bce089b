"""Analysis utilities: ratios, potentials, geometry lemmas, fits, tables."""

from .curves import ratio_curve, separation_curve
from .lemma6 import Lemma6Report, Lemma6Sample, figure2_worst_case, sample_lemma6
from .potential import (
    PotentialReport,
    StepRecord,
    potential_value,
    verify_potential_argument,
)
from .ratio import (
    RatioMeasurement,
    collapse_to_centers,
    measure_ratio,
    measures_from_payload,
    measures_to_payload,
)
from .regression import FitResult, fit_linear, fit_power_law
from .stats import Summary, bootstrap_ci, summarize
from .tables import render_table, to_csv

__all__ = [
    "FitResult",
    "Lemma6Report",
    "Lemma6Sample",
    "PotentialReport",
    "RatioMeasurement",
    "StepRecord",
    "Summary",
    "bootstrap_ci",
    "collapse_to_centers",
    "figure2_worst_case",
    "fit_linear",
    "fit_power_law",
    "measures_from_payload",
    "measures_to_payload",
    "measure_ratio",
    "potential_value",
    "ratio_curve",
    "render_table",
    "sample_lemma6",
    "separation_curve",
    "summarize",
    "to_csv",
    "verify_potential_argument",
]
