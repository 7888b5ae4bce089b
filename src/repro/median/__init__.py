"""Geometric-median (Fermat–Weber) solvers.

Public API:

* :func:`repro.median.request_center` — the paper's tie-broken center.
* :func:`repro.median.weiszfeld` — the certified median of one batch.
* :func:`repro.median.weber_cost` — the objective being minimized.
* :class:`repro.median.MedianSet` — explicit minimizing sets for the
  degenerate cases.
* :func:`repro.median.certified_medians` /
  :func:`repro.median.batched_weiszfeld` /
  :func:`repro.median.batched_request_center` — the cross-lane solver
  behind the fused median-family step kernels.

There is one numeric solver, :func:`certified_medians` in
:mod:`repro.median.batched`: closed forms for segment minimizers, Kuhn's
exact vertex test, then safeguarded Newton; a lane that exhausts its
budget raises.  The scalar :func:`weiszfeld` is that solver on a one-lane
stack, so every batched lane equals its scalar call bit for bit.
"""

from .batched import (
    BatchedMedianSet,
    CertifiedMedians,
    batched_median_set,
    batched_request_center,
    batched_weiszfeld,
    certified_medians,
)
from .exact import (
    MedianSet,
    collinearity_frame,
    fermat_point_triangle,
    median_collinear,
    median_pair,
    median_single,
    weber_cost,
)
from .tie_breaking import median_set, request_center
from .weiszfeld import WeiszfeldResult, weber_gradient_norm, weiszfeld

__all__ = [
    "BatchedMedianSet",
    "CertifiedMedians",
    "MedianSet",
    "WeiszfeldResult",
    "batched_median_set",
    "batched_request_center",
    "batched_weiszfeld",
    "certified_medians",
    "collinearity_frame",
    "fermat_point_triangle",
    "median_collinear",
    "median_pair",
    "median_single",
    "median_set",
    "request_center",
    "weber_cost",
    "weber_gradient_norm",
    "weiszfeld",
]
