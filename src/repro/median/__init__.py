"""Geometric-median (Fermat–Weber) solvers.

Public API:

* :func:`repro.median.request_center` — the paper's tie-broken center.
* :func:`repro.median.weiszfeld` — the certified median of one batch.
* :func:`repro.median.weber_cost` — the objective being minimized.
* :func:`repro.median.batched_median_set` — the minimizing sets of a
  stack of batches, closed form where one exists.
* :func:`repro.median.certified_medians` /
  :func:`repro.median.batched_weiszfeld` /
  :func:`repro.median.batched_request_center` — the cross-lane solver
  behind the fused median-family step kernels.

Everything runs on one solver in :mod:`repro.median.batched`: closed forms
for segment minimizers (the sorted middle pair in 1-D), Kuhn's exact
vertex test, then safeguarded Newton; a lane that exhausts its budget
raises.  The scalar :func:`request_center` and :func:`weiszfeld` are the
batched functions on a one-lane stack, and a lane's answer does not depend
on the stack it rides in, so every fused kernel lane equals its scalar
call bit for bit.
"""

from .batched import (
    BatchedMedianSet,
    CertifiedMedians,
    batched_median_set,
    batched_request_center,
    batched_weiszfeld,
    certified_medians,
    request_center,
)
from .exact import fermat_point_triangle, weber_cost
from .weiszfeld import WeiszfeldResult, weber_gradient_norm, weiszfeld

__all__ = [
    "BatchedMedianSet",
    "CertifiedMedians",
    "WeiszfeldResult",
    "batched_median_set",
    "batched_request_center",
    "batched_weiszfeld",
    "certified_medians",
    "fermat_point_triangle",
    "request_center",
    "weber_cost",
    "weber_gradient_norm",
    "weiszfeld",
]
