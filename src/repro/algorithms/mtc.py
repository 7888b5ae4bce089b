"""Move-to-Center — the paper's algorithm (Section 4).

Upon receiving the requests :math:`v_1, \\dots, v_r` while sitting at
:math:`P_{Alg}`, MtC computes the point :math:`c` minimizing
:math:`\\sum_i d(c, v_i)` (ties broken towards the server, see
:func:`repro.median.request_center`) and moves towards :math:`c` by

.. math:: \\min\\{1, r/D\\} \\cdot d(P_{Alg}, c)

capped at the algorithm's movement allowance :math:`(1+\\delta) m`.

The ``min{1, r/D}`` damping is what makes the potential argument of
Sections 4.1/4.2 work: when requests are few relative to the page weight
``D`` the server only creeps (moving is expensive), while for :math:`r > D`
it jumps straight to the center when allowed.  The class exposes ablation
hooks (used by experiment E12) that replace the damping factor or the
tie-break so the role of each design choice can be measured.
"""

from __future__ import annotations

from typing import Literal

import numpy as np

from ..core.requests import RequestBatch
from ..median import request_center, weiszfeld
from ..median.batched import batched_midpoint_center
from .base import OnlineAlgorithm

__all__ = ["MoveToCenter"]

TieBreak = Literal["closest", "weiszfeld", "midpoint"]


class MoveToCenter(OnlineAlgorithm):
    """The deterministic Move-to-Center algorithm.

    Parameters
    ----------
    step_scale:
        ``None`` (default) uses the paper's factor ``min{1, r/D}``; a float
        in ``(0, 1]`` forces a fixed damping factor instead (ablation).
    tie_break:
        ``"closest"`` (paper): among several minimizers pick the one
        closest to the server
        (:func:`repro.median.batched.batched_request_center`).
        ``"weiszfeld"``: always take the certified median
        (:func:`repro.median.batched.batched_weiszfeld`), whose
        representative of a minimizing segment is the point closest to the
        batch centroid.  ``"midpoint"``: pick the midpoint of the
        minimizing segment
        (:func:`repro.median.batched.batched_midpoint_center`).  Each rule
        is one batched function, which the fused kernel calls on every
        lane and :meth:`center` on a one-lane stack.
    cap_fraction:
        Fraction of the granted movement cap actually used, in ``(0, 1]``
        (ablation: does MtC need the full augmented speed?).
    """

    def __init__(
        self,
        step_scale: float | None = None,
        tie_break: TieBreak = "closest",
        cap_fraction: float = 1.0,
    ) -> None:
        super().__init__()
        if step_scale is not None and not (0.0 < step_scale <= 1.0):
            raise ValueError(f"step_scale must lie in (0, 1], got {step_scale}")
        if not (0.0 < cap_fraction <= 1.0):
            raise ValueError(f"cap_fraction must lie in (0, 1], got {cap_fraction}")
        if tie_break not in ("closest", "weiszfeld", "midpoint"):
            raise ValueError(f"unknown tie_break {tie_break!r}")
        self.step_scale = step_scale
        self.tie_break: TieBreak = tie_break
        self.cap_fraction = cap_fraction
        suffix = []
        if step_scale is not None:
            suffix.append(f"scale={step_scale:g}")
        if tie_break != "closest":
            suffix.append(f"tie={tie_break}")
        if cap_fraction != 1.0:
            suffix.append(f"cap×{cap_fraction:g}")
        self.name = "mtc" + (f"[{','.join(suffix)}]" if suffix else "")
        self._last_center: np.ndarray | None = None

    def reset(self, instance, cap) -> None:  # type: ignore[override]
        super().reset(instance, cap)
        self._last_center = None

    # -- the decision rule ---------------------------------------------------

    def center(self, batch: RequestBatch) -> np.ndarray:
        """The target point :math:`c` for a non-empty batch."""
        if self.tie_break == "closest":
            c = request_center(batch.points, self.position, warm_start=self._last_center)
            self._last_center = c
            return c
        if self.tie_break == "weiszfeld":
            return weiszfeld(batch.points).point
        return batched_midpoint_center(batch.points[None])[0]

    def decide(self, t: int, batch: RequestBatch) -> np.ndarray:
        if batch.count == 0:
            return self.position
        c = self.center(batch)
        dist_to_c = self.metric.distance(c, self.position)
        if dist_to_c <= 0.0:
            return self.position
        scale = self.step_scale
        if scale is None:
            scale = min(1.0, batch.count / self.D)
        desired = scale * dist_to_c
        allowed = self.cap * self.cap_fraction
        step = min(desired, allowed)
        return self.metric.move_towards(self.position, c, step)
