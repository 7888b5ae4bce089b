"""Run-time validation of model constraints.

The simulator enforces the movement cap on every step; violations raise
:class:`MovementCapViolation` rather than silently producing incomparable
costs.  A small relative tolerance absorbs floating-point round-off from
the direction/clamp arithmetic.
"""

from __future__ import annotations

import numpy as np

from .metric import distance

__all__ = ["MovementCapViolation", "check_move", "cap_tolerance", "recorded_step_limit"]

#: Relative overrun of the cap a recorded trajectory may show.
_RECORDED_RTOL = 1e-7
#: Rounding of a step length recomputed from stored positions, per unit of
#: the trajectory's largest coordinate: a move of exactly the cap lands on
#: a rounded position, a few ulps of that coordinate away.
_RECORDED_ROUND = 64 * np.finfo(np.float64).eps


class MovementCapViolation(RuntimeError):
    """An algorithm tried to move its server further than its cap allows."""

    def __init__(self, step: int, moved: float, cap: float, algorithm: str = "") -> None:
        self.step = step
        self.moved = moved
        self.cap = cap
        self.algorithm = algorithm
        tag = f" by {algorithm!r}" if algorithm else ""
        super().__init__(
            f"movement cap violated{tag} at step {step}: moved {moved:.9g} > cap {cap:.9g}"
        )


def cap_tolerance(cap: float, rel: float = 1e-9, absolute: float = 1e-12) -> float:
    """Permitted overshoot of the cap due to floating point."""
    return cap * rel + absolute


def recorded_step_limit(cap: float, positions: np.ndarray) -> float:
    """Longest step a recorded trajectory may show under ``cap``.

    The allowance is relative: ``cap·(1 + 1e-7)`` plus the rounding of a
    recomputed step, scaled by the largest coordinate of ``positions``.  It
    holds a trajectory that moves exactly its cap, and rejects an overrun
    of more than 1e-7 of the cap whenever the cap is large against that
    rounding, however small the cap.
    """
    scale = float(np.abs(positions).max()) if positions.size else 0.0
    return cap * (1.0 + _RECORDED_RTOL) + _RECORDED_ROUND * scale


def check_move(
    step: int,
    old_position: np.ndarray,
    new_position: np.ndarray,
    cap: float,
    algorithm: str = "",
    metric=None,
) -> float:
    """Validate one move and return the distance travelled.

    ``metric`` selects the space the move is measured in; ``None`` keeps
    the ℓ2 fast path.

    Raises
    ------
    MovementCapViolation
        If the move exceeds ``cap`` beyond floating-point tolerance.
    """
    moved = distance(old_position, new_position) if metric is None \
        else metric.distance(old_position, new_position)
    if moved > cap + cap_tolerance(cap):
        raise MovementCapViolation(step, moved, cap, algorithm)
    return moved
