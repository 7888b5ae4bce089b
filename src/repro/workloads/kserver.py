"""k-server-on-the-line workloads for the re-homed baselines.

One instance is the *configuration-space* form of a k-server input: the
start is the sorted initial configuration (a point in
:math:`\\mathbb{R}^k`), each step carries one request at location ``x``
encoded as the constant point ``np.full(k, x)``, and the cost model is
:data:`~repro.core.costs.CostModel.MOVEMENT_ONLY` — run it under the
``l1`` metric and total cost is exactly the servers' total movement
(see :mod:`repro.algorithms.kserver_line`).
"""

from __future__ import annotations

import numpy as np

from ..core.costs import CostModel
from .base import WorkloadGenerator, make_instance

__all__ = ["KServerLineWorkload"]


class KServerLineWorkload(WorkloadGenerator):
    """Uniform requests on a line segment for ``k`` servers.

    Parameters
    ----------
    T:
        Number of requests (one per step).
    dim:
        The number of servers ``k`` — the configuration-space dimension.
    D:
        Movement weight (the classical problem has ``D = 1``).
    m:
        Per-step movement cap in configuration space; the default
        ``4 * width`` never binds (one Double Coverage step moves at
        most ``2 * width`` in ℓ1), preserving the uncapped semantics of
        the classical problem.
    width:
        Requests are uniform on ``[0, width]``; servers start evenly
        spaced across the segment.
    """

    def __init__(
        self,
        T: int = 200,
        dim: int = 3,
        D: float = 1.0,
        m: float | None = None,
        width: float = 10.0,
    ) -> None:
        if width <= 0.0:
            raise ValueError("width must be positive")
        super().__init__(T, dim=dim, D=D, m=(4.0 * width if m is None else m))
        self.width = width
        self.name = f"kserver-line[k={dim}]"

    @property
    def k(self) -> int:
        return self.dim

    def start_config(self) -> np.ndarray:
        """The sorted initial configuration: servers evenly spaced."""
        return np.linspace(0.0, self.width, self.k)

    def generate(self, rng: np.random.Generator) -> "object":
        xs = rng.uniform(0.0, self.width, size=self.T)
        points = np.broadcast_to(xs[:, None, None], (self.T, 1, self.k)).copy()
        return make_instance(
            points,
            start=self.start_config(),
            D=self.D,
            m=self.m,
            cost_model=CostModel.MOVEMENT_ONLY,
            name=f"{self.name}[T={self.T}]",
        )
