"""Exact offline optimum for the k-server problem on the line.

The paper frames the k-Server Problem as the "requests must be satisfied
by moving a copy onto them" extreme of page migration.  Its classical
online rules — Double Coverage (k-competitive) and the greedy heuristic
it famously beats — run on the one engine as the ``dc-line`` and
``greedy-kserver`` registry algorithms (:mod:`repro.algorithms.kserver_line`).
:func:`offline_kserver_line` computes the exact offline optimum by DP
over server configurations for small ``k``/short sequences, so their
measured ratios against OPT can be compared with the proved factor ``k``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["offline_kserver_line"]


def offline_kserver_line(servers: np.ndarray, requests: np.ndarray) -> float:
    """Exact offline optimum via DP over configurations.

    States are k-subsets of the interesting points (initial positions and
    request points); transitions move one server onto the next request.
    Exponential in ``k`` — intended for ``k <= 3`` and short sequences.
    """
    s0 = tuple(sorted(float(x) for x in np.asarray(servers, dtype=np.float64)))
    requests = np.asarray(requests, dtype=np.float64)
    k = len(s0)

    # The optimum only ever moves a server onto the current request, so
    # reachable configurations are subsets of {initial} ∪ {requests}.
    states: dict[tuple, float] = {s0: 0.0}
    for x in requests:
        x = float(x)
        new_states: dict[tuple, float] = {}
        for conf, cost in states.items():
            if x in conf:
                if cost < new_states.get(conf, np.inf):
                    new_states[conf] = cost
                continue
            for i in range(k):
                moved = tuple(sorted(conf[:i] + (x,) + conf[i + 1:]))
                c = cost + abs(conf[i] - x)
                if c < new_states.get(moved, np.inf):
                    new_states[moved] = c
        states = new_states
    return float(min(states.values()))
