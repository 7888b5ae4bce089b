"""A fixed reference kernel that gauges the host's speed while units run.

A shared host runs the same code up to about 1.7 times slower, for
seconds to minutes at a time, as other tenants load the machine.  While
a unit of work runs, :class:`Gauge` times one pass of this kernel every
``PERIOD_S`` seconds, from a ``SIGALRM`` handler, and the runner counts
the unit's wall-clock in mean passes of the kernel (``ref``).  An
end-to-end metric thus counts the package's work rather than the host's
current speed.  The kernel is the benchmark's own code: no change to the
package makes it faster or slower.

Its mix follows the package's hot paths: an interpreted loop with float
arithmetic, dict and string work, and numpy calls on small arrays.  One
pass takes about 1 ms on a quiet host, so the gauge costs about 1 % of
the run; :func:`clock` leaves that time out of every timed region.
"""

from __future__ import annotations

import gc
import signal
from time import perf_counter

import numpy as np

#: Seconds between two readings while the gauge is armed.
PERIOD_S = 0.1
#: Passes read right after each unit, so that every unit has readings.
AFTER_PASSES = 8


def _kernel() -> float:
    acc = 0.0
    for i in range(1500):
        acc += (i % 7) * 0.5 - acc * 1e-3
    table = {}
    for i in range(750):
        table[f"k{i}"] = i
    acc += sum(len(k) for k in table)
    a = np.linspace(0.0, 1.0, 64)
    for _ in range(75):
        a = np.sqrt(a * a + 1.0) - 0.5
        acc += float(a[3])
    return acc


class Gauge:
    """Reference-kernel readings and the time they took."""

    def __init__(self) -> None:
        self.readings: list[float] = []
        #: Seconds spent reading, in total; :func:`clock` subtracts it.
        self.spent_s = 0.0

    def read(self) -> None:
        """Time one kernel pass, with the garbage collector held off."""
        t0 = perf_counter()
        enabled = gc.isenabled()
        gc.disable()
        try:
            _kernel()
            self.readings.append(perf_counter() - t0)
        finally:
            if enabled:
                gc.enable()
            self.spent_s += perf_counter() - t0

    def _tick(self, signum, frame) -> None:
        self.read()

    def measure(self, fn, *args, **kwargs):
        """``fn(*args, **kwargs)`` with readings every ``PERIOD_S`` and after.

        Returns ``(result, ref_s)``: the result and the mean pass time
        over the readings taken during and right after the call.
        """
        start = len(self.readings)
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            result = fn(*args, **kwargs)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        for _ in range(AFTER_PASSES):
            self.read()
        taken = self.readings[start:]
        return result, sum(taken) / len(taken)


GAUGE = Gauge()


def clock() -> float:
    """``perf_counter()`` minus the time the gauge has spent reading.

    Reads again if a reading lands between the two reads it makes.
    """
    while True:
        spent = GAUGE.spent_s
        now = perf_counter()
        if GAUGE.spent_s == spent:
            return now - spent
