"""Interpreter speed samples, so that timings do not swing with host load.

On a shared host a virtual CPU's speed changes by up to 1.8x from one
second to the next, independently on each CPU, and CPU time slows with
it.  Wall times of the same pass then spread by a third between runs.
So the worker runs a fixed calibration kernel every PERIOD_S in the
measured thread itself, and an interval's wall time (minus the kernel's
own time) is scaled by the mean kernel speed inside it.  The result is in
reference seconds: the time the work would take at the speed where one
kernel call takes REF_KERNEL_S.  Raw wall times are reported beside them.
"""

from __future__ import annotations

import signal
import time
from bisect import bisect_left, bisect_right
from fractions import Fraction

REF_KERNEL_S = 0.0005
PERIOD_S = 0.05

_TERMS = [Fraction(i, 7) for i in range(1, 9)]
_ZERO = Fraction(0)


def kernel() -> dict:
    """Fixed work in spanrep's style: small Fractions in a tuple-keyed dict."""
    acc = {}
    for i in range(120):
        key = (i & 7, i % 3)
        acc[key] = acc.get(key, _ZERO) + _TERMS[i & 7] * _TERMS[(i >> 3) & 7]
    return acc


def reference_seconds(wall_s: float, costs: list[float]) -> float:
    """wall_s of work at the mean speed the kernel costs show."""
    speed = sum(1 / c for c in costs) / len(costs)
    return wall_s * REF_KERNEL_S * speed


class Speedometer:
    """Kernel costs sampled on a SIGALRM timer, in time order."""

    def __init__(self):
        self.ends: list[float] = []
        self.costs: list[float] = []

    def sample(self, *_signal_args) -> None:
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.ends.append(end)
        self.costs.append(end - start)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def interval(self, start: float, end: float) -> float:
        """Reference seconds of the work done between start and end.

        An interval too short to hold a sample takes the speed of the
        samples on either side of it.
        """
        lo = bisect_left(self.ends, start)
        hi = bisect_right(self.ends, end)
        inside = self.costs[lo:hi]
        costs = inside or self.costs[max(lo - 1, 0):lo + 1]
        return reference_seconds((end - start) - sum(inside), costs)
