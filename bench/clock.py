"""Calibrated time: measured wall time scaled to a fixed reference speed.

On a host shared with other work the speed of one core drifts by 10-25 %
over seconds to minutes, and the drift moves every wall time with it.
While operations are timed, a SIGALRM timer interrupts the process every
INTERVAL seconds and runs a fixed exact-arithmetic kernel (a Fraction
determinant, close in kind to sfhpoly's own work) on the same core.  The
kernel's time is taken out of the operation it interrupted.  An interval
of time is calibrated by the kernel samples taken within WINDOW seconds of
it: the calibrated time is the measured time times REFERENCE_S / their
median.  On the machine of the reference figures in README.md the kernel's
median is about REFERENCE_S, so there a calibrated second reads as a wall
second.
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
from fractions import Fraction
from time import perf_counter

INTERVAL = 0.1
WINDOW = 0.5
MIN_SAMPLES = 5
REFERENCE_S = 0.0017
_RNG = random.Random(7)
_MATRIX = [[_RNG.randint(-9, 9) for _ in range(8)] for _ in range(8)]


def _kernel() -> Fraction:
    """Determinant of a fixed 8 x 8 integer matrix by Fraction elimination."""
    w = [[Fraction(x) for x in row] for row in _MATRIX]
    det = Fraction(1)
    for c in range(len(w)):
        piv = next(r for r in range(c, len(w)) if w[r][c])
        if piv != c:
            w[c], w[piv] = w[piv], w[c]
            det = -det
        det *= w[c][c]
        for r in range(c + 1, len(w)):
            f = w[r][c] / w[c][c]
            if f:
                w[r] = [x - f * y for x, y in zip(w[r], w[c])]
    return det


def kernel_seconds(repeat: int = 15) -> float:
    """Median time of the kernel over a burst of runs."""
    times = []
    for _ in range(repeat):
        start = perf_counter()
        _kernel()
        times.append(perf_counter() - start)
    return statistics.median(times)


class SpeedSampler:
    """Times the kernel on a timer while active; `spent` is its total time."""

    def __init__(self):
        self.at: list[float] = []          # sample start times, increasing
        self.samples: list[float] = []     # kernel durations
        self.spent = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = perf_counter()
        _kernel()
        elapsed = perf_counter() - start
        self.at.append(start)
        self.samples.append(elapsed)
        self.spent += elapsed

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self, start: float | None = None,
               end: float | None = None) -> float:
        """Multiplier from measured to calibrated seconds.

        Over [start, end] widened by WINDOW on each side; over the whole run
        when no interval is given or it holds fewer than MIN_SAMPLES.
        """
        if not self.samples:            # a run shorter than one interval
            self._tick(None, None)
        near = self.samples
        if start is not None:
            lo = bisect.bisect_left(self.at, start - WINDOW)
            hi = bisect.bisect_right(self.at, end + WINDOW)
            if hi - lo >= MIN_SAMPLES:
                near = self.samples[lo:hi]
        return REFERENCE_S / statistics.median(near)
