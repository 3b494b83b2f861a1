"""Machine-speed calibration for timings on a shared, noisy host.

On a host shared with other tenants the interpreter's speed changes in
phases of several seconds: a fixed loop runs up to 1.5x slower for a while,
then fast again. That moves every timing of a run by tens of percent.
A SIGALRM timer therefore runs a small fixed exact-arithmetic kernel (the
kind of work torifan does: Fractions, small int tuples, gcds) every ``INTERVAL``
seconds in the main thread. A timed span is scaled by REFERENCE / (median
kernel time within ``WINDOW`` seconds of the span), giving seconds at the
speed at which the kernel takes ``REFERENCE`` seconds. Time spent in the
kernel is subtracted from a span before scaling.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction
from math import gcd
from typing import NamedTuple

INTERVAL = 0.1
WINDOW = 1.0
REFERENCE = 0.003  # kernel seconds that define the reference speed


def kernel() -> int:
    """Fraction arithmetic plus integer cross products and gcds, like validate and the LPs."""
    acc = Fraction(0)
    table = {}
    for i in range(1, 150):
        key = (i, i * 3 % 7, -i)
        table[key] = Fraction(i, 7) * Fraction(3, i + 1) - Fraction(1, i)
        acc += table[key]
    directions = set()
    for i in range(1, 1200):
        a, b = (i, -i, i % 5), (i % 3, 2, -1)
        v = (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])
        g = gcd(gcd(v[0], v[1]), v[2]) or 1
        directions.add(tuple(x // g for x in v))
    return acc.numerator + len(directions)


class Span(NamedTuple):
    start: float
    end: float
    wall: float  # seconds, without kernel time
    cpu: float


class Calibrator:
    """Samples the kernel on a timer and scales spans to the reference speed."""

    def __init__(self):
        self.times: list[float] = []
        self.samples: list[float] = []
        self.spent_wall = 0.0
        self.spent_cpu = 0.0
        self._previous = None

    def _sample(self, *_):
        c0 = time.process_time()
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.times.append(t0)
        self.samples.append(t1 - t0)
        self.spent_wall += t1 - t0
        self.spent_cpu += time.process_time() - c0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def now(self) -> float:
        """A wall clock that stands still while the kernel runs, for the tracer's spans."""
        return time.perf_counter() - self.spent_wall

    def mark(self) -> tuple:
        # the timer is held off while the clocks and the kernel time are read together
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        state = time.perf_counter(), time.process_time(), self.spent_wall, self.spent_cpu
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})
        return state

    def stop(self, mark) -> Span:
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        t1, c1, wall1, cpu1 = time.perf_counter(), time.process_time(), self.spent_wall, self.spent_cpu
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})
        t0, c0, wall0, cpu0 = mark
        return Span(t0, t1, t1 - t0 - (wall1 - wall0), c1 - c0 - (cpu1 - cpu0))

    def scaled(self, span: Span) -> tuple[float, float]:
        """Call after the timed work is done, so samples after the span count too."""
        lo = bisect.bisect_left(self.times, span.start - WINDOW)
        hi = bisect.bisect_right(self.times, span.end + WINDOW)
        factor = REFERENCE / statistics.median(self.samples[lo:hi])
        return span.wall * factor, span.cpu * factor
