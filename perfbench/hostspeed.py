"""Scale measured times to a fixed host speed.

The benchmark was built on a 2-core share of a busy host.  There the same
CPU work runs at one speed for several seconds and at a speed up to twice
slower for the next several, so raw times of identical work spread by 20-40%
between runs, whatever the run's length.  A calibration loop that touches
nothing of the package (Python big integers, ``Fraction`` and float loops,
the three kinds of work the workloads do) slows down with the host.  The
ratio of an op's time to the calibration time next to it stayed within
+-4% across the host's speed changes, where the op's own time moved by 60%.

Inside ``with clock:`` a timer signal runs one calibration loop every
``INTERVAL_S`` seconds, also in the middle of an op; :meth:`Clock.net`
takes the loops that ran during an op out of its time.
Sampling during an op matters for ops of a second, over which the host's
speed changes: for the order-15 series op, samples taken only before and
after it left a 10% spread between processes, samples taken during it 5.5%.
:meth:`Clock.scale` multiplies a time by ``REFERENCE_S`` over the median
of the samples taken during it and just around it, so every reported time
reads as if the loop had taken ``REFERENCE_S``, its time on the quiet host.
The loop never calls the package, so a faster package still shows in full.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

#: Time of one calibration loop on the quiet host the benchmark was built on.
REFERENCE_S = 0.0018
#: Seconds between samples while ops run.
INTERVAL_S = 0.05
#: Fewest samples whose median scales one time.
NEAREST = 4
_MODULUS = (1 << 4000) - 159


def _loop() -> None:
    x = 1
    for i in range(1, 2400):
        x = (x * 3 + i) % _MODULUS
    f = Fraction(0)
    for i in range(1, 200):
        f += Fraction(1, i)
    s = 0.0
    for i in range(16000):
        s += i * 0.5


class Clock:
    """Calibration samples taken during a run, and the scaling of times by them."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (midpoint, seconds), in time order
        self._times: list[float] = []

    def calibrate(self, count: int = 1) -> None:
        for _ in range(count):
            start = time.perf_counter()
            _loop()
            seconds = time.perf_counter() - start
            self.samples.append((start + seconds / 2, seconds))

    def _on_timer(self, signum, frame) -> None:
        self.calibrate()

    def __enter__(self) -> Clock:
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _between(self, lo: float, hi: float) -> list[float]:
        if len(self._times) != len(self.samples):
            self._times = [t for t, _ in self.samples]
        return [s for _, s in self.samples[bisect.bisect_left(self._times, lo):bisect.bisect_right(self._times, hi)]]

    def net(self, start: float, end: float) -> float:
        """Seconds between perf_counter times ``start`` and ``end``, less the samples taken in between.

        A signal handler runs between two bytecodes, so a sample lies wholly
        inside or wholly outside the interval.
        """
        return end - start - sum(self._between(start, end))

    def scale(self, seconds: float, start: float, end: float) -> float:
        """``seconds`` measured between perf_counter times ``start`` and ``end``, at the reference speed."""
        near = self._between(start - 2 * INTERVAL_S, end + 2 * INTERVAL_S)
        if len(near) < NEAREST:
            mid = (start + end) / 2
            near = [s for _, s in sorted(self.samples, key=lambda ts: abs(ts[0] - mid))[:NEAREST]]
        return seconds * REFERENCE_S / statistics.median(near)
