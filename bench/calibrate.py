"""A fixed piece of reference work that times the machine, not the library.

The shared virtual machines this benchmark runs on change speed by up to
about twofold, from one second to the next and from one hour to the next,
with no steal time to show for it (another guest on the same physical
core slows every instruction).  The benchmark therefore runs units of
``reference_work`` before, after and (for pricings) inside every measured
piece of work, and scales each measured time by the mean speed of the
units around and inside it.

The reference work is plain interpreter work: scalar ``math`` calls and
dict and integer bookkeeping.  Measured against the three workloads'
pricings over minutes of drifting speed, such work slowed in step with
them (log-log slope 0.85 to 1.15, correlation 0.84 to 0.95), while work
made of small numpy operations or ``scipy.integrate.quad`` slowed more than
the pricings did (slope 0.7 to 0.86) and scaled them less well.  It never
touches ``eigenbond``, so no change to the library can change it.
"""

from __future__ import annotations

import math
import signal
import time

# Seconds one unit of reference work is taken to last: a round figure in the
# middle of its times on the machine the benchmark was written on (a 2-vCPU
# Intel Xeon virtual machine, Python 3.11), which ranged from 6 ms to 11 ms
# as its speed drifted.  A scaled time is the time that machine would show
# at the speed where the unit takes exactly this long.
NOMINAL_S = 0.0100


def _scalar_math(rounds: int) -> float:
    total = 0.0
    for _ in range(rounds):
        for k in range(1, 400):
            total += math.log1p(1.0 / k) * math.sqrt(k) * 1e-6
    return total


def _bookkeeping(rounds: int) -> int:
    total = 0
    for _ in range(rounds):
        counts: dict = {}
        for i in range(3000):
            counts[i % 17] = counts.get(i % 17, 0) + i
        total += counts[5]
    return total


def reference_work() -> float:
    """One unit of reference work; returns a number so nothing is skipped."""
    return _scalar_math(21) + _bookkeeping(14)


class Speedometer:
    """Reference timings around and inside the measured pieces of one run."""

    def __init__(self, share: float, tick_s: float):
        self.share = share  # burst time per second of measured time
        self.tick_s = tick_s  # interval between units inside a timed call
        self.bursts: list = []  # unit times per burst, in seconds
        self.during: list = []  # unit times inside the last timed call
        self.units = 0
        self.total_s = 0.0
        self.last_net_s = 0.0

    def _unit(self) -> float:
        start = time.perf_counter()
        reference_work()
        elapsed = time.perf_counter() - start
        self.units += 1
        self.total_s += elapsed
        return elapsed

    def sample(self, measured_s: float) -> None:
        """Run a burst of ``share`` times ``measured_s`` (at least one unit)."""
        timings = [self._unit()]
        while sum(timings) < self.share * measured_s:
            timings.append(self._unit())
        self.bursts.append(timings)

    def timed_call(self, fn):
        """Return ``fn()``, running one unit every ``tick_s`` inside it.

        The units run from a SIGALRM handler, between the bytecodes of
        ``fn``.  ``last_net_s`` is then the call's time without them, also
        when ``fn`` raises.
        """
        self.during = []

        def tick(signum, frame):
            self.during.append(self._unit())

        previous = signal.signal(signal.SIGALRM, tick)
        signal.setitimer(signal.ITIMER_REAL, self.tick_s, self.tick_s)
        start = time.perf_counter()
        try:
            return fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            self.last_net_s = time.perf_counter() - start - sum(self.during)
            signal.signal(signal.SIGALRM, previous)

    def last_scale(self) -> float:
        """Factor from measured to nominal seconds for the piece of work
        between the last two bursts, from the units of those bursts and the
        units inside the piece: ``NOMINAL_S`` times their mean speed.

        The mean of speeds (reciprocal unit times), not of unit times: a
        piece's work is its mean speed over its wall time, and the units
        inside it start at moments spread evenly over that wall time.
        """
        timings = self.bursts[-2] + self.during + self.bursts[-1]
        self.during = []
        return NOMINAL_S * sum(1.0 / t for t in timings) / len(timings)

    @property
    def mean_s(self) -> float:
        """Mean unit time over the whole run."""
        return self.total_s / self.units
