"""Sample the CPU's speed while a job runs, in the job's own thread.

On a host shared with other tenants, a core runs pure-Python code up to
about 1.6 times slower in episodes that last from a fraction of a second to
minutes, so the same job's time moves by a third or more from one run to the
next, and a calibration timed before or after the job misses the episodes
the job met.

The probe interrupts the job every ``INTERVAL_S`` of CPU time (``SIGPROF``)
and times one small fixed unit of work in the signal handler.  The samples
are spread evenly over the job's CPU time on the job's own core, so their
mean over ``REFERENCE_S`` is the job's average slowdown, and the job's time,
less the probe's own, divided by it is the time at the reference speed.  The
mean is trimmed by a tenth at each end, so that a sample the host happened
to preempt does not count.  The unit does the kind of work the package does
(dict-keyed polynomial products over ``Fraction``) without using the
package, so a change to the package cannot move it.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.02
# About the unit's time on an unloaded core of the machine the benchmark was
# written on; it only sets the scale of the reported times.
REFERENCE_S = 0.0005

_P = {(i, j): Fraction(i + 1, j + 2) for i in range(3) for j in range(4)}
_Q = {(i, j): Fraction(j - 3, 2 * i + 1) for i in range(3) for j in range(4)}


def unit() -> int:
    r: dict = {}
    for (a, b), c in _P.items():
        for (d, e), f in _Q.items():
            key = (a + d, b + e)
            r[key] = r.get(key, 0) + c * f
    return len(r)


def _slowdown(samples: list[float]) -> float:
    """Trimmed mean unit time over the reference; 1.0 at the reference
    speed, and 1.0 when there is no sample."""
    xs = sorted(samples)
    cut = len(xs) // 10
    return statistics.mean(xs[cut:len(xs) - cut]) / REFERENCE_S if xs else 1.0


def burst(units: int) -> float:
    """The slowdown over ``units`` consecutive units, for a stretch of work
    too short to sample while it runs (interpreter start and set-up take
    well under a second, shorter than most slow or fast episodes)."""
    samples = []
    for _ in range(units):
        t0 = time.perf_counter()
        unit()
        samples.append(time.perf_counter() - t0)
    return _slowdown(samples)


class SpeedProbe:
    """Context manager that times one ``unit`` per ``INTERVAL_S`` of CPU."""

    def __init__(self):
        self.samples: list[float] = []

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        unit()
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self):
        self._old = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, self._old)
        return False

    def slowdown(self) -> float:
        return _slowdown(self.samples)

    def scale(self, seconds: float) -> float:
        """Seconds measured around the probe, less the probe's own time, at
        the reference speed."""
        return (seconds - sum(self.samples)) / self.slowdown()
