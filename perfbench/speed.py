"""Machine-speed probe for timing on a shared machine."""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np


class SpeedProbe:
    """The machine's current speed, sampled by a fixed kernel on a timer.

    On a shared 2-core machine the speed of a core drifts by 10-20 % over
    seconds to minutes, and a whole run slows with it.  While the probe
    runs, an interval timer interrupts the program every INTERVAL_S and
    times a small fixed numpy kernel (a product with a lower-triangular
    factor, a row-norm reduction and a partial sort, as in a ray batch).
    The run's timings are reported at reference speed: scaled by
    REFERENCE_S over the kernel's median time in the run.  Time spent in
    the kernel is subtracted from the operations it interrupted.  On the
    reference machine this cut the interquartile spread over five runs of
    the median call time from 0.13 to 0.07 on estimate_sweep, and of the
    dispatch time from 0.10 to 0.045 on energy_dispatch.  Raw timings stay
    in the report.
    """

    #: Median kernel time on the reference machine (2 cores, Python 3.11,
    #: numpy 2.4 with one BLAS thread).
    REFERENCE_S = 2.5e-3
    INTERVAL_S = 0.25

    def __init__(self):
        rng = np.random.default_rng(20230419)
        self.z = rng.standard_normal((10000, 8))
        self.factor_l = np.tril(np.ones((8, 8)))
        self.intervals = []               # (start, end) of each kernel run
        self.spent = 0.0                  # their total time

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        for _ in range(5):
            w = self.z @ self.factor_l.T
            np.sort(np.sqrt((w * w).sum(axis=1))[:2000])
        t1 = time.perf_counter()
        self.intervals.append((t0, t1))
        self.spent += t1 - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def timed(self, fn, *args):
        """Run fn(*args); returns (seconds outside the probe, result)."""
        spent0, t0 = self.spent, time.perf_counter()
        out = fn(*args)
        return time.perf_counter() - t0 - (self.spent - spent0), out

    def factor(self):
        """Multiply a measured time by this to express it at reference speed."""
        if not self.intervals:
            return 1.0
        return self.REFERENCE_S / statistics.median(t1 - t0 for t0, t1 in self.intervals)
