"""Wall time rescaled to a reference machine speed.

On a shared virtual machine the speed of a core drifts by up to 2x over
seconds to minutes as other tenants come and go, and a run cannot wait the
drift out: the same pass measured a minute apart differs by more than any
useful regression bound.  ``SpeedClock`` therefore measures the machine's
current speed alongside the work and reports each interval twice: as raw
wall time and rescaled to the speed at which the probe kernels take their
reference times.

The probe is a fixed mix of the three kinds of work stabscope does:
small-array numpy calls (interpreter-bound, as in single-trajectory Verlet
and the 1D stencil), a large-array stream (memory-bound, as in the ball
mollifier and the 2D stencil) and banded LAPACK solves (as in the resolvent
scan).  The speed factor is the mean over the three of reference time over
measured time.  The probe runs at every command boundary and, during a
command, every ``period`` seconds from a timer signal; each probe's own time
is left out of both figures, and between two probes the factor is taken as
their mean.
"""

from __future__ import annotations

import signal
import time

import numpy as np
from scipy.linalg import solve_banded

# seconds per component on the machine the benchmark was calibrated on (2-core
# x86 VM, Python 3.11, numpy 2.4, scipy 1.17), so rescaled and raw figures agree
# there in a typical phase
REFERENCE = {"interpreter": 3.0e-3, "memory": 6.0e-3, "lapack": 4.5e-3}


class SpeedClock:
    def __init__(self, period: float = 0.25):
        self.period = period
        self._small = np.ones(16)
        self._big = np.ones(1 << 21)
        self._big_out = np.empty_like(self._big)
        self._bands = np.zeros((5, 3000))
        self._bands[2] = 4.0
        self._bands[[1, 3]] = -1.0
        self._bands[[0, 4]] = 0.1
        self._rhs = np.ones(3000)
        self.samples = []  # (start, probe seconds, speed factor)
        self._probing = False

    def probe(self) -> dict:
        """Seconds taken by each probe component."""
        t0 = time.perf_counter()
        for _ in range(3000):
            self._small += 1.0
        t1 = time.perf_counter()
        for _ in range(3):
            np.multiply(self._big, 1.0000001, out=self._big_out)
        t2 = time.perf_counter()
        for _ in range(10):
            solve_banded((2, 2), self._bands, self._rhs)
        t3 = time.perf_counter()
        return {"interpreter": t1 - t0, "memory": t2 - t1, "lapack": t3 - t2}

    def _sample(self, *_):
        """Probe and record; return the new sample's index."""
        if self._probing:  # the timer fired inside a probe
            return None
        self._probing = True
        try:
            start = time.perf_counter()
            parts = self.probe()
            factor = sum(REFERENCE[k] / v for k, v in parts.items()) / len(parts)
            self.samples.append((start, time.perf_counter() - start, factor))
            return len(self.samples) - 1
        finally:
            self._probing = False

    def __enter__(self):
        self.samples = []
        self._marked = 0
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> tuple:
        """Probe now; return (raw, rescaled) seconds since the previous mark."""
        last = self._sample()
        (t0, d0, _), (t1, _, _) = self.samples[self._marked], self.samples[last]
        self._marked = last
        return self.span(t0 + d0, t1)

    def span(self, start: float, end: float) -> tuple:
        """(raw seconds, rescaled seconds) of [start, end], probes excluded.

        Valid for times between the first and last sample of the current pass.
        """
        raw = scaled = 0.0
        for (t0, d0, f0), (t1, _, f1) in zip(self.samples, self.samples[1:]):
            overlap = min(end, t1) - max(start, t0 + d0)
            if overlap > 0.0:
                raw += overlap
                scaled += overlap * 0.5 * (f0 + f1)
        return raw, scaled
