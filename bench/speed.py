"""Host-speed probes: fixed NumPy kernels timed between measured operations.

The shared two-vCPU hosts this benchmark runs on switch between speeds
about 1.6 times apart, over seconds to minutes, and CPU time follows wall
time, so the change is in the machine, not in scheduling. A run's raw
timings then depend on which speed held while it ran. A probe runs a fixed
kernel that does not touch ``mra_sync`` right before every operation it
measures: once to bring its data back into the caches that the operation
before it may have flushed, then once timed. A measured time is scaled by
the probe's reference time over the median probe time near it, giving the
time the operation would have taken at the speed at which the probe takes
its reference time. The probe runs outside every timed interval, and its
own time is never counted.

Two kernels, because a slower host does not slow every kind of work alike:
``loop_kernel`` does many small SVDs and determinants, a small solve and a
small product, the operation mix of ``run_grid``; ``setup_kernel`` fills a
dense matrix elementwise and factors another, as ``build_row_covariance``
does. Scaled by the loop kernel, set-up times still moved with the host's
speed; scaled by the set-up kernel they moved 2 to 3 times less.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

# Reference times: close to each kernel's median time on the baseline host
# (2 vCPUs, OpenBLAS, one thread), so that scaled times read close to the
# raw times seen there.
LOOP_REFERENCE_MS = 1.0
SETUP_REFERENCE_MS = 4.0
# Probes this far (seconds) before the start or after the end of an
# operation give the speed it ran at; the machine holds a speed for longer.
WINDOW_S = 2.0


def loop_kernel():
    """About 1 ms of small dense linear algebra."""
    rng = np.random.default_rng(20251104)
    small = rng.standard_normal((24, 4, 4))
    a = rng.standard_normal((48, 48))
    spd = a @ a.T + 48.0 * np.eye(48)
    rhs = rng.standard_normal((48, 4))
    square = rng.standard_normal((96, 96))

    def run():
        for x in small:
            u, _, vt = np.linalg.svd(x)
            np.linalg.det(u @ vt)
        np.linalg.solve(spd, rhs)
        return square @ square

    return run


def setup_kernel():
    """About 4 ms: an elementwise kernel matrix and a Cholesky factor."""
    rng = np.random.default_rng(20251105)
    points = rng.uniform(size=(640, 1))
    a = rng.standard_normal((320, 320))
    spd = a @ a.T + 320.0 * np.eye(320)

    def run():
        np.exp(-((points - points.T) ** 2))
        return np.linalg.cholesky(spd)

    return run


class SpeedProbe:
    """Times a probe kernel on request and scales measured times by it."""

    def __init__(self, kernel, reference_ms, clock=time.perf_counter):
        self.kernel = kernel
        self.reference_ms = reference_ms
        self.clock = clock
        self.times = []  # midpoint of every probe, in clock seconds, ascending
        self.ms = []  # its duration
        self.spent_s = 0.0  # total probe time, to take out of enclosing intervals

    def sample(self):
        """Run the kernel once untimed and once timed, and record the time."""
        warm = self.clock()
        self.kernel()
        start = self.clock()
        self.kernel()
        end = self.clock()
        self.times.append(0.5 * (start + end))
        self.ms.append((end - start) * 1e3)
        self.spent_s += end - warm

    def local_ms(self, start, end):
        """Median probe time within ``WINDOW_S`` of the interval [start, end]."""
        if not self.ms:
            raise ValueError("no probe has run")
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        if lo == hi:  # nothing near: the closest probe before or after
            lo = max(0, min(lo, len(self.ms) - 1))
            hi = lo + 1
        return statistics.median(self.ms[lo:hi])

    def scale(self, start, end):
        """Factor that turns a time measured over [start, end] into reference-speed time."""
        return self.reference_ms / self.local_ms(start, end)
