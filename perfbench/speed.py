"""Machine-speed probe for timed work on shared hosts.

On a shared virtual machine the same single-threaded work can take 0.8x to
1.7x its usual wall time, in phases that last from seconds to minutes: the
host's other tenants share the physical core.  The guest sees no steal time,
so process CPU time moves with wall time.  A median over one run cannot
remove a phase that covers the whole run.

While it is active, the probe interrupts the program every ``INTERVAL_S``
seconds of wall time (SIGALRM) and times a fixed small kernel.  The kernel
is small numpy array arithmetic in a Python loop, like the solver's inner
loop.  ``REFERENCE_S / probe time`` is the machine's speed in that interval.
``reference_seconds`` rescales a wall time by the mean speed over its
interval.  The result is the time the work would take on a machine where
the kernel takes ``REFERENCE_S``.  Probing costs about 1 % of the wall time.
"""
from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.05
# The kernel's time inside the handler on an uncontended core of the 2-vCPU
# x86-64 VM the baseline was measured on, so that reference seconds there
# read about the same as wall seconds.
REFERENCE_S = 2.8e-4


class SpeedProbe:
    def __init__(self):
        self.samples: list = []   # (end of probe, speed)
        self._row = np.linspace(-1.0, 1.0, 121)

    def _kernel(self) -> None:
        u = self._row
        for _ in range(40):
            ux = np.empty_like(u)
            ux[1:-1] = 0.5 * (u[2:] - u[:-2])
            ux[0] = u[1] - u[0]
            ux[-1] = u[-1] - u[-2]
            u = u + 1e-4 * (ux * ux - 0.5 * u)

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self._kernel()
        end = time.perf_counter()
        self.samples.append((end, REFERENCE_S / (end - start)))

    def __enter__(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def reference_seconds(self, seconds: float, start: float, end: float) -> float:
        """``seconds`` of work done in [start, end], at the reference speed."""
        speeds = [s for t, s in self.samples if start <= t <= end]
        if not speeds:  # shorter than one probe interval: take the nearest sample
            speeds = [min(self.samples, key=lambda sample: abs(sample[0] - end))[1]]
        return seconds * statistics.fmean(speeds)
