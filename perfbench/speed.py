"""The machine's speed during a run, for stating times at a reference speed.

On a two-core virtual machine that shares its host with other guests, speed
drifts: the same bhippa-n100 workload run took 7.4 s and 12 s a few minutes
apart, with CPU time tracking wall time.  A fixed reference kernel, timed
every PERIOD_S seconds during the run, measures that drift; multiplying a
measured time by REFERENCE_KERNEL_S / (mean kernel time) states it at the
speed where the kernel takes REFERENCE_KERNEL_S.  The mean, not the median:
a run's time grows with its mean slowdown, slow spells included.  The kernel
uses no dealopt code, so a change to dealopt moves the scaled times as it
moves the raw ones.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# median kernel time on the machine that defined the benchmark, in a quiet spell
REFERENCE_KERNEL_S = 2.5e-4
PERIOD_S = 0.1

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((1000, 200))
_X = _rng.standard_normal(200)


def kernel_seconds():
    """Time a fixed mix of Python scalar arithmetic and 1000x200 products,
    the two kinds of work the workloads spend their time on."""
    start = time.perf_counter()
    total = 0.0
    for j in range(1000):
        total += abs(j - 0.5) ** 1.5
    for _ in range(4):
        total += float(np.linalg.norm(_A @ _X))
    return time.perf_counter() - start


class SpeedProbe:
    """Times the kernel on entry, every PERIOD_S seconds (SIGALRM) and on exit."""

    def __init__(self):
        self.samples = []
        self._previous = None

    def __enter__(self):
        self._tick()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick()
        return False

    def _tick(self, *_):
        self.samples.append(kernel_seconds())

    def scale(self):
        return scale(self.samples)


def scale(samples):
    """Factor taking seconds measured while the kernel took ``samples`` to
    reference seconds."""
    return REFERENCE_KERNEL_S / statistics.fmean(samples)
