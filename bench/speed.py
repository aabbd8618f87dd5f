"""Host-speed probe that makes timings comparable across contention.

The benchmark was tuned on a shared 2-vCPU host whose speed switches, for
seconds to a minute at a time, between two states about 1.7x apart (other
tenants on the same physical core). Raw wall times of identical work then
spread by 20-40 % between runs, wider than any useful regression bound.

While a process is measured, an interval timer runs a small fixed probe
every ``PERIOD_S`` seconds; the probe mixes small numpy calls and
interpreter work, as divset does. A timing over an interval is
reported at the reference speed: the wall time times ``REFERENCE_S`` over
the mean probe duration in that interval. On an uncontended core of the
reference host the scale is about 1, so the reported value is the wall
time; under contention the value stays put while the wall time grows.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from array import array
from time import perf_counter

import numpy as np

PERIOD_S = 0.01
# Probe duration on an uncontended core of the reference host (2-vCPU Xeon
# VM, Python 3.11, numpy 2.4): the first percentile of probe durations.
REFERENCE_S = 52e-6
MIN_SAMPLES = 3


class SpeedProbe:
    def __init__(self) -> None:
        # Bound now, so a wrapped numpy.linalg.cholesky never sees the probe.
        self._cholesky = np.linalg.cholesky
        self._matrix = np.full((8, 8), 0.1) + np.eye(8)
        self.times = array("d")
        self.durations = array("d")

    def _probe(self) -> None:
        for _ in range(10):
            self._cholesky(self._matrix)
        total = 0
        for i in range(200):
            total += i

    def sample(self, *_signal_args) -> None:
        # The first pass reloads the probe's code and data into the caches
        # the workload evicted; only the second, warm pass is timed, so the
        # workload's own memory footprint does not read as a slow host.
        self._probe()
        t = perf_counter()
        self._probe()
        self.times.append(t)
        self.durations.append(perf_counter() - t)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def summary(self) -> dict:
        """Sample count and percentiles of the probe durations so far."""
        q = statistics.quantiles(self.durations, n=100, method="inclusive")
        return {"n": len(self.durations), "p1": q[0], "p50": q[49], "p99": q[98]}

    def scale(self, t0: float, t1: float) -> float:
        """REFERENCE_S over the typical probe duration in [t0, t1].

        The window is widened by one period each side until it holds
        MIN_SAMPLES. The typical duration is the mean without the top and
        bottom tenth, so a probe that the host preempted for milliseconds
        does not count as a slow core.
        """
        while True:
            i = bisect.bisect_left(self.times, t0)
            j = bisect.bisect_right(self.times, t1)
            if j - i >= MIN_SAMPLES or j - i == len(self.times):
                break
            t0, t1 = t0 - PERIOD_S, t1 + PERIOD_S
        window = sorted(self.durations[i:j])
        cut = len(window) // 10
        kept = window[cut : len(window) - cut]
        return REFERENCE_S * len(kept) / sum(kept)
