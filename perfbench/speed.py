"""Host-speed normalisation by an interleaved reference probe.

On a shared host the CPU speed swings by up to 1.6x within a second, and its
average over a run moves by a third from one run to the next, for identical
work. While a run is measured, a SIGALRM timer interrupts it every
INTERVAL_S and times one fixed reference computation that touches nothing
of the library. An operation's time is reported as

    measured seconds * REFERENCE_S / median time of the probes inside it

so that a run on a fast stretch of the host and one on a slow stretch read
alike, and a speed change in the middle of a run is followed too. A change
to the library leaves the probe unchanged, so it moves the normalised times
as it moves the measured ones. The probe costs about 2% of the run, the
same on every commit.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

REFERENCE_S = 0.0004    # median probe time on the reference host (2 vCPU, 2.1 GHz Xeon)
INTERVAL_S = 0.02
MIN_SAMPLES = 5         # fewer probes inside an operation: use the whole run's


def reference_work() -> float:
    """A fixed mix of interpreter and small-array work, about 0.4 ms."""
    acc, table = 0, {}
    for i in range(3000):
        acc += i * i
        table[i & 15] = acc
    a = np.arange(8.0)
    for _ in range(20):
        a = np.maximum(a, a[::-1]) + 1.0
    return float(a[0]) + acc


class SpeedProbe:
    """Samples the probe on a wall-clock timer while the block runs."""

    def __init__(self):
        self.starts: list[float] = []
        self.samples: list[float] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        reference_work()
        self.starts.append(t0)
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self) -> float:
        """REFERENCE_S / median probe time: < 1 on a slow stretch."""
        if not self.samples:
            raise RuntimeError("the speed probe took no sample")
        return REFERENCE_S / statistics.median(self.samples)

    def scaled(self, spans) -> float:
        """Normalised length of one operation, given its (start, end) spans."""
        inside = []
        for t0, t1 in spans:
            lo = bisect.bisect_left(self.starts, t0)
            hi = bisect.bisect_left(self.starts, t1)
            inside.extend(self.samples[lo:hi])
        factor = REFERENCE_S / statistics.median(inside) \
            if len(inside) >= MIN_SAMPLES else self.factor()
        return factor * sum(t1 - t0 for t0, t1 in spans)
