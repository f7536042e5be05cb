"""Host speed correction: a fixed pure-Python kernel timed during each interval.

The benchmark runs on shared virtual machines whose speed drifts by up to
1.7x, for seconds to minutes at a time, for reasons outside the process:
CPU time drifts with wall time.  A `Clock` therefore samples the host's
speed with a reference kernel that uses no hochheat code.  It runs the
kernel twice before the first interval it times and twice after each one,
and, while an interval runs, once every SAMPLE_EVERY_S seconds from a timer
signal.  Take an interval of t seconds, net of the kernel runs inside it,
and let r be the median time of the kernel runs in and around it.  It is
reported as t * (NOMINAL_S / r) ** e: its length at the speed where the
kernel takes NOMINAL_S.  The exponent e is the workload's measured
sensitivity: the slope of log pass time against log kernel time while the
host's speed drifts.  Raw durations are kept beside the corrected ones.

The kernel mixes integer arithmetic, `Fraction` arithmetic on dicts, dict
inserts with sorting, and a sparse product of `Fraction` polynomials: the
operations that dominate hochheat's exact lanes.
"""

from __future__ import annotations

import random
import signal
import statistics
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Tuple

#: kernel time that defines the nominal speed (an uncontended 2-vCPU Xeon VM)
NOMINAL_S = 0.025
#: period of the kernel runs inside a timed interval
SAMPLE_EVERY_S = 0.5


def kernel() -> int:
    """Fixed work, independent of hochheat; about 25 ms at nominal speed."""
    total = 0
    for i in range(60000):
        total += i * i % 7
    sums = {}
    for i in range(1200):
        key = (i % 17, i % 5)
        sums[key] = sums.get(key, Fraction(0)) + Fraction(i % 7 + 1, i % 11 + 1)
    rng = random.Random(1)
    counts = {}
    for _ in range(6000):
        key = (rng.randrange(1000), rng.randrange(1000))
        counts[key] = counts.get(key, 0) + 1
    total += len(sorted(counts.items()))
    poly = {(i, j): Fraction(i + 1, j + 2) for i in range(10) for j in range(10)}
    head = list(poly.items())[:25]
    product = {}
    for (i1, j1), c1 in poly.items():
        for (i2, j2), c2 in head:
            key = (i1 + i2, j1 + j2)
            product[key] = product.get(key, 0) + c1 * c2
    return total + len(sums) + len(product)


def sample() -> Tuple[float, float]:
    """Wall and CPU seconds of one kernel run."""
    w0, c0 = time.perf_counter(), time.process_time()
    kernel()
    return time.perf_counter() - w0, time.process_time() - c0


@dataclass
class Interval:
    wall: float        # raw seconds, net of the kernel runs inside the interval
    cpu: float
    ref_wall: float    # median kernel seconds in and around the interval
    ref_cpu: float
    inner_samples: int

    def wall_s(self, exponent: float) -> float:
        """Wall seconds at nominal speed, for code whose time goes as r^exponent."""
        return self.wall * (NOMINAL_S / self.ref_wall) ** exponent

    def cpu_s(self, exponent: float) -> float:
        return self.cpu * (NOMINAL_S / self.ref_cpu) ** exponent


class Clock:
    """Times calls while sampling the host's speed with the reference kernel."""

    #: kernel runs between two intervals
    RUNS = 2

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = [sample() for _ in range(self.RUNS)]

    def time(self, fn: Callable[[], object], inner: bool = True):
        """Call fn() and return its result and `Interval`.

        With `inner`, the kernel also runs every SAMPLE_EVERY_S seconds
        during the call, from a SIGALRM handler on the main thread.
        """
        inside: List[Tuple[float, float]] = []
        if inner:
            previous = signal.signal(signal.SIGALRM, lambda signum, frame: inside.append(sample()))
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            result = fn()
        finally:
            if inner:
                signal.setitimer(signal.ITIMER_REAL, 0)
            wall = time.perf_counter() - w0 - sum(w for w, _ in inside)
            cpu = time.process_time() - c0 - sum(c for _, c in inside)
            if inner:
                signal.signal(signal.SIGALRM, previous)
        before = self.samples[-self.RUNS:]
        after = [sample() for _ in range(self.RUNS)]
        self.samples += inside + after
        around = before + inside + after
        return result, Interval(wall, cpu, statistics.median(w for w, _ in around),
                                statistics.median(c for _, c in around), len(inside))
