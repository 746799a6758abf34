"""Calibrated seconds: every timed op is bracketed by a fixed spin loop.

This host's speed drifts: the median of a fixed Python loop moved between
33 and 51 ms across consecutive 10 s buckets of one quiet run (quartile
spread 25% of the median), with no steal time reported to the guest.  Raw
medians of 12 s runs therefore differed by 20-45% between identical runs,
far outside any useful regression bound.  The drift is slower than an op,
so the op's time divided by the mean of the two ~3 ms spins around it is
steady.

The drift has (at least) two components, so there are two spins and an op
is held against the one of its own kind.  Over 15 s buckets of one warm
process, quartile spread of the bucket medians as a share of their median:

    op                         raw    / compute spin   / interp spin
    kernel windows            11.9%        3.5%             7.2%
    dispatch windows          16.0%        3.1%             5.6%
    blocks of run_steady(1)   23.7%        8.6%             3.0%
    compile jobs               9.2%        6.1%             1.6%

``compute`` (integer arithmetic in a tight loop) follows bulk numpy
windows; ``interp`` (method calls, container allocation, a small numpy call
now and then) follows per-call dispatch and the pure-Python compile path.

A calibrated second is the op/spin ratio times the spin's floor on the
reference host (``nominal``): on a quiet reference host calibrated and raw
seconds agree, on a slowed one calibrated seconds stay put.  Raw medians
are kept beside the calibrated ones in every result.
"""

from __future__ import annotations

import time
from typing import Callable, Tuple

import numpy as np

clock = time.perf_counter

#: A spin that ended this recently still describes "now".
_REUSE_S = 0.0005

_BLOCK = np.arange(4096, dtype=np.float64)


class _Probe:
    def __init__(self) -> None:
        self.value = 0

    def bump(self, i: int) -> int:
        self.value += i
        return self.value


def spin_compute() -> float:
    """Seconds a fixed arithmetic loop takes right now."""
    start = clock()
    total = 0
    for i in range(100_000):
        total += i
    return clock() - start


def spin_interp() -> float:
    """Seconds a fixed loop of interpreter work takes right now: method
    calls, dict stores, list allocation, and a small numpy call with a
    ``tolist`` every 128th iteration."""
    start = clock()
    total = 0
    table = {}
    probe = _Probe()
    for i in range(15_000):
        total += i
        table[i & 255] = [i, total]
        probe.bump(i)
        if not i & 127:
            (_BLOCK * 1.5)[:64].tolist()
    return clock() - start


#: kind -> (spin, its floor in seconds on the quiet reference host).
SPINS = {
    "compute": (spin_compute, 0.0027),
    "interp": (spin_interp, 0.0023),
}


class Stopwatch:
    """Times calls in raw seconds and in seconds calibrated by one kind of
    spin."""

    def __init__(self, kind: str) -> None:
        self._spin, self._nominal = SPINS[kind]
        self._last = 0.0
        self._last_end = -1.0

    def _after(self) -> float:
        self._last = self._spin()
        self._last_end = clock()
        return self._last

    def _before(self) -> float:
        if clock() - self._last_end < _REUSE_S:
            return self._last
        return self._after()

    def time(self, fn: Callable, *args) -> Tuple[object, float, float]:
        """``(fn(*args), raw seconds, calibrated seconds)``."""
        before = self._before()
        start = clock()
        result = fn(*args)
        raw = clock() - start
        after = self._after()
        return result, raw, raw * self._nominal * 2.0 / (before + after)

    def since(self, start: float) -> Tuple[float, float]:
        """Raw and calibrated seconds since ``start`` for a span that began
        before any spin could run (a process's imports): one spin, after."""
        raw = clock() - start
        return raw, raw * self._nominal / self._after()
