"""Shared test utilities: analyzable filters and run helpers.

Filters used across the test suite live here (in a real module, not a
REPL) so ``inspect.getsource`` works for the linear extraction and work
estimation analyses.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.graph import ArraySource, CollectSink, Filter, Pipeline, Stream
from repro.runtime import Interpreter


class FIR(Filter):
    """Sliding-window FIR: the canonical linear, peeking filter."""

    def __init__(self, coeffs: Sequence[float], name: Optional[str] = None) -> None:
        super().__init__(peek=len(coeffs), pop=1, push=1, name=name)
        self.coeffs = tuple(float(c) for c in coeffs)

    def work(self) -> None:
        total = 0.0
        for i in range(len(self.coeffs)):
            total += self.peek(i) * self.coeffs[i]
        self.pop()
        self.push(total)


class Gain(Filter):
    def __init__(self, k: float, name: Optional[str] = None) -> None:
        super().__init__(pop=1, push=1, name=name)
        self.k = float(k)

    def work(self) -> None:
        self.push(self.pop() * self.k)


class Offset(Filter):
    """Affine with nonzero b: ``y = x + c``."""

    def __init__(self, c: float) -> None:
        super().__init__(pop=1, push=1)
        self.c = float(c)

    def work(self) -> None:
        self.push(self.pop() + self.c)


class Square(Filter):
    """Nonlinear: ``y = x^2``."""

    def __init__(self) -> None:
        super().__init__(pop=1, push=1)

    def work(self) -> None:
        x = self.pop()
        self.push(x * x)


class Accumulator(Filter):
    """Stateful: running sum."""

    def __init__(self) -> None:
        super().__init__(pop=1, push=1)
        self.total = 0.0

    def init(self) -> None:
        self.total = 0.0

    def work(self) -> None:
        self.total += self.pop()
        self.push(self.total)


class Butterfly2(Filter):
    """pop 2 / push 2 linear: ``(a+b, a-b)``."""

    def __init__(self) -> None:
        super().__init__(pop=2, push=2)

    def work(self) -> None:
        a = self.pop()
        b = self.pop()
        self.push(a + b)
        self.push(a - b)


class Downsample2(Filter):
    def __init__(self) -> None:
        super().__init__(pop=2, push=1)

    def work(self) -> None:
        kept = self.pop()
        self.pop()
        self.push(kept)


class Upsample3(Filter):
    def __init__(self) -> None:
        super().__init__(pop=1, push=3)

    def work(self) -> None:
        x = self.pop()
        self.push(x)
        self.push(0.0)
        self.push(0.0)


class PeekAverage(Filter):
    """Peeking linear filter: mean of a 4-item window, pop 2."""

    def __init__(self) -> None:
        super().__init__(peek=4, pop=2, push=1)

    def work(self) -> None:
        total = 0.0
        for i in range(4):
            total += self.peek(i)
        self.pop()
        self.pop()
        self.push(total / 4.0)


def run_pipeline(*stages, data: Sequence[float], periods: int) -> List[float]:
    """Build source -> stages -> sink, run, and return collected output."""
    sink = CollectSink()
    app = Pipeline(ArraySource(list(data)), *stages, sink)
    Interpreter(app).run(periods=periods)
    return list(sink.collected)


def run_stream(app: Stream, periods: int) -> List[float]:
    """Run a closed app and return its (single) CollectSink's output."""
    sink = next(f for f in app.filters() if isinstance(f, CollectSink))
    Interpreter(app).run(periods=periods)
    return list(sink.collected)


def assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    """Equal float64 arrays bit for bit, sign of zero included."""
    assert got.dtype == np.float64 and got.shape == want.shape
    assert np.array_equal(np.isnan(got), np.isnan(want))
    held = ~np.isnan(want)  # a NaN's sign and payload are not part of the contract
    assert np.array_equal(got[held], want[held])
    assert np.array_equal(np.signbit(got[held]), np.signbit(want[held]))
