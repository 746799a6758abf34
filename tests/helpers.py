"""Shared test utilities: analyzable filters and run helpers.

Filters used across the test suite live here (in a real module, not a
REPL) so ``inspect.getsource`` works for the linear extraction and work
estimation analyses.
"""

from __future__ import annotations

import warnings
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.graph import (
    ArraySource,
    CollectSink,
    Filter,
    Identity,
    Pipeline,
    Stream,
    joiner_roundrobin,
    roundrobin,
)
from repro.errors import EngineDowngradeWarning
from repro.graph.composites import FeedbackLoop
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


class LoopShaper(Filter):
    """Feedback-loop body head: merges the input with the fed-back item."""

    def __init__(self, leak: float) -> None:
        super().__init__(pop=2, push=2)
        self.leak = float(leak)

    def work(self) -> None:
        x = self.pop()
        fed = self.pop()
        y = x - self.leak * fed
        self.push(y)
        self.push(y * 0.5)


class Guarded(Filter):
    """A ``try`` around its arithmetic: a body the core emitter calls from
    its loop instead of inlining.  ``|y| <= |gain|``, so a loop stays
    bounded."""

    def __init__(self, gain: float = 0.5) -> None:
        super().__init__(pop=1, push=1)
        self.gain = float(gain)

    def work(self) -> None:
        x = self.pop()
        try:
            y = self.gain / x if abs(x) > 1.0 else x * self.gain
        except ZeroDivisionError:
            y = 0.0
        self.push(y)


class Peek3(Filter):
    """Peeking (peek 3, pop 1) with every position a literal."""

    def __init__(self, a: float, b: float, c: float) -> None:
        super().__init__(peek=3, pop=1, push=1)
        self.a, self.b, self.c = float(a), float(b), float(c)

    def work(self) -> None:
        y = self.peek(0) * self.a + self.peek(1) * self.b + self.peek(2) * self.c
        self.pop()
        self.push(y)


class Permuted(Filter):
    """Weights its three-item window in the order a permutation attribute
    gives: a constant-trip loop whose peek positions are read from a
    tuple."""

    def __init__(self, perm: Sequence[int], weights: Sequence[float]) -> None:
        super().__init__(peek=3, pop=1, push=1)
        self.perm = tuple(int(p) for p in perm)
        self.weights = tuple(float(w) for w in weights)

    def work(self) -> None:
        total = 0.0
        for i in range(len(self.perm)):
            total += self.peek(self.perm[i]) * self.weights[i]
        self.pop()
        self.push(total)


class Sorter(Filter):
    """Pushes a scaled pair low item first: a data-dependent ``if`` whose
    arms push as many items."""

    def __init__(self, scale: float) -> None:
        super().__init__(pop=2, push=2)
        self.scale = float(scale)

    def work(self) -> None:
        a = self.pop()
        b = self.pop() * self.scale
        if a <= b:
            self.push(a)
            self.push(b)
        else:
            self.push(b)
            self.push(a)


class Fold(Filter):
    """Pushes from inside a conditional."""

    def __init__(self, at: float) -> None:
        super().__init__(pop=1, push=1)
        self.at = float(at)

    def work(self) -> None:
        x = self.pop()
        if x > self.at:
            self.push(x * 0.5)
        else:
            self.push(self.at - x)


class Upsample(Filter):
    """pop 1 / push k: the item, then k - 1 scaled copies."""

    def __init__(self, k: int) -> None:
        super().__init__(pop=1, push=k)
        self.k = k

    def work(self) -> None:
        x = self.pop()
        for j in range(self.k):
            self.push(x * (j + 1))


class Tripwire(Filter):
    """Identity that raises ``ValueError("tripped")`` on its ``trip``-th firing."""

    def __init__(self, trip: int) -> None:
        super().__init__(pop=1, push=1, name="tripwire")
        self.trip = trip
        self.count = 0

    def work(self) -> None:
        self.count += 1
        if self.count == self.trip:
            raise ValueError("tripped")
        self.push(self.pop())


def open_session(app: Stream, engine: str) -> Interpreter:
    """An unchecked interpreter (two cores when parallel), downgrade
    warnings silenced; the caller closes it."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EngineDowngradeWarning)
        return Interpreter(app, check=False, engine=engine, strategy="softpipe", cores=2)


def feedback_app(
    data: Sequence[float],
    body: Sequence[Stream] = (),
    loopback: Sequence[Stream] = (),
    delay: int = 1,
    rounds: int = 1,
    leak: float = 0.5,
) -> Pipeline:
    """source -> (x ``rounds``) -> loop -> gain -> sink, where the loop is
    ``joiner(1, 1) -> LoopShaper -> *body -> splitter(1, 1)`` with
    ``loopback`` stages on the way back and ``delay`` items primed on it.
    ``rounds`` items enter the loop each period, so its core repeats one
    round that many times."""
    loop = FeedbackLoop(
        joiner_roundrobin(1, 1),
        Pipeline(LoopShaper(leak), *body),
        roundrobin(1, 1),
        Pipeline(*loopback) if loopback else Identity(),
        delay=delay,
        init_path=lambda i: 0.25 * (i + 1),
    )
    spread = [Upsample(rounds)] if rounds > 1 else []
    return Pipeline(ArraySource(list(data)), *spread, loop, Gain(0.5), CollectSink())


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


def cores_of(interp: Interpreter) -> list:
    """The plan's feedback-core blocks (none without a plan)."""
    plan = interp.plan
    return [] if plan is None else [b for b in plan.blocks if b.kind == "core"]


def run_calls(
    build, engine: str, calls: Sequence[int], chunk_periods: Optional[int] = None, **opts
) -> Tuple[List[float], Interpreter]:
    """``run_init()`` then one ``run_steady`` per entry of ``calls`` on a
    fresh ``build()`` (``opts`` go to the :class:`Interpreter`), a compiled
    plan's passes capped at ``chunk_periods`` when given."""
    app = build()
    sink = next(f for f in app.filters() if isinstance(f, CollectSink))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EngineDowngradeWarning)
        interp = Interpreter(app, check=False, engine=engine, **opts)
        if chunk_periods is not None and interp.plan is not None:
            interp.plan.chunk_periods = chunk_periods
        try:
            interp.run_init()
            for periods in calls:
                interp.run_steady(periods)
        finally:
            interp.close()
    return list(sink.collected), interp
