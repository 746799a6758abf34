"""Shared utilities for the benchmark applications.

Every application exposes ``build(...) -> Pipeline`` returning a *closed*
stream (with its own source and sink) plus, where a simple closed form
exists, a numpy ``reference`` model used by the correctness tests.  Inputs
are deterministic, seeded synthetic signals — throughput of these
static-rate programs is input-independent, and references validate the
numerics (see DESIGN.md's substitution table).
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

import numpy as np

from repro.graph.base import Filter
from repro.graph.builtins import ArraySource, CollectSink
from repro.runtime.kernels import ordered_mac, unit_taps


def signal(n: int, seed: int = 12345) -> List[float]:
    """A deterministic test signal: two tones plus seeded noise."""
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    wave = (
        np.sin(2 * np.pi * t / 16.0)
        + 0.5 * np.sin(2 * np.pi * t / 5.0 + 0.7)
        + 0.25 * rng.standard_normal(n)
    )
    return [float(v) for v in wave]


def lowpass_taps(n_taps: int, cutoff: float, gain: float = 1.0) -> List[float]:
    """Windowed-sinc low-pass FIR taps (Hamming window).

    ``cutoff`` is the normalized cutoff in (0, 0.5] (fraction of the sample
    rate).
    """
    if not 0 < cutoff <= 0.5:
        raise ValueError(f"cutoff must be in (0, 0.5], got {cutoff}")
    taps = []
    mid = (n_taps - 1) / 2.0
    for i in range(n_taps):
        x = i - mid
        core = 2 * cutoff if x == 0 else math.sin(2 * math.pi * cutoff * x) / (math.pi * x)
        window = 0.54 - 0.46 * math.cos(2 * math.pi * i / max(n_taps - 1, 1))
        taps.append(gain * core * window)
    return taps


def bandpass_taps(n_taps: int, low: float, high: float, gain: float = 1.0) -> List[float]:
    """Band-pass FIR taps as the difference of two low-pass prototypes."""
    hi = lowpass_taps(n_taps, high, gain)
    lo = lowpass_taps(n_taps, low, gain)
    return [h - l for h, l in zip(hi, lo)]


class FIRFilter(Filter):
    """A single-output sliding-window FIR filter (linear, peeking).

    ``y = Σ_i coeffs[i] · peek(i)`` — ``coeffs[0]`` weights the oldest item
    in the window.
    """

    supports_work_batch = True

    def __init__(self, coeffs: Sequence[float], decimation: int = 1, name: Optional[str] = None) -> None:
        coeffs = [float(c) for c in coeffs]
        super().__init__(
            peek=max(len(coeffs), decimation), pop=decimation, push=1, name=name
        )
        self.coeffs = tuple(coeffs)

    def work(self) -> None:
        total = 0.0
        for i in range(len(self.coeffs)):
            total += self.peek(i) * self.coeffs[i]
        for _ in range(self.rate.pop):
            self.pop()
        self.push(total)

    def work_batch(self, n: int) -> None:
        pop = self.rate.pop
        window = self.input.peek_block((n - 1) * pop + self.rate.peek)
        total = ordered_mac(window, self.coeffs, n, pop)
        self.input.drop(n * pop)
        self.output.push_block(total)


class Adder(Filter):
    """Sums groups of ``n`` consecutive items into one (linear)."""

    supports_work_batch = True

    def __init__(self, n: int, name: Optional[str] = None) -> None:
        super().__init__(pop=n, push=1, name=name)
        self.n = n

    def work(self) -> None:
        total = 0.0
        for _ in range(self.n):
            total += self.pop()
        self.push(total)

    def work_batch(self, n: int) -> None:
        groups = self.input.pop_block(n * self.n)
        self.output.push_block(ordered_mac(groups, unit_taps(self.n), n, self.n))


class Scale(Filter):
    """Multiplies every item by a constant (linear)."""

    supports_work_batch = True

    def __init__(self, factor: float, name: Optional[str] = None) -> None:
        super().__init__(pop=1, push=1, name=name)
        self.factor = float(factor)

    def work(self) -> None:
        self.push(self.pop() * self.factor)

    def work_batch(self, n: int) -> None:
        self.output.push_block(self.input.pop_block(n) * self.factor)


class MatrixFilter(Filter):
    """Applies a fixed matrix to blocks of the stream (linear).

    Per firing: pops ``A.shape[1]`` items, pushes ``A.shape[0]`` items
    ``y = A @ x``.  The work function is written in the analyzable subset so
    linear extraction recovers ``A`` exactly.
    """

    def __init__(self, matrix: Sequence[Sequence[float]], name: Optional[str] = None) -> None:
        rows = [tuple(float(v) for v in row) for row in matrix]
        n_out = len(rows)
        n_in = len(rows[0])
        super().__init__(pop=n_in, push=n_out, name=name)
        self.matrix = tuple(rows)
        self.n_in = n_in
        self.n_out = n_out

    supports_work_batch = True

    def work(self) -> None:
        for r in range(self.n_out):
            total = 0.0
            for c in range(self.n_in):
                total += self.peek(c) * self.matrix[r][c]
            self.push(total)
        for _ in range(self.n_in):
            self.pop()

    def work_batch(self, n: int) -> None:
        blocks = self.input.pop_block(n * self.n_in)
        out = np.empty((n, self.n_out))
        for r, row in enumerate(self.matrix):
            out[:, r] = ordered_mac(blocks, row, n, self.n_in)
        self.output.push_block(out)


def source_and_sink(data: Sequence[float]):
    """A fresh (ArraySource, CollectSink) pair for app builders."""
    return ArraySource(list(data), name="source"), CollectSink(name="sink")


def fir_reference(x: np.ndarray, coeffs: Sequence[float], decimation: int = 1) -> np.ndarray:
    """Reference output of :class:`FIRFilter` over an input array."""
    h = np.asarray(coeffs, dtype=np.float64)
    peek = max(len(h), decimation)
    n_firings = (len(x) - (peek - decimation)) // decimation
    out = np.empty(max(n_firings, 0))
    for j in range(len(out)):
        window = x[j * decimation : j * decimation + len(h)]
        out[j] = float(window @ h)
    return out
