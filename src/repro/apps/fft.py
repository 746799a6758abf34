"""FFT — an N-point complex FFT in the classic StreamIt structure:
a bit-reversal reordering stage followed by ``log2(N)`` combine stages
(the paper's butterfly figure).  The stream carries interleaved complex
samples ``re0, im0, re1, im1, …``; every stage is a linear filter, so the
whole kernel is one large linear region.
"""

from __future__ import annotations

import math
from typing import List, Optional

import numpy as np

from repro.apps.common import signal, source_and_sink
from repro.graph.base import Filter
from repro.graph.composites import Pipeline
from repro.runtime.kernels import const_array

DEFAULT_N = 64


class FFTReorderSimple(Filter):
    """One deinterleave pass: evens then odds, over ``size`` complex items."""

    def __init__(self, size: int, name: Optional[str] = None) -> None:
        super().__init__(pop=2 * size, push=2 * size, name=name)
        self.size = size

    def work(self) -> None:
        for i in range(0, self.size, 2):
            self.push(self.peek(2 * i))
            self.push(self.peek(2 * i + 1))
        for i in range(1, self.size, 2):
            self.push(self.peek(2 * i))
            self.push(self.peek(2 * i + 1))
        for _ in range(2 * self.size):
            self.pop()

    supports_work_batch = True

    def work_batch(self, n: int) -> None:
        # Pure deinterleave: even-indexed complex pairs, then odd-indexed.
        size = self.size
        pairs = self.input.pop_block(n * 2 * size).reshape(n, size, 2)
        out = np.concatenate((pairs[:, 0::2], pairs[:, 1::2]), axis=1)
        self.output.push_block(out.reshape(n, 2 * size))


class CombineDFT(Filter):
    """One radix-2 combine stage over groups of ``2w`` complex items.

    For each of the ``w`` butterflies: ``out[i] = a[i] + t_i · b[i]``,
    ``out[i+w] = a[i] - t_i · b[i]`` with twiddle ``t_i = e^{-2πi·i/(2w)}``.
    All coefficients are compile-time constants, so the stage is linear.
    """

    def __init__(self, w: int, inverse: bool = False, name: Optional[str] = None) -> None:
        super().__init__(pop=4 * w, push=4 * w, name=name)
        self.w = w
        sign = 1.0 if inverse else -1.0
        self.wr = tuple(math.cos(2 * math.pi * i / (2 * w)) for i in range(w))
        self.wi = tuple(sign * math.sin(2 * math.pi * i / (2 * w)) for i in range(w))

    def work(self) -> None:
        w = self.w
        results = [0.0] * (4 * w)
        for i in range(w):
            ar = self.peek(2 * i)
            ai = self.peek(2 * i + 1)
            br = self.peek(2 * (i + w))
            bi = self.peek(2 * (i + w) + 1)
            tr = br * self.wr[i] - bi * self.wi[i]
            ti = br * self.wi[i] + bi * self.wr[i]
            results[2 * i] = ar + tr
            results[2 * i + 1] = ai + ti
            results[2 * (i + w)] = ar - tr
            results[2 * (i + w) + 1] = ai - ti
        for _ in range(4 * w):
            self.pop()
        for value in results:
            self.push(value)

    supports_work_batch = True

    def work_batch(self, n: int) -> None:
        # Same multiply/add expressions as the scalar butterflies, evaluated
        # columnwise — elementwise identical, so outputs are bit-exact.
        w = self.w
        block = self.input.pop_block(n * 4 * w).reshape(n, 2, w, 2)
        ar = block[:, 0, :, 0]
        ai = block[:, 0, :, 1]
        br = block[:, 1, :, 0]
        bi = block[:, 1, :, 1]
        wr = const_array(self.wr, np.float64)
        wi = const_array(self.wi, np.float64)
        tr = br * wr - bi * wi
        ti = br * wi + bi * wr
        out = np.empty((n, 2, w, 2))
        out[:, 0, :, 0] = ar + tr
        out[:, 0, :, 1] = ai + ti
        out[:, 1, :, 0] = ar - tr
        out[:, 1, :, 1] = ai - ti
        self.output.push_block(out.reshape(n, 4 * w))


class ComplexScale(Filter):
    """Scales interleaved complex items by 1/N (for the inverse FFT)."""

    def __init__(self, factor: float, name: Optional[str] = None) -> None:
        super().__init__(pop=2, push=2, name=name)
        self.factor = float(factor)

    def work(self) -> None:
        self.push(self.pop() * self.factor)
        self.push(self.pop() * self.factor)


def fft_kernel(n: int = DEFAULT_N, inverse: bool = False, prefix: str = "fft") -> Pipeline:
    """The FFT as a stream: reorder stages then combine stages."""
    if n & (n - 1) or n < 2:
        raise ValueError(f"FFT size must be a power of two >= 2, got {n}")
    stages: List[Filter] = []
    size = n
    while size >= 4:
        stages.append(FFTReorderSimple(size, name=f"{prefix}_reorder{size}"))
        size //= 2
    w = 1
    while w < n:
        stages.append(CombineDFT(w, inverse=inverse, name=f"{prefix}_combine{w}"))
        w *= 2
    kernel = Pipeline(*stages, name=f"{prefix.upper()}({n})")
    return kernel


class RealToComplex(Filter):
    """Pairs each real sample with a zero imaginary part."""

    def __init__(self, name: Optional[str] = None) -> None:
        super().__init__(pop=1, push=2, name=name)

    def work(self) -> None:
        self.push(self.pop())
        self.push(0.0)


def build(n: int = DEFAULT_N, input_length: int = 256) -> Pipeline:
    source, sink = source_and_sink(signal(max(input_length, n)))
    return Pipeline(
        source,
        RealToComplex(name="re2c"),
        fft_kernel(n),
        sink,
        name="FFT",
    )


def reference(x: np.ndarray, n: int = DEFAULT_N) -> np.ndarray:
    """Interleaved complex FFT of consecutive n-sample blocks of real input."""
    x = np.asarray(x, dtype=np.float64)
    n_blocks = len(x) // n
    out = np.empty(n_blocks * 2 * n)
    for b in range(n_blocks):
        spec = np.fft.fft(x[b * n : (b + 1) * n])
        out[b * 2 * n : (b + 1) * 2 * n : 2] = spec.real
        out[b * 2 * n + 1 : (b + 1) * 2 * n : 2] = spec.imag
    return out
