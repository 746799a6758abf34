"""Frequency translation: executing a linear node with FFT convolution.

A linear node with a wide input window performs, per output position ``j``,
a sliding correlation of the input with row ``A[j, :]``.  Translating to the
frequency domain computes ``B`` firings at once with one forward FFT of the
input window shared across all output positions (overlap–save), an
asymptotic win for convolutional filters — the paper's frequency
replacement.

With ``conv = x * reverse(A[j,:])`` (full convolution), firing ``t``'s
``j``-th output is ``conv[t·pop + peek - 1] + b[j]``; the strided slice
handles decimating filters (``pop > 1``) for free.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import StreamItError
from repro.graph.base import Filter
from repro.linear.costmodel import best_block, fft_size
from repro.linear.linrep import LinearRep
from repro.runtime.kernels import firing_windows


class FrequencyFilter(Filter):
    """Executes a :class:`LinearRep` in the frequency domain.

    One work invocation computes ``block`` logical firings: it peeks the
    ``block·pop + (peek - pop)`` item window, performs one shared forward
    real FFT, multiplies by each precomputed row spectrum, inverse
    transforms, and pushes the ``block·push`` results in firing order.
    Stream semantics are bit-for-bit the rate-scaled expansion of the
    original node; only the arithmetic route differs.
    """

    def __init__(
        self,
        rep: LinearRep,
        block: Optional[int] = None,
        name: Optional[str] = None,
    ) -> None:
        if block is None:
            block = best_block(rep)
        if block < 1:
            raise StreamItError(f"block must be >= 1, got {block}")
        self.rep = rep
        self.block = block
        window = block * rep.pop + rep.extra_peek
        super().__init__(
            peek=window,
            pop=block * rep.pop,
            push=block * rep.push,
            name=name,
        )
        self.n_fft = fft_size(rep, block)
        if self.n_fft < window:
            raise StreamItError("FFT size smaller than the input window")
        # Precompute each output row's kernel spectrum (correlation =
        # convolution with the reversed row).
        kernels = rep.A[:, ::-1]
        self._spectra = np.fft.rfft(kernels, n=self.n_fft, axis=1)
        # conv[t*pop + peek - 1] indexes, for t in [0, block)
        self._taps = rep.peek - 1 + rep.pop * np.arange(block)

    supports_work_batch = True

    def work(self) -> None:
        rep = self.rep
        window = np.fromiter(
            (self.peek(i) for i in range(self.rate.peek)),
            dtype=np.float64,
            count=self.rate.peek,
        )
        spectrum = np.fft.rfft(window, n=self.n_fft)
        # conv has shape (push, n_fft); we only need the strided taps.
        conv = np.fft.irfft(self._spectra * spectrum[None, :], n=self.n_fft, axis=1)
        outputs = conv[:, self._taps] + rep.b[:, None]  # (push, block)
        for _ in range(self.rate.pop):
            self.pop()
        # Firing order: firing t's outputs y[t*push + j].
        for value in outputs.T.reshape(-1):
            self.push(float(value))

    def work_batch(self, n: int) -> None:
        """``n`` overlap–save firings with batched (2-D) FFTs.

        pocketfft applies the same 1-D transform to every row, so the
        spectra — and hence the outputs — are bit-identical to ``n``
        scalar firings; only the per-item channel traffic disappears.
        """
        rep = self.rep
        rate = self.rate
        window = self.input.peek_block((n - 1) * rate.pop + rate.peek)
        W = firing_windows(window, rate.peek, rate.pop, n)
        # Bound the (rows, push, n_fft) intermediate to ~16 MiB per slab.
        slab = max(1, (1 << 21) // max(rep.push * self.n_fft, 1))
        # conv[t*pop + peek - 1] for t in [0, block): an arithmetic
        # progression, so a strided slice.  Written firing-major with the
        # push outputs of a firing adjacent (the transpose), straight into
        # the one result array.
        lo = rep.peek - 1
        hi = lo + rep.pop * (self.block - 1) + 1
        result = np.empty((n, self.block, rep.push))
        for s in range(0, n, slab):
            spectra = np.fft.rfft(W[s : s + slab], n=self.n_fft, axis=1)
            conv = np.fft.irfft(
                self._spectra[None, :, :] * spectra[:, None, :], n=self.n_fft, axis=2
            )
            # ``+ b`` stays even when b == 0: it is what turns -0.0 into 0.0.
            np.add(
                conv[:, :, lo : hi : rep.pop].transpose(0, 2, 1),
                rep.b,
                out=result[s : s + slab],
            )
        self.input.drop(n * rate.pop)
        self.output.push_block(result)


def frequency_replace(rep: LinearRep, block: Optional[int] = None, name: Optional[str] = None) -> FrequencyFilter:
    """Build the frequency-domain implementation of a linear node."""
    return FrequencyFilter(rep, block=block, name=name)
