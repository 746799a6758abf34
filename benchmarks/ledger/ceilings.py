"""Hand-written numpy ceilings: what the same app costs without a stream
runtime.

Each ceiling takes the app's (cyclic) source data and an output item count
and returns that many output items as one ndarray — the program a person
would write for the job with ``np.convolve``, one GEMM, or ``np.fft``.
They are the denominator of ``ceiling_ratio``; the apps' own ``reference()``
functions are Python-loop correctness models, far too slow to be ceilings.
Every ceiling is validated against the scalar oracle before it is timed.
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.apps import dct, fft, filterbank, fir, fmradio
from repro.apps.common import lowpass_taps


def _stream(data: np.ndarray, n: int) -> np.ndarray:
    """The first ``n`` items an ``ArraySource`` cycling ``data`` pushes."""
    return np.resize(data, n)


def _fir(x: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """``y[j] = sum_i taps[i] * x[j + i]`` (FIRFilter's window order)."""
    return np.convolve(x, taps[::-1], "valid")


def make_fir() -> Callable[[np.ndarray, int], np.ndarray]:
    taps = np.asarray(lowpass_taps(fir.DEFAULT_TAPS, 0.2))

    def run(data: np.ndarray, n: int) -> np.ndarray:
        return _fir(_stream(data, n + len(taps) - 1), taps)

    return run


def make_fmradio() -> Callable[[np.ndarray, int], np.ndarray]:
    n_taps = fmradio.DEFAULT_TAPS
    front = np.asarray(lowpass_taps(n_taps, 0.3))
    gains = [1.0 + 0.2 * i for i in range(fmradio.N_BANDS)]
    # The equalizer is linear: six gained band-pass FIRs summed are one FIR.
    equalizer = np.sum(
        [g * np.asarray(band) for g, band in zip(gains, fmradio._equalizer_bands(n_taps))],
        axis=0,
    )

    def run(data: np.ndarray, n: int) -> np.ndarray:
        x = _stream(data, n + 2 * (n_taps - 1) + 1)
        low = _fir(x, front)
        demod = 2.0 * low[:-1] * low[1:]
        return _fir(demod, equalizer)

    return run


def make_filterbank() -> Callable[[np.ndarray, int], np.ndarray]:
    nb = filterbank.N_BRANCHES
    n_taps = filterbank.DEFAULT_TAPS
    bands = np.asarray(filterbank._bands(n_taps))  # (branch, tap)
    reach = n_taps // nb + 1  # analysis outputs one synthesis window touches
    # Polyphase synthesis: the expander leaves one non-zero per nb samples,
    # so output 8m+r reads analysis rows m..m+reach-1 through taps 8q-r.
    synth = np.zeros((reach * nb, nb))
    for q in range(reach):
        for r in range(nb):
            k = nb * q - r
            if 0 <= k < n_taps:
                synth[q * nb : (q + 1) * nb, r] = bands[:, k]
    analysis = np.ascontiguousarray(bands.T)  # (tap, branch)

    def run(data: np.ndarray, n: int) -> np.ndarray:
        blocks = -(-n // nb)
        rows = blocks + reach - 1
        x = _stream(data, (rows - 1) * nb + n_taps)
        analyzed = sliding_window_view(x, n_taps)[::nb] @ analysis  # (rows, nb)
        windows = sliding_window_view(analyzed.reshape(-1), reach * nb)[::nb]
        return (windows @ synth).reshape(-1)[:n]

    return run


def make_dct() -> Callable[[np.ndarray, int], np.ndarray]:
    size = dct.SIZE
    m = dct.dct_matrix(size)
    mt = np.ascontiguousarray(m.T)

    def run(data: np.ndarray, n: int) -> np.ndarray:
        blocks = -(-n // (size * size))
        x = _stream(data, blocks * size * size).reshape(blocks, size, size)
        return (m @ x @ mt).reshape(-1)[:n]

    return run


def make_fft() -> Callable[[np.ndarray, int], np.ndarray]:
    size = fft.DEFAULT_N

    def run(data: np.ndarray, n: int) -> np.ndarray:
        blocks = -(-n // (2 * size))
        x = _stream(data, blocks * size).reshape(blocks, size)
        # complex128 viewed as float64 is the interleaved re, im stream.
        return np.fft.fft(x, axis=1).view(np.float64).reshape(-1)[:n]

    return run


CEILINGS: Dict[str, Callable[[], Callable[[np.ndarray, int], np.ndarray]]] = {
    "FIR": make_fir,
    "FMRadio": make_fmradio,
    "FilterBank": make_filterbank,
    "DCT": make_dct,
    "FFT": make_fft,
}
