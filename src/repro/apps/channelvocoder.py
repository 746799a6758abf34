"""ChannelVocoder — a channel vocoder: a wide split-join where each channel
band-pass filters the input and tracks its envelope with a peeking
low-pass magnitude filter.  Stateless but heavily peeking, so coarse data
parallelism must pay duplication costs to fiss it.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.apps.common import FIRFilter, bandpass_taps, lowpass_taps, signal, source_and_sink
from repro.graph.base import Filter
from repro.graph.composites import Pipeline, SplitJoin
from repro.graph.splitjoin import duplicate, joiner_roundrobin
from repro.runtime.kernels import ordered_mac, unit_taps

N_CHANNELS = 16
DEFAULT_TAPS = 24


class EnvelopeFollower(Filter):
    """Windowed mean absolute value — nonlinear (abs) and peeking."""

    def __init__(self, window: int, name: Optional[str] = None) -> None:
        super().__init__(peek=window, pop=1, push=1, name=name)
        self.window = window

    def work(self) -> None:
        total = 0.0
        for i in range(self.window):
            value = self.peek(i)
            if value < 0.0:
                value = -value
            total += value
        self.pop()
        self.push(total / self.window)

    supports_work_batch = True

    def work_batch(self, n: int) -> None:
        w = self.window
        magnitudes = np.abs(self.input.peek_block(n - 1 + w))
        total = ordered_mac(magnitudes, unit_taps(w), n, 1)
        self.input.drop(n)
        self.output.push_block(total / w)


def _bands(n_taps: int) -> List[List[float]]:
    edges = np.linspace(0.01, 0.49, N_CHANNELS + 1)
    return [
        bandpass_taps(n_taps, float(edges[i]), float(edges[i + 1]))
        for i in range(N_CHANNELS)
    ]


def build(n_taps: int = DEFAULT_TAPS, window: int = 16, input_length: int = 256) -> Pipeline:
    source, sink = source_and_sink(signal(input_length))
    channels = []
    for i, taps in enumerate(_bands(n_taps)):
        channels.append(
            Pipeline(
                FIRFilter(taps, name=f"bp{i}"),
                EnvelopeFollower(window, name=f"env{i}"),
                name=f"chan{i}",
            )
        )
    bank = SplitJoin(duplicate(), channels, joiner_roundrobin(), name="channels")
    return Pipeline(source, bank, sink, name="ChannelVocoder")


def reference(x: np.ndarray, n_taps: int = DEFAULT_TAPS, window: int = 16) -> np.ndarray:
    from repro.apps.common import fir_reference

    x = np.asarray(x, dtype=np.float64)
    outs = []
    for taps in _bands(n_taps):
        bp = fir_reference(x, taps)
        n = len(bp) - (window - 1)
        outs.append(
            np.array([np.abs(bp[j : j + window]).mean() for j in range(max(n, 0))])
        )
    n = min(len(o) for o in outs)
    interleaved = np.empty(n * N_CHANNELS)
    for i, o in enumerate(outs):
        interleaved[i::N_CHANNELS] = o[:n]
    return interleaved
