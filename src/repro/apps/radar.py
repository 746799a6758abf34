"""Radar — the PCA radar front end (beamformer with stateful channel FIRs).

Twelve input channels are deinterleaved round-robin; each channel runs a
*stateful* decimating FIR (it keeps its delay line as filter state across
firings, as the original StreamIt Radar does), the channels are
re-interleaved and combined into four beams, and each beam's magnitude is
tracked by a stateful detector.  Nearly all of the steady-state work is in
the stateful channel filters — this is the benchmark on which coarse data
parallelism is "paralyzed by the preponderance of stateful computation"
and software pipelining shines.
"""

from __future__ import annotations

import math
from typing import List, Optional

import numpy as np

from repro.apps.common import lowpass_taps, signal, source_and_sink
from repro.graph.base import Filter
from repro.graph.composites import Pipeline, SplitJoin
from repro.graph.splitjoin import duplicate, joiner_roundrobin, roundrobin
from repro.runtime.kernels import ordered_mac

N_CHANNELS = 12
N_BEAMS = 4
FIR_TAPS = 32
DECIMATION = 2


class BeamFirFilter(Filter):
    """A decimating FIR that carries its delay line as *state*.

    Instead of peeking (which would be stateless), the filter maintains
    ``self.history`` across firings and mutates it every invocation —
    faithful to the original Radar implementation and deliberately
    unfissable.
    """

    def __init__(self, taps: List[float], decimation: int, name: Optional[str] = None) -> None:
        super().__init__(pop=decimation, push=1, name=name)
        self.taps = tuple(float(t) for t in taps)
        self.decimation = decimation
        self.history = [0.0] * len(taps)
        self.pos = 0

    def init(self) -> None:
        self.history = [0.0] * len(self.taps)
        self.pos = 0

    def work(self) -> None:
        for _ in range(self.decimation):
            self.history[self.pos] = self.pop()
            self.pos = (self.pos + 1) % len(self.history)
        total = 0.0
        n = len(self.history)
        for i in range(n):
            total += self.taps[i] * self.history[(self.pos - 1 - i) % n]
        self.push(total)

    supports_work_batch = True

    def work_batch(self, n: int) -> None:
        # The delay line and the new block laid out newest-first, so firing
        # k's tap-i operand sits i items into a window that starts
        # (n - 1 - k) * dec items in: the scalar loop's newest-to-oldest
        # i-order is the primitive's, with the firings in reverse.  The
        # ring state is rebuilt from the head.
        taps, dec = self.taps, self.decimation
        t = len(taps)
        pos = self.pos
        fresh = n * dec
        newest_first = np.empty(fresh + t)
        newest_first[:fresh] = self.input.pop_block(fresh)[::-1]
        history = self.history
        for i in range(t):
            newest_first[fresh + i] = history[(pos - 1 - i) % t]
        self.output.push_block(ordered_mac(newest_first, taps, n, dec)[::-1])
        new_pos = (pos + fresh) % t
        for i, value in enumerate(newest_first[:t].tolist()):
            history[(new_pos - 1 - i) % t] = value
        self.pos = new_pos


class BeamWeights(Filter):
    """Linear beamforming: a weighted sum over the channel vector."""

    def __init__(self, weights: List[float], name: Optional[str] = None) -> None:
        super().__init__(pop=len(weights), push=1, name=name)
        self.weights = tuple(float(w) for w in weights)

    def work(self) -> None:
        total = 0.0
        for i in range(len(self.weights)):
            total += self.peek(i) * self.weights[i]
        for _ in range(len(self.weights)):
            self.pop()
        self.push(total)


class MagnitudeDetector(Filter):
    """Stateful detector: exponential-average magnitude tracking."""

    def __init__(self, name: Optional[str] = None) -> None:
        super().__init__(pop=1, push=1, name=name)
        self.average = 0.0

    def init(self) -> None:
        self.average = 0.0

    def work(self) -> None:
        value = self.pop()
        if value < 0.0:
            value = -value
        self.average = 0.9 * self.average + 0.1 * value
        self.push(self.average)

    supports_work_batch = True

    def work_batch(self, n: int) -> None:
        # The EMA is a serial recurrence, so the loop stays scalar — but
        # hoisting channel I/O out of it still removes per-firing dispatch.
        values = self.input.pop_block(n).tolist()
        average = self.average
        out = [0.0] * n
        for i, value in enumerate(values):
            if value < 0.0:
                value = -value
            average = 0.9 * average + 0.1 * value
            out[i] = average
        self.average = average
        self.output.push_block(np.asarray(out))


def _beam_weights(beam: int) -> List[float]:
    return [
        math.cos(2 * math.pi * beam * c / N_CHANNELS) / N_CHANNELS
        for c in range(N_CHANNELS)
    ]


def build(input_length: int = 240) -> Pipeline:
    source, sink = source_and_sink(signal(max(input_length, N_CHANNELS * DECIMATION)))
    channel_taps = lowpass_taps(FIR_TAPS, 0.22)
    channels = SplitJoin(
        roundrobin(*([DECIMATION] * N_CHANNELS)),
        [
            BeamFirFilter(channel_taps, DECIMATION, name=f"chan_fir{c}")
            for c in range(N_CHANNELS)
        ],
        joiner_roundrobin(*([1] * N_CHANNELS)),
        name="channels",
    )
    beams = SplitJoin(
        duplicate(),
        [
            Pipeline(
                BeamWeights(_beam_weights(b), name=f"beam{b}_weights"),
                MagnitudeDetector(name=f"beam{b}_detect"),
                name=f"beam{b}",
            )
            for b in range(N_BEAMS)
        ],
        joiner_roundrobin(),
        name="beams",
    )
    return Pipeline(source, channels, beams, sink, name="Radar")


def reference(x: np.ndarray) -> np.ndarray:
    """Numpy model of the channelized beamformer."""
    x = np.asarray(x, dtype=np.float64)
    taps = np.asarray(lowpass_taps(FIR_TAPS, 0.22))
    n_frames = len(x) // (N_CHANNELS * DECIMATION)
    chan_out = np.zeros((n_frames, N_CHANNELS))
    histories = np.zeros((N_CHANNELS, FIR_TAPS))
    pos = np.zeros(N_CHANNELS, dtype=int)
    for f in range(n_frames):
        frame = x[f * N_CHANNELS * DECIMATION : (f + 1) * N_CHANNELS * DECIMATION]
        for c in range(N_CHANNELS):
            for d in range(DECIMATION):
                histories[c, pos[c]] = frame[c * DECIMATION + d]
                pos[c] = (pos[c] + 1) % FIR_TAPS
            idx = (pos[c] - 1 - np.arange(FIR_TAPS)) % FIR_TAPS
            chan_out[f, c] = taps @ histories[c, idx]
    out = []
    averages = np.zeros(N_BEAMS)
    for f in range(n_frames):
        for b in range(N_BEAMS):
            value = abs(float(np.asarray(_beam_weights(b)) @ chan_out[f]))
            averages[b] = 0.9 * averages[b] + 0.1 * value
            out.append(averages[b])
    return np.asarray(out)
