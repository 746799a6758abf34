"""FreqHopRadio — the paper's trunked-radio example, in both styles.

A frequency-hopping receiver: an RF-to-IF mixer driven by a tunable weight
table, a boostable FIR stage, an FFT with magnitude detection, and
monitors that retune the mixer when energy appears at a hop frequency.

Two implementations of the *control path* are provided:

* :func:`build_teleport` — the paper's contribution: detectors send
  ``setf`` messages to the upstream ``RFtoIF`` through a :class:`Portal`
  with a latency bound; the steady-state dataflow carries data only.
* :func:`build_manual` — the status-quo alternative the paper's 49%
  improvement is measured against: control tokens travel through an
  explicit feedback loop merged round-robin with the data, so every block
  pays the joiner/splitter synchronization and the mixer must parse a
  control token per block.

Both compute the same radio; benchmark E8 compares their throughput.
"""

from __future__ import annotations

import math
from typing import List, Optional

import numpy as np

from repro.apps.common import signal, source_and_sink
from repro.apps.fft import RealToComplex, fft_kernel
from repro.graph.base import Filter
from repro.graph.builtins import Identity
from repro.graph.composites import FeedbackLoop, Pipeline, SplitJoin
from repro.graph.splitjoin import joiner_roundrobin, roundrobin
from repro.runtime.messaging import Portal, TimeInterval

N = 16  # FFT size / control block size
CARRIER_FREQ = 64.0
START_FREQ = 8.0
HOP_FREQS = (4.0, 6.0, 10.0, 12.0)
HOP_THRESHOLD = 2.5


def _weights_for(freq: float) -> List[float]:
    size = max(4, int(CARRIER_FREQ / freq))
    return [math.sin(math.pi * i / size) for i in range(size)]


class RFtoIF(Filter):
    """The tunable mixer (paper Figure "Trunked Radio"): multiplies each
    sample by a periodic weight table.  Stateful (phase counter); retuned
    by ``setf`` teleport messages."""

    def __init__(self, freq: float, name: Optional[str] = None) -> None:
        super().__init__(pop=1, push=1, name=name)
        self.count = 0
        self.hops = 0  # messages received (for tests/demos)
        self._tune(freq)

    def init(self) -> None:
        self.count = 0

    def _tune(self, freq: float) -> None:
        self.freq = freq
        self.weights = _weights_for(freq)
        #: ``weights`` as float64, for ``work_batch``; they change together.
        self._table = np.asarray(self.weights)

    def setf(self, freq: float) -> None:
        """Teleport message handler: retune the mixer."""
        self._tune(freq)
        self.count = 0
        self.hops += 1

    def work(self) -> None:
        self.push(self.pop() * self.weights[self.count])
        self.count += 1
        if self.count == len(self.weights):
            self.count = 0

    supports_work_batch = True

    def work_batch(self, n: int) -> None:
        # Teleport retunes (``setf``) land between sub-batches: the plan
        # splits receiver batches at delivery points, so within one call the
        # weight table is fixed and only the phase counter advances.
        table = self._table
        length = table.size
        count = self.count
        block = self.input.pop_block(n)
        if count + n <= length:
            weights = table[count : count + n]
        else:
            weights = table[(count + np.arange(n)) % length]
        self.output.push_block(block * weights)
        self.count = (count + n) % length


class Booster(Filter):
    """A switchable FIR gain stage; toggled by best-effort messages."""

    def __init__(self, taps: int = 8, name: Optional[str] = None) -> None:
        super().__init__(peek=taps, pop=1, push=1, name=name)
        self.boost = tuple(1.0 / taps for _ in range(taps))
        self.passthrough = tuple([1.0] + [0.0] * (taps - 1))
        self.active = self.passthrough
        self.switches = 0

    def set_enabled(self, enabled: bool) -> None:
        """Message handler: engage or bypass the boost filter."""
        self.active = self.boost if enabled else self.passthrough
        self.switches += 1

    def work(self) -> None:
        total = 0.0
        for i in range(len(self.active)):
            total += self.peek(i) * self.active[i]
        self.pop()
        self.push(total)


class ComplexMagnitude(Filter):
    """(re, im) -> |z| (nonlinear)."""

    def __init__(self, name: Optional[str] = None) -> None:
        super().__init__(pop=2, push=1, name=name)

    def work(self) -> None:
        re = self.pop()
        im = self.pop()
        self.push(math.sqrt(re * re + im * im))


class HopDetector(Filter):
    """Watches one FFT bin; on a *rising* energy crossing, teleports
    ``setf`` (hysteresis avoids re-sending while the bin stays hot).

    ``latency`` bounds the wavefront delay of the retune, mirroring the
    paper's ``TimeInterval(4N, 6N)``.
    """

    def __init__(
        self,
        portal: Portal,
        freq: float,
        threshold: float = HOP_THRESHOLD,
        latency: int = 6,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(pop=1, push=1, name=name)
        self.portal = portal
        self.freq = freq
        self.threshold = threshold
        self.latency = latency
        self.cooldown = 64
        self._quiet = 0

    def work(self) -> None:
        value = self.pop()
        if self._quiet > 0:
            self._quiet -= 1
        elif value >= self.threshold:
            self.portal.setf(self.freq, interval=TimeInterval(max_time=self.latency))
            self._quiet = self.cooldown
        self.push(value)


class CheckQuality(Filter):
    """Stateful signal-quality tracker; toggles the booster best-effort."""

    def __init__(self, portal: Portal, name: Optional[str] = None) -> None:
        super().__init__(pop=1, push=1, name=name)
        self.portal = portal
        self.ave_hi = 0.0
        self.ave_lo = 1.0
        self.boost_on = False

    def work(self) -> None:
        value = self.pop()
        self.ave_hi = max(0.9 * self.ave_hi, value)
        self.ave_lo = min(1.1 * self.ave_lo, value)
        spread = self.ave_hi - self.ave_lo
        if spread < 0.5 and not self.boost_on:
            self.portal.set_enabled(True)
            self.boost_on = True
        elif spread > 4.0 and self.boost_on:
            self.portal.set_enabled(False)
            self.boost_on = False
        self.push(value)


def check_freq_hop(portal: Portal, latency: int = 6) -> SplitJoin:
    """The paper's CheckFreqHop: detectors at four hop bins, identity
    elsewhere — weights ``(N/4-2, 1, 1, N/2, 1, 1, N/4-2)``."""
    weights = (N // 4 - 2, 1, 1, N // 2, 1, 1, N // 4 - 2)
    children: List[Filter] = [
        Identity(name="cfh_lo"),
        HopDetector(portal, HOP_FREQS[0], latency=latency, name="cfh_d0"),
        HopDetector(portal, HOP_FREQS[1], latency=latency, name="cfh_d1"),
        Identity(name="cfh_mid"),
        HopDetector(portal, HOP_FREQS[2], latency=latency, name="cfh_d2"),
        HopDetector(portal, HOP_FREQS[3], latency=latency, name="cfh_d3"),
        Identity(name="cfh_hi"),
    ]
    return SplitJoin(
        roundrobin(*weights), children, joiner_roundrobin(*weights), name="check_freq_hop"
    )


def build_teleport(input_length: int = 256, latency: int = 6) -> Pipeline:
    """The radio with teleport-messaging control (the paper's design)."""
    source, sink = source_and_sink(signal(max(input_length, N)))
    freq_hop = Portal(name="freqHop")
    rf2if = RFtoIF(START_FREQ, name="rf2if")
    freq_hop.register(rf2if)
    return Pipeline(
        source,
        rf2if,
        RealToComplex(name="re2c"),
        fft_kernel(N, prefix="radio"),
        ComplexMagnitude(name="mag"),
        check_freq_hop(freq_hop, latency=latency),
        sink,
        name="FreqHopRadio",
    )


def build(input_length: int = 256) -> Pipeline:
    """The full demo radio: hopping + booster quality control."""
    source, sink = source_and_sink(signal(max(input_length, N)))
    freq_hop = Portal(name="freqHop")
    on_off = Portal(name="boosterSwitch")
    rf2if = RFtoIF(START_FREQ, name="rf2if")
    booster = Booster(name="booster")
    freq_hop.register(rf2if)
    on_off.register(booster)
    return Pipeline(
        source,
        rf2if,
        booster,
        RealToComplex(name="re2c"),
        fft_kernel(N, prefix="radio"),
        ComplexMagnitude(name="mag"),
        check_freq_hop(freq_hop),
        CheckQuality(on_off, name="quality"),
        sink,
        name="TrunkedRadio",
    )


# ---------------------------------------------------------------------------
# Manual (control-in-stream) alternative
# ---------------------------------------------------------------------------


class ManualRFtoIF(Filter):
    """The mixer with in-band control: every block starts with a control
    token (0 = no change, else the new frequency)."""

    def __init__(self, freq: float, name: Optional[str] = None) -> None:
        super().__init__(pop=N + 1, push=N, name=name)
        self.weights = _weights_for(freq)
        self.count = 0
        self.freq = freq
        self.hops = 0

    def init(self) -> None:
        self.count = 0

    def work(self) -> None:
        # The joiner delivers the data block first, then the control token
        # (which retunes the mixer for the *next* block — one block of
        # control latency, like a teleport message with latency N).
        for _ in range(N):
            self.push(self.pop() * self.weights[self.count])
            self.count += 1
            if self.count == len(self.weights):
                self.count = 0
        control = self.pop()
        if control != 0.0:
            self.freq = control
            self.weights = _weights_for(control)
            self.count = 0
            self.hops += 1


class ManualHopCheck(Filter):
    """Scans all four hop bins per block; emits a control token on rising
    crossings (0 otherwise).  Even an idle control path costs one token of
    channel traffic and one loop synchronization per block — the overhead
    teleport messaging eliminates."""

    def __init__(self, threshold: float = HOP_THRESHOLD, name: Optional[str] = None) -> None:
        super().__init__(pop=N, push=N + 1, name=name)
        self.threshold = threshold
        lo = N // 4 - 2
        self.monitored = (lo, lo + 1, lo + 2 + N // 2, lo + 3 + N // 2)
        self.cooldown = 64
        self._quiet = [0] * 4

    def work(self) -> None:
        control = 0.0
        for k in range(4):
            if self._quiet[k] > 0:
                self._quiet[k] -= 1
            elif self.peek(self.monitored[k]) >= self.threshold:
                control = HOP_FREQS[k]
                self._quiet[k] = self.cooldown
        for _ in range(N):
            self.push(self.pop())
        self.push(control)


def build_manual(input_length: int = 256) -> Pipeline:
    """The radio with an explicit control feedback loop (the baseline the
    paper's 49% improvement is measured against)."""
    source, sink = source_and_sink(signal(max(input_length, N)))
    body = Pipeline(
        ManualRFtoIF(START_FREQ, name="rf2if_manual"),
        RealToComplex(name="re2c"),
        fft_kernel(N, prefix="radio"),
        ComplexMagnitude(name="mag"),
        ManualHopCheck(name="hopcheck"),
        name="radio_body",
    )
    loop = FeedbackLoop(
        joiner_roundrobin(N, 1),
        body,
        roundrobin(N, 1),
        Identity(name="control_return"),
        delay=1,
        init_path=lambda i: 0.0,
        name="control_loop",
    )
    return Pipeline(source, loop, sink, name="FreqHopRadioManual")
