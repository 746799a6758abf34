"""Hardware-ish channel counters for traced runs.

The history counters (``pushed_count``/``popped_count``) exist on every
channel kind already; tracing adds what those can't recover after the
fact:

* :class:`HwmArrayChannel` — an :class:`~repro.runtime.array_channel.
  ArrayChannel` that also tracks its occupancy **high-water mark**.  Only
  traced interpreters allocate it, so the untraced engine keeps the plain
  class (and its exact hot-path cost);
* :func:`channel_snapshot` — a serializable per-channel counter dict
  (pushed/popped/occupancy/high-water, ring stall statistics where the
  channel is a shared-memory ring).
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

from repro.runtime.array_channel import ArrayChannel


class HwmArrayChannel(ArrayChannel):
    """ArrayChannel that records its occupancy high-water mark."""

    __slots__ = ("high_water",)

    def __init__(self, name: str = "", initial=()) -> None:
        super().__init__(name=name, initial=initial)
        self.high_water = self.occupancy

    def push(self, item: float) -> None:
        super().push(item)
        if self.occupancy > self.high_water:
            self.high_water = self.occupancy

    def push_block(self, block: np.ndarray) -> None:
        super().push_block(block)
        if self.occupancy > self.high_water:
            self.high_water = self.occupancy

    def alloc_block(self, n: int) -> np.ndarray:
        view = super().alloc_block(n)
        if self.occupancy > self.high_water:
            self.high_water = self.occupancy
        return view


def channel_snapshot(channels: Dict[object, object]) -> Dict[str, Dict[str, Any]]:
    """Per-channel counter snapshot for the trace's metrics section."""
    from repro.runtime.ring import RingChannel

    out: Dict[str, Dict[str, Any]] = {}
    for chan in channels.values():
        try:
            row: Dict[str, Any] = {
                "pushed": int(chan.pushed_count),
                "popped": int(chan.popped_count),
                "occupancy": len(chan),
            }
            high_water = getattr(chan, "high_water", None)
            if high_water is not None:
                row["high_water"] = int(high_water)
            if isinstance(chan, RingChannel):
                row["kind"] = "ring"
                row.update(chan.stall_stats())
        except (TypeError, ValueError):
            # A ring detached by a failed/closed parallel session: its
            # shared-memory views are gone, so only note that it existed.
            row = {"kind": "ring", "detached": True}
        out[chan.name] = row
    return out
