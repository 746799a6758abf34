"""The always-on **flight recorder**: a tiny ring of recent coarse events.

Streamscope tracing (PR 5) answers "what happened" only if you asked
*before* the run.  Long-running stream graphs fail later, not at startup,
so the flight recorder keeps the last :data:`~FlightRecorder.capacity`
coarse events — run boundaries, engine selection, structured downgrades,
parallel commands, ring stalls, watchdog suspicions, worker errors — in a
bounded process-wide ring that is always recording.  The cost of one event
is a dict build plus a deque append (well under a microsecond), and events
are recorded at *session/command* granularity, never per item or firing.
A ``run_steady()`` call records nothing: :meth:`MetricsRegistry.fold
<repro.obs.metrics.MetricsRegistry.fold>` settles run boundaries into the
ring whenever it is read or recorded into — one coalesced ``run_end`` per
session (``runs=N``), ``run_start`` only for a run still in flight.

The ring pays for itself at post-mortem time:

* parallel-engine failures splice :func:`format_flight_tail` into the
  :class:`~repro.errors.StreamItError` text, so the failing filter, the
  last command, and the last stall suspicion arrive in one message;
* the metrics publisher (:mod:`repro.obs.metrics`) embeds the ring in
  every published snapshot, so ``python -m repro.obs flight`` can show the
  final moments of a crashed process with no pre-arranged tracer.

The process-wide ring holds :data:`DEFAULT_CAPACITY` events.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Any, Callable, Dict, Iterable, List, Optional

DEFAULT_CAPACITY = 256


class FlightRecorder:
    """Bounded ring of coarse run-level events (always on, process-wide).

    Each event is a plain dict: ``{"ts": <time.time()>, "kind": <str>,
    ...fields}``.  Old events fall off the front; ``dropped`` counts them.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        self.capacity = max(1, int(capacity))
        self._events: deque = deque(maxlen=self.capacity)
        self.dropped = 0
        #: Called before the ring is read or recorded into, so run
        #: boundaries nobody recorded land in order (the registry's fold).
        self.settle: Callable[[], None] = lambda: None

    @property
    def events(self) -> deque:
        """The ring, oldest first, pending run boundaries settled."""
        self.settle()
        return self._events

    def record(self, kind: str, **fields: Any) -> None:
        """Append one event (cheap: call at session/command granularity only)."""
        self.settle()
        self.append(time.time(), kind, fields)

    def append(self, ts: float, kind: str, fields: Dict[str, Any]) -> None:
        """Append an event stamped ``ts`` as is (what ``settle`` itself calls)."""
        events = self._events
        if len(events) == self.capacity:
            self.dropped += 1
        events.append({"ts": ts, "kind": kind, **fields})

    def tail(self, n: int = 8, kinds: Optional[Iterable[str]] = None) -> List[Dict]:
        """The last ``n`` events (optionally only of the given kinds)."""
        events = list(self.events)
        if kinds is not None:
            wanted = frozenset(kinds)
            events = [e for e in events if e["kind"] in wanted]
        return events[-n:]

    def payload(self) -> Dict[str, Any]:
        """JSON-serializable view (embedded in published obs snapshots)."""
        return {
            "capacity": self.capacity,
            "dropped": self.dropped,
            "events": list(self.events),
        }

    def clear(self) -> None:
        self.events.clear()
        self.dropped = 0


def format_flight_event(event: Dict[str, Any]) -> str:
    """``[HH:MM:SS.mmm] kind key=value ...`` — one line per event."""
    ts = event.get("ts", 0.0)
    clock = time.strftime("%H:%M:%S", time.localtime(ts))
    millis = int((ts % 1.0) * 1000)
    fields = " ".join(
        f"{key}={value}"
        for key, value in event.items()
        if key not in ("ts", "kind")
    )
    return f"[{clock}.{millis:03d}] {event.get('kind', '?')}" + (
        f" {fields}" if fields else ""
    )


def format_flight_tail(
    events: Iterable[Dict[str, Any]], n: int = 8, header: bool = True
) -> str:
    """Render the last ``n`` events as an indented block for error text."""
    rows = list(events)[-n:]
    if not rows:
        return ""
    lines = []
    if header:
        lines.append(f"flight recorder (last {len(rows)} event(s)):")
    lines.extend(f"  {format_flight_event(e)}" for e in rows)
    return "\n".join(lines)


#: The process-wide recorder every engine records into.
FLIGHT = FlightRecorder()
