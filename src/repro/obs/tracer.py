"""The ``streamscope`` tracer core: protocol, null tracer, ring recorder.

Every execution engine threads a :class:`Tracer` through its hot loops.
The contract keeping the disabled path free (the cost ledger reads the
traced / untraced ratio as ``obs.trace_overhead_ratio``):

* a plan reads ``tracer.enabled`` **when it builds its block list**, and
  only then: a traced plan calls each block through one timing wrapper
  (:func:`repro.runtime.plan.timed`), an untraced one calls the bare
  blocks and reads no clock (the scalar oracle and the parallel workers
  check once per phase, never per item);
* the default tracer is the process-wide :data:`NULL_TRACER` singleton —
  ``enabled`` is ``False`` and every method is a no-op, so even code that
  forgets the check only pays an attribute load and a no-op call.

:class:`MemoryTracer` is the in-memory ring recorder: a bounded deque of
Chrome-trace-shaped event dicts plus a side ``meta`` dict for run-level
facts (engine report, channel counters, ring stall statistics, teleport
delivery records).  Export through :meth:`MemoryTracer.chrome` /
:meth:`MemoryTracer.write` (Perfetto-loadable JSON, one track per
core/worker) or :meth:`MemoryTracer.metrics` (the flat dict the bench
harness consumes).

Timestamps are ``time.perf_counter()`` seconds.  On Linux that clock is
``CLOCK_MONOTONIC``, which is system-wide — events recorded in forked
parallel workers land on the same timeline as the parent's.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Any, Dict, Iterable, List, Optional

#: Chrome trace-event categories used by the engines.
CAT_ENGINE = "engine"        # run_init / run_steady envelopes
CAT_FILTER = "filter"        # scalar-engine per-phase firings
CAT_KERNEL = "batch_kernel"  # batched-engine block-kernel executions
CAT_FUSED = "fused_chain"    # batched-engine fused-chain composites
CAT_REGION = "region"        # batched-engine lowered splitjoin regions
CAT_CORE = "core_loop"       # CoreLoopRunner chunks (cyclic cores)
CAT_WORKER = "worker"        # parallel-engine per-worker firings
CAT_CODEGEN = "codegen"      # codegen-engine generated-module chunks
CAT_TELEPORT = "teleport"    # message send/delivery instants
CAT_PLAN = "plan"            # plan compilation, cache hits/misses
CAT_META = "meta"            # run-level annotations (errors, reports)

#: Span categories whose durations count as filter self-time in reports.
SELF_TIME_CATS = frozenset(
    {CAT_FILTER, CAT_KERNEL, CAT_FUSED, CAT_REGION, CAT_CORE, CAT_WORKER, CAT_CODEGEN}
)


class Tracer:
    """The tracing protocol every engine accepts.

    Timestamps (``ts``) and durations (``dur``) are in seconds from
    :func:`time.perf_counter`; ``tid`` selects the track (worker id in the
    parallel engine, 0 elsewhere).
    """

    #: Fixed per tracer class; plans read it once, when they build their
    #: block list.  False means every recording method is a no-op.
    enabled: bool = False

    def complete(
        self,
        name: str,
        cat: str,
        ts: float,
        dur: float,
        tid: int = 0,
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Record a span (Chrome ``ph="X"``)."""

    def instant(
        self,
        name: str,
        cat: str,
        tid: int = 0,
        args: Optional[Dict[str, Any]] = None,
        ts: Optional[float] = None,
    ) -> None:
        """Record a point event (Chrome ``ph="i"``)."""

    def counter(
        self,
        name: str,
        values: Dict[str, float],
        tid: int = 0,
        ts: Optional[float] = None,
    ) -> None:
        """Record a counter sample (Chrome ``ph="C"``)."""

    def name_track(self, tid: int, name: str) -> None:
        """Label a track (Chrome thread_name metadata)."""


class NullTracer(Tracer):
    """The zero-cost disabled tracer (a falsy singleton)."""

    __slots__ = ()
    enabled = False

    def __bool__(self) -> bool:
        return False


#: The process-wide disabled tracer; engines default to this.
NULL_TRACER = NullTracer()


class MemoryTracer(Tracer):
    """In-memory ring recorder of trace events.

    Events are stored as Chrome-trace-shaped dicts in a bounded deque —
    when ``capacity`` is exceeded the oldest events fall off (and
    ``dropped`` counts them), so a long traced run degrades to a sliding
    window instead of unbounded memory.

    ``capacity`` defaults to :attr:`DEFAULT_CAPACITY` spans — at ~200
    bytes/span the default ring tops out near 200 MB; a long soak run
    passes a smaller one.
    """

    enabled = True

    DEFAULT_CAPACITY = 1_000_000

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        self.capacity = max(1, int(capacity))
        self.events: deque = deque(maxlen=self.capacity)
        self.dropped = 0
        #: Run-level facts keyed by section name; see the engines and
        #: :meth:`metrics` for the populated keys ("engine_report",
        #: "channels", "rings", "teleports", "plan_cache", ...).
        self.meta: Dict[str, Any] = {}
        self.track_names: Dict[int, str] = {}

    # -- recording ----------------------------------------------------------

    def _append(self, event: Dict[str, Any]) -> None:
        if len(self.events) == self.capacity:
            self.dropped += 1
        self.events.append(event)

    def complete(self, name, cat, ts, dur, tid=0, args=None) -> None:
        event = {"name": name, "cat": cat, "ph": "X", "ts": ts, "dur": dur, "tid": tid}
        if args:
            event["args"] = args
        self._append(event)

    def instant(self, name, cat, tid=0, args=None, ts=None) -> None:
        event = {
            "name": name,
            "cat": cat,
            "ph": "i",
            "ts": time.perf_counter() if ts is None else ts,
            "tid": tid,
            "s": "t",
        }
        if args:
            event["args"] = args
        self._append(event)

    def counter(self, name, values, tid=0, ts=None) -> None:
        self._append(
            {
                "name": name,
                "cat": "counter",
                "ph": "C",
                "ts": time.perf_counter() if ts is None else ts,
                "tid": tid,
                "args": dict(values),
            }
        )

    def name_track(self, tid: int, name: str) -> None:
        self.track_names[tid] = name

    def ingest(self, events: Iterable[Dict[str, Any]]) -> None:
        """Merge events recorded elsewhere (parallel workers ship their
        locally-buffered spans here after each command)."""
        for event in events:
            self._append(event)

    # -- export --------------------------------------------------------------

    def chrome(self) -> Dict[str, Any]:
        """The trace as a Chrome trace-event JSON object (Perfetto-ready).

        Timestamps are rebased to the earliest event and converted to the
        format's microseconds.  Run-level metadata rides along under the
        ``"repro"`` top-level key (ignored by viewers, used by
        ``python -m repro.obs report``).
        """
        events = list(self.events)
        base = min((e["ts"] for e in events), default=0.0)
        out: List[Dict[str, Any]] = []
        for tid in sorted(self.track_names):
            out.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": 1,
                    "tid": tid,
                    "args": {"name": self.track_names[tid]},
                }
            )
        for event in events:
            converted = dict(event)
            converted["pid"] = 1
            converted["ts"] = (event["ts"] - base) * 1e6
            if "dur" in converted:
                converted["dur"] = event["dur"] * 1e6
            out.append(converted)
        return {
            "traceEvents": out,
            "displayTimeUnit": "ms",
            "repro": {
                "dropped_events": self.dropped,
                "meta": self.meta,
            },
        }

    def write(self, path) -> None:
        """Write the Chrome trace JSON to ``path``."""
        import json

        with open(path, "w") as fh:
            json.dump(self.chrome(), fh, indent=1)
            fh.write("\n")

    def metrics(self) -> Dict[str, Any]:
        """Flat aggregated metrics (the bench-harness view of the trace).

        Returns::

            {
              "filters": {name: {"self_time": s, "spans": n,
                                 "firings": n, "items": n}},
              "workers": {tid: busy_seconds},
              "rings": {...}, "channels": {...}, "teleports": [...],
              "plan_cache": {...}, "engine_report": {...},
              "dropped_events": n,
            }
        """
        filters: Dict[str, Dict[str, float]] = {}
        workers: Dict[int, float] = {}
        for event in self.events:
            if event.get("ph") != "X" or event.get("cat") not in SELF_TIME_CATS:
                continue
            row = filters.setdefault(
                event["name"], {"self_time": 0.0, "spans": 0, "firings": 0, "items": 0}
            )
            row["self_time"] += event["dur"]
            row["spans"] += 1
            args = event.get("args") or {}
            row["firings"] += args.get("firings", 0)
            row["items"] += args.get("items", 0)
            tid = event.get("tid", 0)
            workers[tid] = workers.get(tid, 0.0) + event["dur"]
        out: Dict[str, Any] = {
            "filters": filters,
            "workers": workers,
            "dropped_events": self.dropped,
        }
        out.update(self.meta)
        return out
