"""``repro.obs`` — *streamscope*: tracing, metrics, profile attribution.

A low-overhead observability layer threaded through all three execution
engines (see DESIGN.md, "Observability"):

* :class:`Tracer` protocol with the zero-cost :data:`NULL_TRACER` and the
  in-memory :class:`MemoryTracer` ring recorder;
* span events for scalar filter firings, batched block kernels and fused
  chains (with plan-cache hit/miss counters), and per-worker timelines in
  the parallel engine;
* hardware-ish counters: per-channel push/pop history, ArrayChannel
  occupancy high-water marks, SPSC ring stall/backpressure statistics,
  and teleport send→delivery records checked against the SDEP wavefront;
* exporters: Chrome trace-event JSON (Perfetto-loadable, one track per
  worker) via :meth:`MemoryTracer.write`, and the flat
  :meth:`MemoryTracer.metrics` dict the bench harness consumes;
* the always-on layer: the process-wide :data:`METRICS` registry
  (counters/gauges/log2 histograms with JSON + Prometheus export), the
  :data:`FLIGHT` recorder (a bounded ring of coarse run events dumped
  into error text and post-mortems), and the parallel engine's stall
  watchdog (:mod:`repro.obs.watchdog`);
* a CLI: ``python -m repro.obs report <trace.json>`` renders the
  per-filter attribution table, ``... validate`` schema-checks a trace,
  ``... monitor`` is a live top-style view over a running session's
  published metrics, ``... flight`` dumps the flight recorder.

Enable tracing with ``Interpreter(app, trace=True)`` (inspect
``interp.tracer``), ``trace=<path>`` (a trace file is written on
``close()``), or ``trace=<your MemoryTracer>``.  Metrics and the flight
recorder are on by default (``REPRO_METRICS=0`` disables).
"""

from repro.obs.chrome import (
    TraceFormatError,
    load_trace,
    trace_summary,
    validate_trace,
)
from repro.obs.counters import HwmArrayChannel, channel_snapshot
from repro.obs.metrics import (
    METRICS,
    MetricsRegistry,
    obs_dir,
    parse_prometheus,
    prometheus_text,
)
from repro.obs.recorder import FLIGHT, FlightRecorder, format_flight_tail
from repro.obs.report import aggregate_filters, render_report
from repro.obs.tracer import (
    CAT_CORE,
    CAT_ENGINE,
    CAT_FILTER,
    CAT_FUSED,
    CAT_KERNEL,
    CAT_META,
    CAT_PLAN,
    CAT_REGION,
    CAT_TELEPORT,
    CAT_WORKER,
    NULL_TRACER,
    MemoryTracer,
    NullTracer,
    Tracer,
)

__all__ = [
    "CAT_CORE",
    "CAT_ENGINE",
    "CAT_FILTER",
    "CAT_FUSED",
    "CAT_KERNEL",
    "CAT_META",
    "CAT_PLAN",
    "CAT_REGION",
    "CAT_TELEPORT",
    "CAT_WORKER",
    "FLIGHT",
    "FlightRecorder",
    "HwmArrayChannel",
    "METRICS",
    "MemoryTracer",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "TraceFormatError",
    "Tracer",
    "aggregate_filters",
    "channel_snapshot",
    "format_flight_tail",
    "load_trace",
    "obs_dir",
    "parse_prometheus",
    "prometheus_text",
    "render_report",
    "trace_summary",
    "validate_trace",
]
