"""Benchmark harness: regenerates every table and figure in the paper."""

from repro.bench.harness import (
    ThroughputSample,
    geometric_mean,
    measure_throughput,
    normalize_periods,
    render_bars,
    speedup_table,
    strategy_result,
)

__all__ = [
    "geometric_mean",
    "strategy_result",
    "speedup_table",
    "render_bars",
    "measure_throughput",
    "normalize_periods",
    "ThroughputSample",
]
