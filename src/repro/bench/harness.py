"""Shared infrastructure for the experiment benchmarks (E1-E9).

Each ``benchmarks/bench_e*.py`` regenerates one of the paper's tables or
figures.  The expensive inputs — the strategy evaluations over the
12-application suite — are computed once per process and cached here.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, Sequence

import numpy as np

from repro.apps import EVALUATION_SUITE
from repro.graph.builtins import CollectSink
from repro.mapping.strategies import STRATEGIES, StrategyResult
from repro.machine.raw import RawMachine
from repro.runtime.interpreter import Interpreter


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean (the evaluation's summary statistic)."""
    if not values:
        return 0.0
    return math.exp(sum(math.log(max(v, 1e-12)) for v in values) / len(values))


@lru_cache(maxsize=None)
def strategy_result(app_name: str, strategy: str) -> StrategyResult:
    """One (application, strategy) evaluation, cached per process."""
    builder = EVALUATION_SUITE[app_name]
    return STRATEGIES[strategy](builder(), RawMachine())


def speedup_table(strategies: Sequence[str]) -> Dict[str, Dict[str, float]]:
    """Per-application speedups over single-core, for the given strategies."""
    return {
        app: {s: strategy_result(app, s).speedup for s in strategies}
        for app in EVALUATION_SUITE
    }


def render_bars(
    table: Dict[str, Dict[str, float]],
    strategies: Sequence[str],
    title: str,
) -> str:
    """Text rendering in the style of the paper's bar charts."""
    width = max(len(a) for a in table) + 2
    lines = [title, ""]
    header = " " * width + "".join(f"{s:>14s}" for s in strategies)
    lines.append(header)
    for app, row in table.items():
        lines.append(
            f"{app:{width}s}" + "".join(f"{row[s]:14.2f}" for s in strategies)
        )
    lines.append("-" * len(header))
    geo = {s: geometric_mean([table[a][s] for a in table]) for s in strategies}
    lines.append(f"{'geomean':{width}s}" + "".join(f"{geo[s]:14.2f}" for s in strategies))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Wall-clock throughput of interpreted applications (linear study, teleport)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ThroughputSample:
    """Measured interpreter throughput for one program variant."""

    label: str
    items_per_second: float
    outputs: int
    seconds: float


def measure_throughput(
    builder: Callable[[], object],
    periods: int,
    label: str = "",
    warmup_periods: int = 2,
    engine: str = "scalar",
    **engine_opts,
) -> ThroughputSample:
    """Wall-clock items/second of a closed stream over ``periods`` periods.

    Extra ``engine_opts`` (``strategy=...``, ``cores=...``) pass through to
    the :class:`Interpreter`; the warmup also absorbs one-time engine setup
    (plan compilation, parallel worker forking).
    """
    app = builder()
    sink = next(f for f in app.filters() if isinstance(f, CollectSink))
    interp = Interpreter(app, check=False, engine=engine, **engine_opts)
    try:
        interp.run(periods=warmup_periods)
        produced_before = len(sink.collected)
        # Let the engine finish post-warmup housekeeping (forked workers
        # collect between commands) before the window opens — otherwise
        # the first milliseconds of the timed run measure the scheduler
        # untangling the warmup, not the engine.  A sleep cannot flatter a
        # single-process engine, so batched/scalar numbers are unaffected.
        time.sleep(0.1)
        start = time.perf_counter()
        interp.run_steady(periods)
        elapsed = time.perf_counter() - start
    finally:
        interp.close()
    outputs = len(sink.collected) - produced_before
    return ThroughputSample(
        label=label,
        items_per_second=outputs / elapsed if elapsed > 0 else float("inf"),
        outputs=outputs,
        seconds=elapsed,
    )


def normalize_periods(base_builder: Callable, opt_builder: Callable, base_periods: int) -> int:
    """Periods for the optimized variant producing comparable output volume.

    Optimization changes the steady-state granularity (a frequency filter's
    period covers many base periods), so wall-clock comparisons match the
    *output item count*, not the period count.
    """
    def outputs_per_period(builder: Callable) -> int:
        app = builder()
        sink = next(f for f in app.filters() if isinstance(f, CollectSink))
        interp = Interpreter(app, check=False)
        interp.run(periods=1)
        produced = len(sink.collected)
        interp.run_steady(1)
        return max(len(sink.collected) - produced, 1)

    base_rate = outputs_per_period(base_builder)
    opt_rate = outputs_per_period(opt_builder)
    return max(1, round(base_periods * base_rate / opt_rate))
