"""Building seeded apps, the engine-independent oracle, and op accounting."""

from __future__ import annotations

import sys
import time
import warnings
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.errors import EngineDowngradeWarning
from repro.graph.builtins import ArraySource, CollectSink
from repro.runtime import Interpreter

from workloads import CHECK_PERIODS, DEFAULT_ENGINE, ENGINE_RANK, EXPECTED_ENGINE

# Downgrades are reported through engine_used (and fail the op when below
# the pinned expectation); the warning text itself is noise in a bench log.
warnings.simplefilter("ignore", EngineDowngradeWarning)

REFERENCE_RTOL = 1e-6
REFERENCE_ATOL = 1e-8


def sink_of(app) -> CollectSink:
    return next(f for f in app.filters() if isinstance(f, CollectSink))


def source_data(app) -> np.ndarray:
    source = next(f for f in app.filters() if isinstance(f, ArraySource))
    return np.asarray(source.data, dtype=np.float64)


def seed_app(app, seed: int) -> None:
    """Seed 0 keeps the builder's pinned data; any other seed permutes every
    ``ArraySource.data`` in place (domain-preserving: bit streams stay
    bits).  The program only ever sees the resulting input."""
    if seed == 0:
        return
    rng = np.random.default_rng(seed)
    for filt in app.filters():
        if isinstance(filt, ArraySource):
            order = rng.permutation(len(filt.data))
            filt.data[:] = [filt.data[i] for i in order]


def make_app(builder: Callable, seed: int):
    app = builder()
    seed_app(app, seed)
    return app


@dataclass
class Ops:
    """Attempted/failed operations (windows, calls, jobs, output checks)."""

    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok

    def merge(self, attempted: int, failed: int, failures: List[str]) -> None:
        self.attempted += attempted
        self.failed += failed
        self.failures.extend(failures[: 20 - len(self.failures)])


@dataclass
class Oracle:
    """What the scalar engine (and the app's numpy reference) say the first
    ``periods`` periods of one seeded app produce."""

    name: str
    periods: int
    output: np.ndarray
    init_items: int
    items_per_period: int
    reference: Optional[np.ndarray]
    scalar_items_per_s: float
    data: np.ndarray


def make_oracle(name: str, builder: Callable, seed: int) -> Oracle:
    periods = CHECK_PERIODS[name]
    app = make_app(builder, seed)
    data = source_data(app)
    sink = sink_of(app)
    interp = Interpreter(app, check=False, engine="scalar")
    interp.run_init()
    init_items = len(sink.collected)
    start = time.perf_counter()
    interp.run_steady(periods)
    elapsed = time.perf_counter() - start
    interp.close()
    output = np.asarray(sink.collected, dtype=np.float64)
    steady_items = len(output) - init_items
    module = sys.modules[builder.__module__]
    reference = None
    if hasattr(module, "reference"):
        tiles = max(2, int(np.ceil((len(output) * 4 + 64) / len(data))))
        reference = np.asarray(module.reference(np.tile(data, tiles)), dtype=np.float64)
    return Oracle(
        name=name,
        periods=periods,
        output=output,
        init_items=init_items,
        items_per_period=steady_items // periods,
        reference=reference,
        scalar_items_per_s=steady_items / elapsed,
        data=data,
    )


def check_output(ops: Ops, oracle: Oracle, got, what: str) -> None:
    """Two ops: ``got`` equals the scalar engine bit for bit over the prefix
    both cover, and (where the app has one) its numpy reference within the
    tolerance ``tests/test_apps.py`` uses."""
    got = np.asarray(got, dtype=np.float64)
    n = min(len(got), len(oracle.output))
    ops.record(
        n > 0 and np.array_equal(got[:n], oracle.output[:n]),
        f"{what}: differs from the scalar engine",
    )
    if oracle.reference is not None:
        m = min(len(got), len(oracle.reference))
        ops.record(
            m > 0
            and np.allclose(
                got[:m], oracle.reference[:m], rtol=REFERENCE_RTOL, atol=REFERENCE_ATOL
            ),
            f"{what}: differs from reference()",
        )


def engine_ok(name: str, engine_used: str) -> bool:
    expected = EXPECTED_ENGINE.get(name, DEFAULT_ENGINE)
    return ENGINE_RANK[engine_used] >= ENGINE_RANK[expected]


def drain(sink: CollectSink) -> int:
    """Items collected since the last drain; empties the sink (an undrained
    0.5 s window drove RSS to 867 MB)."""
    n = len(sink.collected)
    sink.collected.clear()
    return n


def clear_compile_caches() -> None:
    """Empty the plan cache and both codegen cache levels (the disk level
    lives in this run's private ``REPRO_CODEGEN_CACHE``)."""
    from repro.runtime.codegen import clear_codegen_cache
    from repro.runtime.plan import clear_plan_cache

    clear_plan_cache()
    clear_codegen_cache(disk=True)


def run_job(
    name: str, builder: Callable, seed: int, transform=None, probe_calls: int = 0
) -> Dict[str, object]:
    """One job: ``build()`` (through ``transform``, if any) to ``close()``
    after two periods under ``Interpreter(check=True, engine="codegen")``
    (``run_init()`` + two ``run_steady(1)``).  ``probe_calls`` more
    one-period calls run before ``close()`` and outside ``job_s``: the
    call-latency sample of a workload that has no warm session."""
    from workloads import JOB_PERIODS

    clock = time.perf_counter
    start = clock()
    app = make_app(builder, seed)
    if transform is not None:
        app = transform(app)
    sink = sink_of(app)
    interp = Interpreter(app, check=True, engine="codegen")
    interp.run_init()
    for _ in range(JOB_PERIODS):
        interp.run_steady(1)
    ran = clock()
    output = list(sink.collected)
    probes = []
    for _ in range(probe_calls):
        call = clock()
        interp.run_steady(1)
        probes.append(clock() - call)
    closing = clock()
    interp.close()
    return {
        "app": name,
        "job_s": (ran - start) + (clock() - closing),
        "probe_calls_s": probes,
        "items": len(output),
        "output": output,
        "engine_used": interp.engine_used,
    }
