"""Quickstart: build a stream program, inspect it, optimize it, run it.

Run with:  python examples/quickstart.py
"""

import sys

import numpy as np

from repro.apps.common import FIRFilter, lowpass_taps
from repro.graph import ArraySource, CollectSink, Pipeline, validate
from repro.linear import apply_selection, try_extract
from repro.runtime import Interpreter
from repro.scheduling import build_schedule, verify_program


def main() -> int:
    # 1. Build a stream graph: source -> two cascaded FIR filters -> sink.
    #    Filters declare static peek/pop/push rates; work() is plain Python.
    data = list(np.sin(np.arange(64) / 3.0))
    sink = CollectSink()
    app = Pipeline(
        ArraySource(data),
        FIRFilter(lowpass_taps(32, 0.25), name="antialias"),
        FIRFilter(lowpass_taps(16, 0.4), name="smooth"),
        sink,
        name="Quickstart",
    )

    # 2. Static analysis: validation, scheduling, safety verification.
    graph = validate(app)
    program = build_schedule(graph)
    print(f"flattened to {len(graph.nodes)} nodes / {len(graph.edges)} channels")
    print(f"steady state fires {program.steady.total_firings} times per period")
    print(f"verification: {verify_program(app).detail}")

    # 3. Linear analysis: both FIRs are linear (y = A.x), so the optimizer
    #    can collapse them into a single node — or move them into the
    #    frequency domain if the window is long enough to pay off.
    for filt in app.filters():
        result = try_extract(filt)
        if result.linear:
            rep = result.rep
            print(f"  {filt.name}: linear, peek={rep.peek} pop={rep.pop} push={rep.push}")

    optimized, report = apply_selection(app)
    print("optimizer decisions:", report.replacements or ["(kept everything)"])

    # 4. Execute both versions and compare.  engine="batched" compiles the
    #    schedule into block kernels over numpy ring buffers — same outputs,
    #    orders of magnitude faster than firing work() per item.
    Interpreter(app, engine="batched").run(periods=100)
    baseline = np.array(sink.collected)

    opt_sink = next(f for f in optimized.filters() if isinstance(f, CollectSink))
    Interpreter(optimized, engine="batched").run(periods=100)
    out = np.array(opt_sink.collected)

    m = min(len(baseline), len(out))
    match = m > 0 and bool(np.allclose(baseline[:m], out[:m]))
    print(f"outputs match: {match} over {m} items")
    return 0 if match else 1  # a mismatch fails the script, not only a crash


if __name__ == "__main__":
    sys.exit(main())
