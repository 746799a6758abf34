"""One-period calls, compiled against scalar, and each lifted filter's
kernel against its per-firing loop by batch size.

    PYTHONPATH=src python benchmarks/probe_one_period.py [--calls N] [--reps R]
                                                         [--app NAME ...] [--json]
    PYTHONPATH=src python benchmarks/probe_one_period.py --check

For every app of ``repro.apps.ALL_APPS`` the probe prints the median wall
time of one ``run_steady(1)`` call on the compiled engine and on the scalar
engine, both after two warm periods, the calls of the two sessions
interleaved.  Then, for one instance of every filter class the plan lifts,
it prints the median time of ``vectorize.run_lifted`` (the kernel) and of
``vectorize.run_loop`` (the hoisted loop) at n = 1, 2, 4, ..., 64 firings,
fed the items the app itself sends that filter.

``--check`` times nothing.  It asserts, bit for bit, that a compiled
session calling ``run_steady`` with 1, 64, 1 and 7, 8, 9 periods pushes
what a scalar ``run`` of as many periods pushes, and that kernel and loop
push the same items at every n.  It exits non-zero on the first mismatch.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
import warnings

import numpy as np

from repro.apps import ALL_APPS
from repro.graph.builtins import CollectSink
from repro.runtime import Interpreter
from repro.runtime import vectorize
from repro.runtime.array_channel import ArrayChannel

#: Firing counts the kernel and the loop are compared at.
SIZES = (1, 2, 4, 8, 16, 32, 64)
#: ``run_steady`` periods of the ``--check`` session: across the crossover
#: and back.
CHECK_CALLS = (1, 64, 1, 7, 8, 9, 1)


def _session(build, engine):
    app = build()
    sink = next(f for f in app.filters() if isinstance(f, CollectSink))
    return Interpreter(app, check=False, engine=engine), sink


def _items(sink) -> bytes:
    return np.asarray(sink.collected, dtype=np.float64).tobytes()


def one_period(build, calls: int):
    """Median microseconds of one ``run_steady(1)``: (compiled, scalar)."""
    sessions = [_session(build, "codegen")[0], _session(build, "scalar")[0]]
    times = [[], []]
    for interp in sessions:
        interp.run(2)
    for _ in range(calls):
        for interp, samples in zip(sessions, times):
            t0 = time.perf_counter()
            interp.run_steady(1)
            samples.append(time.perf_counter() - t0)
    for interp in sessions:
        interp.close()
    return tuple(statistics.median(s) * 1e6 for s in times)


def check_app(build) -> None:
    """A compiled session across the crossover pushes what scalar pushes."""
    compiled, out = _session(build, "codegen")
    compiled.run(0)
    for periods in CHECK_CALLS:
        compiled.run_steady(periods)
    compiled.close()
    scalar, want = _session(build, "scalar")
    scalar.run(sum(CHECK_CALLS))
    if _items(out) != _items(want):
        raise AssertionError("compiled output differs from scalar")


def lifted_inputs(build):
    """``{class name: (filter, items)}``: one lifted instance per class with
    the items one 64-period call feeds it (enough for 64 firings)."""
    interp, _ = _session(build, "codegen")
    interp.run(2)
    seen = {}
    real = vectorize.run_lifted

    def capture(filt, lifted, n):
        rate = filt.rate
        items = filt.input.peek_block((n - 1) * rate.pop + rate.peek).copy()
        best = seen.get(type(filt).__name__)
        if best is None or (best[0] is filt and len(best[1]) < len(items)):
            seen[type(filt).__name__] = (filt, items)
        return real(filt, lifted, n)

    vectorize.run_lifted = capture
    try:
        interp.run_steady(64)
    finally:
        vectorize.run_lifted = real
    interp.close()
    return seen


def _fire(filt, items, form, n):
    """Run ``n`` firings of ``filt`` over ``items`` by ``form``; returns the
    seconds the call took and the items it pushed."""
    inp, out = filt.input, filt.output
    filt.input = ArrayChannel(initial=items)
    filt.output = ArrayChannel()
    try:
        t0 = time.perf_counter()
        if form == "kernel":
            vectorize.run_lifted(filt, vectorize.lift_work(type(filt)), n)
        else:
            vectorize.run_loop(filt, n)
        dt = time.perf_counter() - t0
        pushed = filt.output.peek_block(len(filt.output)).tobytes()
    finally:
        filt.input, filt.output = inp, out
    return dt, pushed


def kernel_vs_loop(filt, items, reps: int, check: bool):
    """``{n: (kernel_us, loop_us)}`` over :data:`SIZES` (medians of
    ``reps`` calls; one call each, untimed, under ``check``)."""
    rate = filt.rate
    rows = {}
    for n in SIZES:
        window = items[: (n - 1) * rate.pop + rate.peek]
        kernel, loop = [], []
        for _ in range(1 if check else reps):
            dt_k, out_k = _fire(filt, window, "kernel", n)
            dt_l, out_l = _fire(filt, window, "loop", n)
            if out_k != out_l:
                raise AssertionError(f"{type(filt).__name__}: kernel != loop at n={n}")
            kernel.append(dt_k)
            loop.append(dt_l)
        rows[n] = (statistics.median(kernel) * 1e6, statistics.median(loop) * 1e6)
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--calls", type=int, default=15, help="one-period calls per app")
    parser.add_argument("--reps", type=int, default=41, help="calls per kernel/loop cell")
    parser.add_argument("--app", action="append", help="only this app (repeatable)")
    parser.add_argument("--json", action="store_true", help="print one JSON object")
    parser.add_argument("--check", action="store_true", help="bit-exactness only, no timing")
    args = parser.parse_args(argv)
    warnings.simplefilter("ignore")
    apps = {name: ALL_APPS[name] for name in (args.app or ALL_APPS)}

    result = {"crossover": getattr(vectorize, "LIFT_MIN_FIRINGS", None), "apps": {}, "lifted": {}}
    for name, build in apps.items():
        if args.check:
            check_app(build)
            print(f"{name}: compiled == scalar over run_steady{CHECK_CALLS}")
        else:
            compiled, scalar = one_period(build, args.calls)
            result["apps"][name] = {"compiled_us": compiled, "scalar_us": scalar}
        for cls, (filt, items) in lifted_inputs(build).items():
            if cls not in result["lifted"]:
                result["lifted"][cls] = kernel_vs_loop(filt, items, args.reps, args.check)
                if args.check:
                    print(f"{name}.{cls}: kernel == loop at n = {SIZES}")
    if args.check:
        return 0

    if args.json:
        print(json.dumps(result))
        return 0
    print(f"LIFT_MIN_FIRINGS = {result['crossover']}")
    print(f"\n{'app':<16}{'compiled us':>13}{'scalar us':>12}{'ratio':>8}")
    for name, row in result["apps"].items():
        c, s = row["compiled_us"], row["scalar_us"]
        print(f"{name:<16}{c:>13.1f}{s:>12.1f}{c / s:>8.2f}")
    print("\nkernel / loop, us per call, by firings")
    print(f"{'class':<18}" + "".join(f"{n:>13}" for n in SIZES))
    for cls, rows in result["lifted"].items():
        cells = "".join(f"{f'{k:.0f}/{l:.0f}':>13}" for k, l in rows.values())
        print(f"{cls:<18}{cells}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
