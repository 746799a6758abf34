"""E8 — teleport messaging vs. manual control (the conclusion's 49%).

The paper reports a 49% performance improvement for the frequency-hopping
radio when the manual control path (control tokens merged into the data
stream through a feedback loop) is replaced by teleport messaging — the
feedback loop serializes the radio across the parallel machine, while the
teleport version exposes the true dependences and pipelines freely.

We reproduce that comparison on the simulated 16-core machine (mapping
both radios with the software-pipelining strategy) and also report
single-threaded interpreter throughput, where the loop's *structural*
penalty disappears and only the per-block control-token overhead remains
(see EXPERIMENTS.md).
"""

import numpy as np

from repro.apps import freqhop
from repro.bench import measure_throughput
from repro.machine.raw import RawMachine
from repro.mapping.strategies import software_pipeline


def _simulated():
    machine = RawMachine()
    teleport = software_pipeline(freqhop.build_teleport(), machine)
    manual = software_pipeline(freqhop.build_manual(), machine)
    return teleport, manual


def test_e8_teleport_vs_manual_parallel(benchmark, report):
    teleport, manual = benchmark.pedantic(_simulated, rounds=1, iterations=1)
    gain = (
        manual.sim.cycles_per_period / teleport.sim.cycles_per_period
    ) * (teleport.baseline.cycles_per_period / manual.baseline.cycles_per_period) - 1.0
    report(
        "== E8: frequency-hopping radio on the 16-core machine ==\n"
        f"teleport control: {teleport.speedup:6.2f}x over single core\n"
        f"manual (loop)   : {manual.speedup:6.2f}x over single core\n"
        f"teleport improvement over manual: {100 * (teleport.speedup / manual.speedup - 1):.0f}%"
        "  (paper reports 49% on a cluster)"
    )
    # The feedback loop's recurrence serializes the manual radio; teleport
    # messaging restores pipeline parallelism.
    assert teleport.speedup > 1.3 * manual.speedup


def test_e8_interpreter_throughput(benchmark, report):
    """Single-threaded wall clock: the manual token overhead alone is small
    (the paper's win is about parallel structure, not single-core cost)."""

    def compare():
        teleport = measure_throughput(freqhop.build_teleport, 200, warmup_periods=40)
        manual = measure_throughput(freqhop.build_manual, 200, warmup_periods=40)
        # Both radios run batched: the manual loop through segmented
        # superbatching, the teleport radio in passes of as many periods
        # as its stated latency allows, with receiver batches split at the
        # SDEP-derived delivery points.
        teleport_batched = measure_throughput(
            freqhop.build_teleport, 200, warmup_periods=40, engine="batched"
        )
        manual_batched = measure_throughput(
            freqhop.build_manual, 200, warmup_periods=40, engine="batched"
        )
        return teleport, manual, teleport_batched, manual_batched

    teleport, manual, teleport_batched, manual_batched = benchmark.pedantic(
        compare, rounds=1, iterations=1
    )
    from repro.runtime import Interpreter

    probe = Interpreter(freqhop.build_teleport(), check=False, engine="batched")
    probe.run(2)
    chunk = probe.engine_report()["messaging"]["chunk_periods"]
    ratio = teleport.items_per_second / manual.items_per_second
    batched_ratio = teleport_batched.items_per_second / manual_batched.items_per_second
    report(
        "== E8b: single-threaded interpreter throughput ==\n"
        f"teleport:           {teleport.items_per_second:10.0f} items/s\n"
        f"manual:             {manual.items_per_second:10.0f} items/s\n"
        f"teleport (batched): {teleport_batched.items_per_second:10.0f} items/s"
        f"  ({chunk} periods per pass)\n"
        f"manual (batched):   {manual_batched.items_per_second:10.0f} items/s\n"
        f"ratio: {ratio:.2f} scalar (structural loop penalty absent on one "
        f"thread), {batched_ratio:.2f} batched (the teleport radio spends its "
        f"stated latency on batching; the loop cannot)"
    )
    # On one thread the two are comparable; teleport must not be pathologically
    # slower (its messaging machinery is off the steady-state fast path).
    assert ratio > 0.7


def test_e8_same_radio_semantics(benchmark):
    """Both control paths implement the same radio: the data outputs agree
    until the first retune, and both retune on the same stimulus."""
    from repro.graph.builtins import CollectSink
    from repro.runtime import Interpreter

    def run_both():
        apps = {}
        for label, build in (
            ("teleport", freqhop.build_teleport),
            ("manual", freqhop.build_manual),
        ):
            app = build()
            sink = next(f for f in app.filters() if isinstance(f, CollectSink))
            Interpreter(app).run(periods=16)
            mixer = next(f for f in app.filters() if "rf2if" in f.name)
            apps[label] = (np.array(sink.collected), mixer.hops)
        return apps

    apps = benchmark.pedantic(run_both, rounds=1, iterations=1)
    tele_out, tele_hops = apps["teleport"]
    man_out, man_hops = apps["manual"]
    m = min(len(tele_out), len(man_out))
    assert m >= freqhop.N
    # Identical spectra for at least the first FFT block (before any hop
    # can take effect in either variant).
    assert np.allclose(tele_out[: freqhop.N], man_out[: freqhop.N])
