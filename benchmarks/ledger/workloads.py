"""The cost ledger's contract: workloads, metrics, bounds, pinned sizes.

Everything a later issue may refer to by name lives here.  Period counts
are pinned (sized on the 2-CPU reference host so one codegen window is
about 0.05 s, or 0.035 s per arm on ``linear-opt``) and never calibrated
at run time: a faster program gets a shorter window, not more periods.
"""

from __future__ import annotations

#: Engines by strength; an op fails when ``engine_used`` ranks below the
#: app's pinned expectation (a silent downgrade is a failure, not a speed).
ENGINE_RANK = {"scalar": 0, "batched": 1, "parallel": 1, "codegen": 2}

#: Every app runs whole-program codegen except the teleport radio, whose
#: per-delivery firing boundaries keep it on the batched engine (SL305).
EXPECTED_ENGINE = {"FreqHopRadio": "batched"}
DEFAULT_ENGINE = "codegen"

#: Steady periods per timed window under codegen (about 0.05 s each).
WINDOW_PERIODS = {
    "BitonicSort": 35_000,
    "ChannelVocoder": 45_000,
    "DCT": 1_800,
    "DES": 1_200,
    "DToA": 50_000,
    "FFT": 4_800,
    "FIR": 500_000,
    "FMRadio": 140_000,
    "FilterBank": 22_000,
    "FreqHopRadio": 200,
    "Radar": 30_000,
    "Serpent": 1_500,
}

#: ``linear-opt``: baseline periods per window (about 0.035 s).  The
#: optimised arm is pinned in sink items per window (about 0.035 s too) and
#: converted to periods through the optimised graph's own static rates: a
#: FrequencyFilter period covers many base periods, and how many is the
#: optimiser's choice.
LINEAR_BASE_PERIODS = {
    "FIR": 350_000,
    "RateConvert": 88_000,
    "TargetDetect": 130_000,
    "FMRadio": 98_000,
    "FilterBank": 15_000,
    "Vocoder": 15_000,
    "Oversampler": 21_000,
    "DToA": 35_000,
}
LINEAR_OPT_ITEMS = {
    "FIR": 490_000,
    "RateConvert": 420_000,
    "TargetDetect": 700_000,
    "FMRadio": 460_000,
    "FilterBank": 700_000,
    "Vocoder": 10_000,
    "Oversampler": 700_000,
    "DToA": 3_500,
}

#: Periods compared against the scalar oracle and the app's ``reference()``
#: (the counts ``tests/test_apps.py`` uses; the scalar engine is ~100x
#: slower than the engines under test, so the oracle covers a prefix).
CHECK_PERIODS = {
    "FIR": 100,
    "RateConvert": 50,
    "TargetDetect": 60,
    "Oversampler": 20,
    "DToA": 40,
    "FMRadio": 40,
    "FilterBank": 30,
    "ChannelVocoder": 30,
    "DCT": 4,
    "FFT": 4,
    "TDE": 6,
    "BitonicSort": 12,
    "DES": 4,
    "Serpent": 3,
    "Radar": 8,
    "Vocoder": 40,
    "MPEG2Decoder": 4,
    "Beamformer": 12,
    "FreqHopRadio": 8,
}

#: ``chopped-runs``: calls per calibrated block (about 30 ms, so the spins
#: around it see the same machine); the other workloads probe
#: ``call_p50_us`` with a short block per app per round.
CHOPPED_BLOCK_CALLS = 100
PROBE_CALLS = 20

#: Periods every job runs after compiling (the ISSUE's ``run(periods=2)``).
JOB_PERIODS = 2

#: Bound on |optimised - baseline| output on ``linear-opt`` (measured max
#: 1.4e-15; linear combination and frequency translation reassociate sums).
LINEAR_ABS_BOUND = 1e-9

KERNEL_APPS = ("FIR", "FMRadio", "FilterBank", "ChannelVocoder", "DCT", "FFT")
DISPATCH_APPS = ("BitonicSort", "DES", "Serpent", "DToA", "Radar", "FreqHopRadio")
CHOPPED_APPS = ("FMRadio", "FIR", "DToA", "BitonicSort")
PARALLEL_APPS = ("FMRadio", "FilterBank")

#: name -> (protocol, apps or suite name, why).  ``why`` is the one-line
#: reason BENCHMARK.json repeats; README.md has the measured shares.
WORKLOADS = {
    "steady-kernel": (
        "steady",
        KERNEL_APPS,
        "time is inside numpy kernels: kernel, fusion and ceiling work shows "
        "here; compile and dispatch work must not",
    ),
    "steady-dispatch": (
        "steady",
        DISPATCH_APPS,
        "time is in splitters, joiners, feedback and teleport structure: "
        "one-IR, region-fusion and core-loop work shows here",
    ),
    "chopped-runs": (
        "chopped",
        CHOPPED_APPS,
        "the steady layer called one period at a time: per-call fixed cost "
        "dominates, so bigger batches or more bookkeeping show as a loss",
    ),
    "compile-cold": (
        "compile",
        "ALL_APPS",
        "fresh process and empty caches from Pipeline(...) to first output: "
        "analysis, graph, scheduling, plan and codegen emit do the work",
    ),
    "compile-warm": (
        "compile",
        "ALL_APPS",
        "same sweep with the codegen disk cache pre-populated: a cache-side "
        "change moves this and not compile-cold",
    ),
    "linear-opt": (
        "linear",
        "LINEAR_SUITE",
        "the paper's linear optimisation on the engine users run: "
        "apply_selection(build()) against build(), arms interleaved",
    ),
}

#: End-to-end metrics: name -> (unit, better, bound, workloads that define
#: it, driver).  ``driver`` marks the ones BENCHMARK.json lists under
#: ``end_to_end``: the driver wants every one of those from every workload
#: and never zero, so the two single-workload ratios ride in its
#: ``per_layer`` list and ``failed_ops_ratio`` in its ``attempted``/``failed``
#: keys; ``diff.py`` gates all eight with the bounds below.
#:
#: Bounds are set from ten 15 s runs per workload (seeds 21-30) on the
#: 2-CPU reference host, in calibrated seconds: the widest quartile spread
#: over the six workloads was 8.3% for items_per_s (linear-opt; 2.5-5.5%
#: elsewhere), 6.2% for call_p50_us (linear-opt; 3.2-4.9% elsewhere), 5.7%
#: for job_s (1.6-5.4% elsewhere), 11% for setup_s (chopped-runs, whose
#: set-up is mostly imports) and 3% for peak_rss_mb.  A bound is at least
#: 2.4 times its metric's widest spread; ISSUE 11 hoped for 5-10%, which
#: this host's drift does not allow even after calibration (calib.py).
ALL = tuple(WORKLOADS)
END_TO_END = {
    "items_per_s": ("items/s", "higher", 0.2, ALL, True),
    "call_p50_us": ("us", "lower", 0.2, ALL, True),
    "job_s": ("s", "lower", 0.15, ALL, True),
    "setup_s": ("s", "lower", 0.25, ALL, True),
    "peak_rss_mb": ("MiB", "lower", 0.1, ALL, True),
    "ceiling_ratio": ("ratio", "higher", 0.1, ("steady-kernel",), False),
    "linear_speedup": ("ratio", "higher", 0.1, ("linear-opt",), False),
    "failed_ops_ratio": ("ratio", "lower", 0.0, ALL, False),
}

#: Per-layer metrics of the traced run: name -> (unit, better).  A layer a
#: workload does not exercise reports 0 there (see README.md for the map).
PER_LAYER = {
    "repro.import_s": ("s", "lower"),
    "apps.build_s": ("s", "lower"),
    "apps.filters": ("count", "lower"),
    "graph.flatten_s": ("s", "lower"),
    "graph.validate_s": ("s", "lower"),
    "graph.nodes": ("count", "lower"),
    "graph.edges": ("count", "lower"),
    "analysis.stream_s": ("s", "lower"),
    "analysis.graph_s": ("s", "lower"),
    "analysis.ring_proofs_s": ("s", "lower"),
    "analysis.diagnostics": ("count", "lower"),
    "analysis.certified_filters": ("count", "higher"),
    "analysis.regions_certified": ("count", "higher"),
    "scheduling.build_s": ("s", "lower"),
    "scheduling.steady_phases": ("count", "lower"),
    "scheduling.init_firings": ("count", "lower"),
    "scheduling.sdep_s": ("s", "lower"),
    "estimate.work_s": ("s", "lower"),
    "mapping.partition_s": ("s", "lower"),
    "runtime.interpreter.ctor_scalar_s": ("s", "lower"),
    "runtime.plan.compile_s": ("s", "lower"),
    "runtime.plan.cache_hit_ratio": ("ratio", "higher"),
    "runtime.vectorize.lifted": ("count", "higher"),
    "runtime.vectorize.hand_kernels": ("count", "lower"),
    "runtime.vectorize.loop_fallbacks": ("count", "lower"),
    "runtime.codegen.fingerprint_s": ("s", "lower"),
    "runtime.codegen.emit_s": ("s", "lower"),
    "runtime.codegen.materialize_s": ("s", "lower"),
    "runtime.codegen.source_bytes": ("count", "lower"),
    "runtime.codegen.blocks_inline": ("count", "higher"),
    "runtime.codegen.blocks_call": ("count", "lower"),
    "runtime.codegen.blocks_fallback": ("count", "lower"),
    "runtime.codegen.disk_hit_ratio": ("ratio", "higher"),
    "runtime.interpreter.init_s": ("s", "lower"),
    "runtime.interpreter.close_s": ("s", "lower"),
    "runtime.interpreter.call_overhead_us": ("us", "lower"),
    "runtime.interpreter.call_p99_us": ("us", "lower"),
    "obs.metrics_off_ratio": ("ratio", "higher"),
    "runtime.plan.batched_items_per_s": ("items/s", "higher"),
    "runtime.plan.filter_share": ("ratio", "higher"),
    "runtime.plan.splitjoin_share": ("ratio", "lower"),
    "runtime.plan.untraced_share": ("ratio", "lower"),
    "runtime.codegen.vs_batched_ratio": ("ratio", "higher"),
    "bench.ceiling_items_per_s": ("items/s", "higher"),
    "runtime.messaging.items_per_s": ("items/s", "higher"),
    "runtime.messaging.delivered": ("count", "higher"),
    "linear.extract_s": ("s", "lower"),
    "linear.extract_ratio": ("ratio", "higher"),
    "linear.select_s": ("s", "lower"),
    "linear.replacements": ("count", "higher"),
    "linear.max_abs_err": ("abs", "lower"),
    "runtime.interpreter.scalar_items_per_s": ("items/s", "higher"),
    "runtime.parallel.setup_s": ("s", "lower"),
    "runtime.parallel.items_per_s": ("items/s", "higher"),
    "runtime.parallel.vs_batched_ratio": ("ratio", "higher"),
    "runtime.parallel.barrier_wait_share": ("ratio", "lower"),
    "runtime.parallel.fork_count": ("count", "lower"),
    "runtime.parallel.commands_per_run": ("ratio", "lower"),
    "runtime.ring.stalls": ("count", "lower"),
    "runtime.parallel.mismatches": ("count", "lower"),
    "obs.trace_overhead_ratio": ("ratio", "lower"),
    "bench.trace_overhead_ratio": ("ratio", "lower"),
    "bench.accounted_share": ("ratio", "higher"),
    "ceiling_ratio": ("ratio", "higher"),
    "linear_speedup": ("ratio", "higher"),
}


def driver_end_to_end():
    """The end-to-end metrics the driver protocol carries (``--trace 0``)."""
    return [name for name, row in END_TO_END.items() if row[4]]


def apps_of(workload: str):
    """``{name: builder}`` for a workload (imports the program)."""
    import repro.apps as apps

    _protocol, spec, _why = WORKLOADS[workload]
    if isinstance(spec, str):
        return dict(getattr(apps, spec))
    return {name: apps.ALL_APPS[name] for name in spec}
