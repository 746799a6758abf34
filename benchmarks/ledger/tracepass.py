"""The ``--trace`` run: a short timed pass, staged sweeps under the span
recorder, and the probes of the layers each workload exists to show.

A probe reports only on the workload that exercises its layer (README.md
has the map); everywhere else that metric stays 0.  Ratios over the timed
pass use this run's own windows, so both sides saw the same machine.
"""

from __future__ import annotations

import time
from typing import Dict, List

from calib import Stopwatch
from harness import Ops, check_output, clear_compile_caches, drain, make_app, sink_of
from layers import accounted_seconds, side_probes, stage_metrics, staged_job
from protocols import (
    Chopped,
    Compile,
    InProcess,
    Linear,
    Session,
    Steady,
    call_block,
    open_session,
    timed_window,
)
from spans import SpanRecorder
from stats import geomean, median, percentile
from workloads import CHOPPED_BLOCK_CALLS, PARALLEL_APPS, PER_LAYER, WINDOW_PERIODS

clock = time.perf_counter

#: Staged sweeps per traced run; windows per probe arm.
STAGED_SWEEPS = 2
PROBE_WINDOWS = 3
#: The traced run's timed pass (ratios need a same-run baseline).
TIMED_SECONDS = 4.0


def _ratio(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def _median_rate(session: Session, ops: Ops, watch: Stopwatch) -> float:
    """Median items per calibrated second over a few windows."""
    rates = [
        timed_window(session, ops, watch, expect_engine=False) for _ in range(PROBE_WINDOWS)
    ]
    rates = [r[0] for r in rates if r is not None]
    return median(rates) if rates else 0.0


def trace_in_process(proto: InProcess, rec: SpanRecorder, import_s: float) -> Dict[str, float]:
    from repro.runtime.codegen import codegen_cache_stats
    from repro.runtime.plan import plan_cache_stats

    out = {name: 0.0 for name in PER_LAYER}
    out["repro.import_s"] = import_s
    proto.setup()
    proto.measure(TIMED_SECONDS)
    out["runtime.plan.cache_hit_ratio"] = _ratio(
        plan_cache_stats["hits"], plan_cache_stats["misses"]
    )
    out["runtime.codegen.disk_hit_ratio"] = _ratio(
        codegen_cache_stats["disk_hits"], codegen_cache_stats["disk_misses"]
    )
    out["runtime.interpreter.scalar_items_per_s"] = geomean(
        o.scalar_items_per_s for o in proto.oracles.values()
    )

    counts: List[Dict[str, object]] = []
    for sweep in range(STAGED_SWEEPS):
        clear_compile_caches()
        for name, builder in proto.apps.items():
            for job_id, stage in ((f"{name}#{sweep}", staged_job), (f"{name}#{sweep}+side", side_probes)):
                row, raw, cal = proto.watch.time(
                    stage, rec, job_id, builder, proto.seed, proto.job_transform
                )
                rec.scales[job_id] = cal / raw
                if stage is staged_job:
                    proto.check_job(name, row)
                counts.append(row)
    out.update(stage_metrics(rec, counts, STAGED_SWEEPS))
    plain = median(proto.job_sweeps[1:] or proto.job_sweeps)
    out["bench.accounted_share"] = accounted_seconds(rec) / STAGED_SWEEPS / plain
    out["bench.trace_overhead_ratio"] = rec.total("job") / STAGED_SWEEPS / plain

    if isinstance(proto, Steady):
        out.update(steady_probes(proto, rec))
    elif isinstance(proto, Chopped):
        out.update(chopped_probes(proto))
    elif isinstance(proto, Linear):
        out.update(linear_probes(proto, rec))
    return out


# -- steady-kernel / steady-dispatch ---------------------------------------------


def _engine_shares(interp) -> Dict[str, float]:
    """Split one traced batched run into filter / splitter+joiner / untraced
    shares of its ``run_steady`` envelopes.  A fused chain holds filters
    only; a cyclic core (``core:``) mixes both and counts as filter time."""
    from repro.graph.flatgraph import FILTER

    kinds = {node.name: node.kind for node in interp.graph.nodes}
    total = sum(
        e["dur"]
        for e in interp.tracer.events
        if e.get("cat") == "engine" and e["name"].startswith("run_steady")
    )
    shares = {"filter": 0.0, "splitjoin": 0.0}
    for name, row in interp.tracer.metrics()["filters"].items():
        structural = kinds.get(name, FILTER) != FILTER
        shares["splitjoin" if structural else "filter"] += row["self_time"]
    if total <= 0:
        return {"filter": 0.0, "splitjoin": 0.0, "untraced": 0.0}
    filt, sj = shares["filter"] / total, shares["splitjoin"] / total
    return {"filter": filt, "splitjoin": sj, "untraced": max(0.0, 1.0 - filt - sj)}


def steady_probes(proto: Steady, rec: SpanRecorder) -> Dict[str, float]:
    out: Dict[str, float] = {}
    ops = proto.ops
    codegen = {app: median(v) for app, v in proto.samples["items_per_s"].items()}
    batched: Dict[str, float] = {}
    traced_ratio: List[float] = []
    shares: List[Dict[str, float]] = []
    delivered = 0
    for name, builder in proto.apps.items():
        oracle = proto.oracles[name]
        periods = max(1, WINDOW_PERIODS[name] // 2)
        with rec.job(f"{name}#probe"):
            with rec.span("probe.batched"):
                session = open_session(
                    name, builder, proto.seed, oracle, ops, periods, "batched", check=False
                )
                batched[name] = _median_rate(session, ops, proto.bulk)
                session.close()
            # The codegen tracer emits one span per chunk, so the filter /
            # splitter / joiner split has to come from the batched engine.
            with rec.span("probe.batched_traced"):
                session = open_session(
                    name, builder, proto.seed, oracle, ops,
                    max(1, periods // 4), "batched", check=False, trace=True,
                )
                timed_window(session, ops, proto.bulk, expect_engine=False)
                shares.append(_engine_shares(session.interp))
                delivered += sum(
                    1
                    for t in session.interp.tracer.meta.get("teleports", ())
                    if t.get("delivered_n") is not None
                )
                session.close()
            with rec.span("probe.codegen_traced"):
                session = open_session(
                    name, builder, proto.seed, oracle, ops,
                    WINDOW_PERIODS[name], "codegen", check=False, trace=True,
                )
                rate = _median_rate(session, ops, proto.bulk)
                session.close()
            if rate and name in codegen:
                traced_ratio.append(codegen[name] / rate)
    out["runtime.plan.batched_items_per_s"] = geomean(batched.values())
    out["runtime.codegen.vs_batched_ratio"] = geomean(
        codegen[a] / batched[a] for a in batched if a in codegen and batched[a]
    )
    for key in ("filter", "splitjoin", "untraced"):
        out[f"runtime.plan.{key}_share"] = sum(s[key] for s in shares) / len(shares)
    out["obs.trace_overhead_ratio"] = geomean(traced_ratio)
    if "FreqHopRadio" in codegen:
        out["runtime.messaging.items_per_s"] = codegen["FreqHopRadio"]
        out["runtime.messaging.delivered"] = float(delivered)
    if proto.with_ceilings:
        out["bench.ceiling_items_per_s"] = geomean(
            median(v) for v in proto.samples["ceiling_items_per_s"].values()
        )
        out["ceiling_ratio"] = geomean(
            median(v) for v in proto.samples["ceiling_ratio"].values()
        )
        with rec.span("probe.parallel"):
            out.update(parallel_probe(proto, batched))
    return out


def parallel_probe(proto: Steady, batched: Dict[str, float]) -> Dict[str, float]:
    """``engine="parallel"``, ``cores=2``: per-layer only — two workers and
    the parent on two CPUs make its wall-clock too unsteady to gate."""
    from repro.runtime import Interpreter

    ops = proto.ops
    setup_s: List[float] = []
    rates: List[float] = []
    ratios: List[float] = []
    forks = commands = runs = stalls = mismatches = 0
    barrier_s = steady_s = 0.0
    for name in PARALLEL_APPS:
        oracle = proto.oracles[name]
        start = clock()
        app = make_app(proto.apps[name], proto.seed)
        sink = sink_of(app)
        interp = Interpreter(app, check=False, engine="parallel", strategy="softpipe", cores=2)
        try:
            interp.run_init()
            setup_s.append(clock() - start)
            if interp.engine_used != "parallel":
                ops.record(False, f"{name}: parallel engine downgraded")
                continue
            interp.run_steady(oracle.periods)
            before = ops.failed
            check_output(ops, oracle, sink.collected, f"{name}/parallel")
            mismatches += ops.failed - before
            drain(sink)
            session = Session(
                name, f"{name}/parallel", interp, sink,
                max(1, WINDOW_PERIODS[name] // 4), oracle.items_per_period,
            )
            rate = _median_rate(session, ops, proto.bulk)
            rates.append(rate)
            if batched.get(name):
                ratios.append(rate / batched[name])
            report = interp.parallel.protocol_report()
            forks += report["fork_count"]
            commands += report["commands"]["steady"]
            runs += report["steady_runs"]
            barrier_s += report["barrier_wait_s"]
            steady_s += report["steady_seconds"]
            for edge in interp.parallel.ring_edges:
                stats = interp.parallel.channels[edge].stall_stats()
                stalls += stats["producer_stalls"] + stats["consumer_stalls"]
        finally:
            interp.close()
    return {
        "runtime.parallel.setup_s": sum(setup_s),
        "runtime.parallel.items_per_s": geomean(rates),
        "runtime.parallel.vs_batched_ratio": geomean(ratios),
        "runtime.parallel.barrier_wait_share": barrier_s / steady_s if steady_s else 0.0,
        "runtime.parallel.fork_count": float(forks),
        "runtime.parallel.commands_per_run": commands / runs if runs else 0.0,
        "runtime.ring.stalls": float(stalls),
        "runtime.parallel.mismatches": float(mismatches),
    }


# -- chopped-runs ----------------------------------------------------------------


def chopped_probes(proto: Chopped) -> Dict[str, float]:
    from repro.obs.metrics import METRICS

    ops = proto.ops
    overhead: List[float] = []
    p99: List[float] = []
    off_ratio: List[float] = []
    for session in proto.sessions:
        calls = proto.samples["call_us"][session.name]
        p50 = median(calls)
        p99.append(percentile(calls, 99))
        # What one period costs inside a long run: the call's floor.
        bulk = Session(
            session.name, session.label, session.interp, session.sink,
            max(1, WINDOW_PERIODS[session.name] // 4), session.items_per_period,
        )
        rate = _median_rate(bulk, ops, proto.bulk)
        if rate:
            per_period_us = 1e6 * session.items_per_period / rate
            overhead.append(max(p50 - per_period_us, 1e-3))
        # The same calls with the always-on metrics registry switched off
        # (what REPRO_METRICS=0 does), blocks interleaved with it on.
        on: List[float] = []
        off: List[float] = []
        was_enabled = METRICS.enabled
        try:
            for _ in range(PROBE_WINDOWS):
                for enabled, bucket in ((True, on), (False, off)):
                    METRICS.set_enabled(enabled)
                    latencies, _ = call_block(session, CHOPPED_BLOCK_CALLS, ops, proto.watch)
                    bucket.extend(latencies)
        finally:
            METRICS.set_enabled(was_enabled)
        if on and off:
            off_ratio.append(median(off) / median(on))
    return {
        "runtime.interpreter.call_overhead_us": geomean(overhead),
        "runtime.interpreter.call_p99_us": geomean(p99),
        "obs.metrics_off_ratio": geomean(off_ratio),
    }


# -- linear-opt ------------------------------------------------------------------


def linear_probes(proto: Linear, rec: SpanRecorder) -> Dict[str, float]:
    from repro.errors import ExtractionError
    from repro.linear import apply_selection, try_extract

    counts = {"attempted": 0, "extracted": 0, "replacements": 0}

    def probe(builder) -> None:
        candidates = [
            f for f in make_app(builder, proto.seed).filters() if f.rate.pop and f.rate.push
        ]
        with rec.span("linear.try_extract"):
            for filt in candidates:
                counts["attempted"] += 1
                try:
                    counts["extracted"] += try_extract(filt).linear
                except ExtractionError:
                    pass
        with rec.span("linear.apply_selection"):
            _optimised, report = apply_selection(make_app(builder, proto.seed))
        counts["replacements"] += len(report.replacements)

    for name, builder in proto.apps.items():
        job_id = f"{name}#probe"
        with rec.job(job_id):
            _, raw, cal = proto.watch.time(probe, builder)
        rec.scales[job_id] = cal / raw
    attempted, extracted = counts["attempted"], counts["extracted"]
    return {
        "linear.extract_s": rec.total("linear.try_extract"),
        "linear.extract_ratio": extracted / attempted if attempted else 0.0,
        "linear.select_s": rec.total("linear.apply_selection"),
        "linear.replacements": float(counts["replacements"]),
        "linear.max_abs_err": proto.max_abs_err,
        "linear_speedup": geomean(
            median(v) for v in proto.samples["linear_speedup"].values()
        ),
    }


# -- compile-cold / compile-warm -------------------------------------------------


def trace_compile(proto: Compile, rec: SpanRecorder) -> Dict[str, float]:
    out = {name: 0.0 for name in PER_LAYER}
    proto.setup()
    counts: List[Dict[str, object]] = []
    for _ in range(STAGED_SWEEPS):
        proto.sweep()
        staged = proto.sweep(staged=True)
        if staged is not None:
            rec.ingest(staged["spans"], staged["scales"])
            counts.extend(staged["jobs"])
    proto.rounds = STAGED_SWEEPS
    out.update(stage_metrics(rec, counts, STAGED_SWEEPS))
    plain = median(proto.app_job_sums)
    out["bench.accounted_share"] = accounted_seconds(rec) / STAGED_SWEEPS / plain
    out["bench.trace_overhead_ratio"] = rec.total("job") / STAGED_SWEEPS / plain
    out["repro.import_s"] = median(proto.import_s)
    out["runtime.plan.cache_hit_ratio"] = _ratio(*proto.plan_lookups)
    out["runtime.codegen.disk_hit_ratio"] = _ratio(*proto.disk_lookups)
    out["runtime.interpreter.scalar_items_per_s"] = geomean(
        o.scalar_items_per_s for o in proto.oracles.values()
    )
    return out
