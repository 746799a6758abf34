"""The traced run: every layer timed from outside, stage by stage.

``staged_job`` executes one app's pipeline as the separate public calls
``Interpreter(check=True)`` makes in one go, each under a span of the
benchmark's own recorder.  ``side_probes`` times the layers a codegen job
never enters (graph analysis, work estimation, partitioning, ring proofs,
SDEP) and the codegen emitter on a second build, so they cannot warm the
job they sit beside.  Span names are ``<layer>.<function>``.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from harness import make_app, sink_of
from spans import SpanRecorder

#: Spans of ``staged_job`` that together make up what the one-call job
#: does.  ``analyze_stream``, ``validate`` and the codegen constructor each
#: flatten the stream again, so two ``graph.flatten`` durations come off.
ACCOUNTED_SPANS = (
    "apps.build",
    "analysis.analyze_stream",
    "graph.validate",
    "runtime.interpreter.ctor_codegen",
    "runtime.interpreter.run_init",
    "runtime.interpreter.run_steady.first",
    "runtime.interpreter.run_steady",
    "runtime.interpreter.close",
)


def staged_job(
    rec: SpanRecorder, job_id: str, builder: Callable, seed: int, transform=None
) -> Dict[str, object]:
    """Run one app-job stage by stage; returns its counts and output."""
    from repro.analysis import analyze_filter, analyze_stream
    from repro.graph.flatgraph import flatten
    from repro.graph.validation import validate
    from repro.runtime import Interpreter
    from repro.runtime.plan import clear_plan_cache
    from repro.scheduling.steady import build_schedule

    with rec.job(job_id), rec.span("job"):
        with rec.span("apps.build"):
            app = make_app(builder, seed)
            if transform is not None:
                app = transform(app)
        sink = sink_of(app)
        with rec.span("graph.flatten"):
            graph = flatten(app)
        with rec.span("analysis.analyze_stream"):
            bag = analyze_stream(app)
        with rec.span("graph.validate"):
            graph = validate(app)
        with rec.span("scheduling.build_schedule"):
            program = build_schedule(graph)
        # One constructor per engine over the same stream: each re-binds the
        # filters, only the last (codegen) interpreter runs.  The plan cache
        # is emptied in between so codegen compiles its plan as the one-call
        # job does instead of hitting the batched constructor's entry.
        with rec.span("runtime.interpreter.ctor_scalar"):
            Interpreter(app, check=False, engine="scalar")
        clear_plan_cache()
        with rec.span("runtime.interpreter.ctor_batched"):
            Interpreter(app, check=False, engine="batched")
        clear_plan_cache()
        with rec.span("runtime.interpreter.ctor_codegen"):
            interp = Interpreter(app, check=False, engine="codegen")
        with rec.span("runtime.interpreter.run_init"):
            interp.run_init()
        with rec.span("runtime.interpreter.run_steady.first"):
            interp.run_steady(1)
        with rec.span("runtime.interpreter.run_steady"):
            interp.run_steady(1)
        with rec.span("runtime.interpreter.close"):
            interp.close()

    filters = [node.filter for node in graph.filter_nodes()]
    kinds = [row["kind"] for row in interp.plan.vectorization_report().values()]
    return {
        "output": list(sink.collected),
        "engine_used": interp.engine_used,
        "apps.filters": len(filters),
        "graph.nodes": len(graph.nodes),
        "graph.edges": len(graph.edges),
        "analysis.diagnostics": len(list(bag)),
        "analysis.certified_filters": sum(
            1 for f in filters if analyze_filter(f).certified
        ),
        "scheduling.steady_phases": len(program.steady),
        "scheduling.init_firings": program.init.total_firings,
        "runtime.vectorize.lifted": kinds.count("lifted"),
        "runtime.vectorize.hand_kernels": kinds.count("work_batch"),
        "runtime.vectorize.loop_fallbacks": kinds.count("loop"),
    }


def side_probes(
    rec: SpanRecorder, job_id: str, builder: Callable, seed: int, transform=None
) -> Dict[str, object]:
    """Layers beside the job, on a second build of the same seeded app."""
    from repro import __version__
    from repro.analysis.graph import analyze_flat_graph, ring_capacity_proofs
    from repro.errors import StreamItError
    from repro.estimate.work import steady_state_work
    from repro.graph.flatgraph import flatten
    from repro.mapping.strategies import partition_nodes
    from repro.runtime import Interpreter
    from repro.runtime.codegen_emit import Unsupported, emit_module, plan_fingerprint
    from repro.runtime.plan import _plan_signature
    from repro.scheduling.sdep import WavefrontOracle
    from repro.scheduling.steady import build_schedule

    counts: Dict[str, object] = {}
    with rec.job(job_id):
        app = make_app(builder, seed)
        if transform is not None:
            app = transform(app)
        graph = flatten(app)
        program = build_schedule(graph)
        with rec.span("analysis.analyze_flat_graph"):
            analysis = analyze_flat_graph(graph)
        counts["analysis.regions_certified"] = len(analysis.regions)
        with rec.span("estimate.steady_state_work"):
            steady_state_work(graph, program.reps)
        try:
            with rec.span("mapping.partition_nodes"):
                part = partition_nodes(app, graph, program.reps, "softpipe", 2)
            cores = sorted(set(part.values()))
            node_wid = {
                node: cores.index(part[node]) + 1 if node in part else 0
                for node in graph.nodes
            }
            with rec.span("analysis.ring_capacity_proofs"):
                ring_capacity_proofs(program, node_wid)
        except (StreamItError, ValueError, KeyError) as exc:
            counts["partition_error"] = f"{type(exc).__name__}: {exc}"
        source_edge = graph.sources[0].out_edges[0]
        sink_edge = graph.sinks[0].in_edges[0]
        try:
            with rec.span("scheduling.sdep"):
                oracle = WavefrontOracle(graph)
                oracle.max_items(
                    source_edge, sink_edge, 4 * program.reps[source_edge.src]
                )
        except StreamItError as exc:
            counts["sdep_error"] = f"{type(exc).__name__}: {exc}"
        # The emitter, as CodegenPlan._materialize calls it (after init, so
        # certification sees live attributes).  _plan_signature is private,
        # but the fingerprint has no public entry point that builds it.
        interp = Interpreter(app, check=False, engine="codegen")
        interp.run_init()
        plan = interp.plan
        if getattr(plan, "codegen_active", False):
            with rec.span("runtime.codegen.plan_fingerprint"):
                signature = _plan_signature(
                    plan.graph, interp.program, plan._senders, plan._receivers
                )
                fingerprint = plan_fingerprint(plan, signature, __version__)
            try:
                with rec.span("runtime.codegen.emit_module"):
                    source, meta = emit_module(plan, fingerprint)
                counts["runtime.codegen.source_bytes"] = len(source.encode())
                modes: List[str] = []
                for block in meta["blocks"]:
                    if block["kind"] == "fused":
                        modes.extend(stage.get("mode") for stage in block["stages"])
                    else:
                        modes.append(block.get("mode"))
                for mode in ("inline", "call", "fallback"):
                    counts[f"runtime.codegen.blocks_{mode}"] = modes.count(mode)
            except Unsupported as exc:
                counts["emit_error"] = str(exc)
        interp.close()
    return counts


#: per-layer metric -> span whose summed duration it reports.
SPAN_METRICS = {
    "apps.build_s": "apps.build",
    "graph.flatten_s": "graph.flatten",
    "graph.validate_s": "graph.validate",
    "analysis.stream_s": "analysis.analyze_stream",
    "analysis.graph_s": "analysis.analyze_flat_graph",
    "analysis.ring_proofs_s": "analysis.ring_capacity_proofs",
    "scheduling.build_s": "scheduling.build_schedule",
    "scheduling.sdep_s": "scheduling.sdep",
    "estimate.work_s": "estimate.steady_state_work",
    "mapping.partition_s": "mapping.partition_nodes",
    "runtime.interpreter.ctor_scalar_s": "runtime.interpreter.ctor_scalar",
    "runtime.codegen.fingerprint_s": "runtime.codegen.plan_fingerprint",
    "runtime.codegen.emit_s": "runtime.codegen.emit_module",
    "runtime.interpreter.init_s": "runtime.interpreter.run_init",
    "runtime.interpreter.close_s": "runtime.interpreter.close",
}

#: counts summed over the workload's apps.
COUNT_METRICS = (
    "apps.filters",
    "graph.nodes",
    "graph.edges",
    "analysis.diagnostics",
    "analysis.certified_filters",
    "analysis.regions_certified",
    "scheduling.steady_phases",
    "scheduling.init_firings",
    "runtime.vectorize.lifted",
    "runtime.vectorize.hand_kernels",
    "runtime.vectorize.loop_fallbacks",
    "runtime.codegen.source_bytes",
    "runtime.codegen.blocks_inline",
    "runtime.codegen.blocks_call",
    "runtime.codegen.blocks_fallback",
)


def stage_metrics(rec: SpanRecorder, counts: List[Dict[str, object]], sweeps: int):
    """Per-layer metrics of ``sweeps`` staged sweeps: span totals and counts
    summed over the apps, per sweep."""
    out = {
        metric: rec.total(span) / sweeps for metric, span in SPAN_METRICS.items()
    }
    out["runtime.plan.compile_s"] = (
        rec.total("runtime.interpreter.ctor_batched")
        - rec.total("runtime.interpreter.ctor_scalar")
    ) / sweeps
    out["runtime.codegen.materialize_s"] = (
        rec.total("runtime.interpreter.run_steady.first")
        - rec.total("runtime.interpreter.run_steady")
    ) / sweeps
    for metric in COUNT_METRICS:
        out[metric] = sum(int(c.get(metric, 0)) for c in counts) / sweeps
    return out


def accounted_seconds(rec: SpanRecorder) -> float:
    """Stage spans that explain the one-call job (see ACCOUNTED_SPANS)."""
    return sum(rec.total(name) for name in ACCOUNTED_SPANS) - 2 * rec.total(
        "graph.flatten"
    )
