"""Tests for ``repro.obs`` (streamscope): tracer core, engine integration,
exporters, the report/validate CLI, and the lint ``--codes`` registry.

The differential tests assert the observability contract from the issue:
tracing must never change program output (traced and untraced runs are
bit-identical on every engine), the parallel engine's trace carries one
track per worker plus ring stall counters, and teleport send→delivery
records agree with the SDEP wavefront on the frequency-hopping radio.
"""

import json
import warnings

import pytest

from repro.apps import ALL_APPS, freqhop
from repro.errors import EngineDowngradeWarning
from repro.graph.builtins import CollectSink
from repro.obs import (
    CAT_ENGINE,
    CAT_FILTER,
    CAT_KERNEL,
    CAT_REGION,
    CAT_WORKER,
    NULL_TRACER,
    FlightRecorder,
    HwmArrayChannel,
    MemoryTracer,
    NullTracer,
    load_trace,
    trace_summary,
    validate_trace,
)
from repro.obs.__main__ import main as obs_main
from repro.obs.chrome import track_names
from repro.obs.tracer import CAT_CODEGEN, SELF_TIME_CATS
from repro.runtime import Interpreter
from repro.scheduling.sdep import delivery_on_boundary


def _run_traced(builder, engine, periods=8, trace=True, **opts):
    """(collected outputs, interpreter) after a closed run."""
    app = builder()
    sink = next(f for f in app.filters() if isinstance(f, CollectSink))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EngineDowngradeWarning)
        interp = Interpreter(app, check=False, engine=engine, trace=trace, **opts)
    try:
        interp.run(periods=periods)
    finally:
        interp.close()
    return list(sink.collected), interp


# ---------------------------------------------------------------------------
# Tracer core
# ---------------------------------------------------------------------------


class TestTracerCore:
    def test_null_tracer_is_disabled_and_falsy(self):
        assert NULL_TRACER.enabled is False
        assert not NULL_TRACER
        # Every protocol method is a no-op even when called.
        NULL_TRACER.complete("x", CAT_FILTER, 0.0, 1.0)
        NULL_TRACER.instant("x", CAT_FILTER)
        NULL_TRACER.counter("x", {"v": 1.0})
        NULL_TRACER.name_track(0, "main")
        assert isinstance(NULL_TRACER, NullTracer)

    def test_memory_tracer_records_spans_and_counters(self):
        tracer = MemoryTracer()
        tracer.complete("f", CAT_FILTER, ts=1.0, dur=0.5, args={"firings": 2})
        tracer.instant("hop", "teleport", tid=1)
        tracer.counter("ring:a->b", {"producer_stalls": 3})
        assert len(tracer.events) == 3
        phases = sorted(e["ph"] for e in tracer.events)
        assert phases == ["C", "X", "i"]

    def test_capacity_bounds_memory_and_counts_drops(self):
        tracer = MemoryTracer(capacity=5)
        for i in range(8):
            tracer.complete(f"s{i}", CAT_FILTER, ts=float(i), dur=0.1)
        assert len(tracer.events) == 5
        assert tracer.dropped == 3
        # The oldest events fell off; the newest survive.
        assert [e["name"] for e in tracer.events] == [f"s{i}" for i in range(3, 8)]
        assert tracer.chrome()["repro"]["dropped_events"] == 3

    def test_chrome_export_rebases_and_names_tracks(self):
        tracer = MemoryTracer()
        tracer.name_track(0, "main")
        tracer.complete("f", CAT_FILTER, ts=100.0, dur=0.25, tid=0)
        payload = tracer.chrome()
        assert validate_trace(payload) == []
        meta = [e for e in payload["traceEvents"] if e["ph"] == "M"]
        assert meta and meta[0]["args"]["name"] == "main"
        span = next(e for e in payload["traceEvents"] if e["ph"] == "X")
        assert span["ts"] == 0.0  # rebased to the earliest event
        assert span["dur"] == pytest.approx(0.25e6)  # seconds -> microseconds

    def test_metrics_aggregates_self_time_per_filter(self):
        tracer = MemoryTracer()
        for cat in (CAT_FILTER, CAT_KERNEL, CAT_REGION, CAT_WORKER):
            tracer.complete("f", cat, ts=0.0, dur=1.0, args={"firings": 2, "items": 4})
        tracer.complete("other", "engine", ts=0.0, dur=9.0)  # not self-time
        metrics = tracer.metrics()
        row = metrics["filters"]["f"]
        assert row["self_time"] == pytest.approx(4.0)
        assert row["spans"] == 4
        assert row["firings"] == 8
        assert row["items"] == 16
        assert metrics["workers"][0] == pytest.approx(4.0)

    def test_hwm_channel_tracks_high_water(self):
        chan = HwmArrayChannel(name="c")
        for v in range(5):
            chan.push(float(v))
        chan.pop()
        chan.pop()
        chan.push(9.0)
        assert chan.high_water == 5
        assert len(chan) == 4


# ---------------------------------------------------------------------------
# Schema validation
# ---------------------------------------------------------------------------


class TestValidation:
    def test_rejects_non_object_and_missing_events(self):
        assert validate_trace([1, 2]) != []
        assert validate_trace({"no": "traceEvents"}) != []

    def test_rejects_bad_events(self):
        bad = {
            "traceEvents": [
                {"ph": "Z", "name": "x", "ts": 0},          # unknown phase
                {"ph": "X", "name": "x", "ts": -1, "dur": 1},  # negative ts
                {"ph": "X", "name": "x", "ts": 0},           # X without dur
                {"ph": "C", "name": "x", "ts": 0},           # C without args
                {"ph": "i", "name": "x", "ts": 0, "tid": "a"},  # non-int tid
            ]
        }
        problems = validate_trace(bad)
        assert len(problems) == 5


class TestTraceCapacity:
    def test_capacity_bounds_the_ring(self):
        assert MemoryTracer().capacity == MemoryTracer.DEFAULT_CAPACITY
        tracer = MemoryTracer(capacity=10)
        for i in range(25):
            tracer.instant(f"e{i}", "meta")
        assert len(tracer.events) == 10
        assert tracer.dropped == 15
        # Sliding window: the oldest events fell off the front.
        assert tracer.events[0]["name"] == "e15"
        assert tracer.events[-1]["name"] == "e24"

    @pytest.mark.parametrize(
        "cls, record",
        [
            (MemoryTracer, lambda ring: ring.instant("tick", "meta")),
            (FlightRecorder, lambda ring: ring.record("tick")),
        ],
        ids=["tracer", "flight"],
    )
    def test_zero_capacity_clamps_to_one_event(self, cls, record):
        ring = cls(capacity=0)
        assert ring.capacity == 1
        for _ in range(3):
            record(ring)
        assert len(ring.events) == 1 and ring.dropped == 2


# ---------------------------------------------------------------------------
# Engine integration: tracing never changes output
# ---------------------------------------------------------------------------


class TestEngineTracing:
    @pytest.mark.parametrize("engine", ["scalar", "batched", "parallel"])
    def test_traced_output_bit_identical(self, engine):
        opts = {"strategy": "softpipe", "cores": 2} if engine == "parallel" else {}
        plain, _ = _run_traced(ALL_APPS["FilterBank"], engine, trace=None, **opts)
        traced, interp = _run_traced(ALL_APPS["FilterBank"], engine, trace=True, **opts)
        assert traced == plain
        assert interp.tracer.enabled
        assert len(interp.tracer.events) > 0

    def test_scalar_trace_has_filter_spans(self):
        _, interp = _run_traced(ALL_APPS["FMRadio"], "scalar", periods=4)
        cats = {e["cat"] for e in interp.tracer.events if e["ph"] == "X"}
        assert CAT_FILTER in cats

    def test_batched_trace_has_kernel_spans_and_plan_cache(self):
        _, interp = _run_traced(ALL_APPS["FMRadio"], "batched", periods=4)
        cats = {e["cat"] for e in interp.tracer.events if e["ph"] == "X"}
        assert CAT_KERNEL in cats
        cache = interp.tracer.meta["plan_cache"]
        assert cache["hits"] + cache["misses"] >= 1

    def test_parallel_trace_has_worker_tracks_and_ring_counters(self):
        _, interp = _run_traced(
            ALL_APPS["FMRadio"], "parallel", periods=12,
            strategy="softpipe", cores=2,
        )
        if interp.engine_used != "parallel":
            pytest.skip("degenerate partition on this host")
        payload = interp.tracer.chrome()
        assert validate_trace(payload) == []
        span_tids = {
            e["tid"] for e in payload["traceEvents"]
            if e["ph"] == "X" and e["cat"] == CAT_WORKER
        }
        assert len(span_tids) >= 2, "expected spans on >= 2 worker tracks"
        names = track_names(payload)
        assert len(names) >= 2
        assert any("worker" in n for n in names.values())
        ring_counters = {
            e["name"] for e in payload["traceEvents"]
            if e["ph"] == "C" and e["name"].startswith("ring:")
        }
        assert ring_counters, "expected ring stall counter events"
        # Channel snapshot carries ring stall statistics.
        rings = [
            row for row in interp.tracer.meta["channels"].values()
            if row.get("kind") == "ring" and not row.get("detached")
        ]
        assert rings
        assert all("producer_stalls" in row for row in rings)

    def test_trace_path_writes_file_on_close(self, tmp_path):
        path = tmp_path / "fm.trace.json"
        _, interp = _run_traced(ALL_APPS["FMRadio"], "batched", trace=str(path))
        payload = load_trace(path)  # raises on schema violation
        summary = trace_summary(payload)
        assert summary["spans"] > 0
        assert payload["repro"]["meta"]["engine"] == "codegen"  # batched's one name
        assert payload["repro"]["meta"]["engine_report"]["used"] == "codegen"

    @pytest.mark.parametrize("engine", ["scalar", "batched", "parallel"])
    def test_engine_report_shape(self, engine):
        opts = {"strategy": "softpipe", "cores": 2} if engine == "parallel" else {}
        _, interp = _run_traced(ALL_APPS["FilterBank"], engine, trace=None, **opts)
        report = interp.engine_report()
        assert report["requested"] == engine
        assert report["used"] == interp.engine_used
        assert isinstance(report["downgrades"], list)
        for d in report["downgrades"]:
            assert d["code"].startswith("SL3")
        if interp.plan is not None:
            vec = report["vectorization"]
            assert vec and all("kind" in row for row in vec.values())
        if engine == "parallel" and interp.engine_used == "parallel":
            assert "parallel" in report

    def test_vectorization_report_modes(self):
        _, interp = _run_traced(ALL_APPS["FIR"], "batched", trace=None)
        vec = interp.plan.vectorization_report()
        assert vec
        for row in vec.values():
            assert {"kind", "trusted", "code", "reason"} <= set(row)
        # The run resolved executors, so nothing is left untried.
        assert all(row["kind"] != "untried" for row in vec.values())


# ---------------------------------------------------------------------------
# A traced run's spans are the plan's block list, pass by pass
# ---------------------------------------------------------------------------


def _drive(builder, engine, chunk, trace):
    """run(3) then run_steady(2), at ``chunk`` periods a pass if given."""
    app = builder()
    sink = next(f for f in app.filters() if isinstance(f, CollectSink))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EngineDowngradeWarning)
        interp = Interpreter(app, check=False, engine=engine, trace=trace)
    if chunk is not None and interp.plan is not None:
        interp.plan.chunk_periods = chunk
    interp.run(periods=3)
    interp.run_steady(2)
    interp.close()
    return sink, interp


def _teleport_keys(interp):
    return sorted(
        (r["sender"], r["receiver"], r["sent_n"], r["delivered_n"], r["threshold"])
        for r in interp.tracer.meta.get("teleports", ())
    )


@pytest.mark.parametrize("chunk", [None, 2], ids=["default", "chunk2"])
@pytest.mark.parametrize("engine", ["scalar", "batched", "codegen"])
@pytest.mark.parametrize("app_name", sorted(ALL_APPS))
def test_spans_are_the_block_list(app_name, engine, chunk):
    builder = ALL_APPS[app_name]
    plain_sink, plain = _drive(builder, engine, chunk, None)
    sink, interp = _drive(builder, engine, chunk, True)

    # Tracing changes nothing a run computes or counts.
    assert list(sink.collected) == list(plain_sink.collected)
    assert [interp.fired[n] for n in interp.graph.nodes] == [
        plain.fired[n] for n in plain.graph.nodes
    ]
    assert [
        (c.pushed_count, c.popped_count) for c in interp.channels.values()
    ] == [(c.pushed_count, c.popped_count) for c in plain.channels.values()]

    # Kernel-level spans, grouped under the engine envelope that closes
    # after them (a span is recorded when it completes).
    calls, open_spans = [], []
    for event in interp.tracer.events:
        if event["ph"] != "X":
            continue
        if event["cat"] == CAT_ENGINE:
            calls.append((event["name"], open_spans))
            open_spans = []
        elif event["cat"] in SELF_TIME_CATS:
            open_spans.append((event["name"], event["cat"], event["args"]))
    assert not open_spans
    assert [name for name, _ in calls] == ["run_init", "run_steady x3", "run_steady x2"]

    program, plan = interp.program, interp.plan
    for periods, (_, spans) in zip((3, 2), calls[1:]):
        assert sum(args["firings"] for *_, args in spans) == (
            program.steady.total_firings * periods
        )
        if plan is None:  # the scalar oracle: one span per schedule phase
            one_period = [
                (
                    node.name,
                    CAT_FILTER,
                    {
                        "firings": count,
                        "items": count * (node.out_edges[0].push_rate if node.out_edges else 0),
                    },
                )
                for node, count in program.steady
            ]
            assert spans == one_period * periods
            continue
        cap = plan.chunk_periods
        if plan.messaging:
            cap = min(cap, plan.message_slack)
        expected, left = [], periods
        while left > 0:
            scale = min(left, cap)
            expected.extend(block.span(scale) for block in plan.blocks)
            left -= scale
        assert spans == expected
        # Generated code runs in the feedback core alone.
        assert {cat for _, cat, _ in spans if cat == CAT_CODEGEN} == (
            {CAT_CODEGEN} if any(b.kind == "core" for b in plan.blocks) else set()
        )

    if interp.has_messaging:
        _, oracle = _drive(builder, "scalar", None, True)
        assert _teleport_keys(interp) and _teleport_keys(interp) == _teleport_keys(oracle)


# ---------------------------------------------------------------------------
# Warm-session reuse: one fork, many traced runs, one coherent trace
# ---------------------------------------------------------------------------


class TestWarmSessionTracing:
    def test_repeated_runs_share_one_fork_and_stay_well_formed(self):
        app = ALL_APPS["FMRadio"]()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EngineDowngradeWarning)
            interp = Interpreter(
                app, check=False, engine="parallel",
                strategy="softpipe", cores=2, trace=True,
            )
        if interp.engine_used != "parallel":
            interp.close()
            pytest.skip("degenerate partition on this host")
        try:
            interp.run(periods=4)
            interp.run_steady(4)
            interp.run_steady(4)
            report = interp.parallel.protocol_report()
            payload = interp.tracer.chrome()
        finally:
            interp.close()

        # One fork serves every run on the warm session; each steady run is
        # exactly one protocol command per worker.
        assert report["fork_count"] == 1
        assert report["commands"]["steady"] >= 3

        # The merged trace is schema-valid with per-worker tracks intact.
        assert validate_trace(payload) == []
        span_tids = {
            e["tid"] for e in payload["traceEvents"]
            if e["ph"] == "X" and e["cat"] == CAT_WORKER
        }
        assert len(span_tids) >= 2
        names = track_names(payload)
        assert sum("worker" in n for n in names.values()) >= 2

        # Ring counters are cumulative across runs: every series sampled
        # more than once must be monotonically non-decreasing in record
        # order — a reset between warm runs would break the invariant.
        series: dict = {}
        for e in payload["traceEvents"]:
            if e.get("ph") != "C" or not e["name"].startswith("ring:"):
                continue
            for key, value in e["args"].items():
                series.setdefault((e["name"], key), []).append(value)
        assert series, "expected ring counter samples across warm runs"
        multi = {k: v for k, v in series.items() if len(v) >= 2}
        assert multi, "expected repeated samples of at least one ring series"
        for (name, key), values in multi.items():
            assert values == sorted(values), (
                f"{name}.{key} went backwards across warm runs: {values}"
            )


# ---------------------------------------------------------------------------
# Teleport latency vs SDEP
# ---------------------------------------------------------------------------


class TestTeleportTracing:
    @pytest.mark.parametrize("engine", ["scalar", "batched"])
    def test_freqhop_deliveries_land_on_sdep_boundaries(self, engine):
        _, interp = _run_traced(freqhop.build_teleport, engine, periods=64)
        records = interp.tracer.meta["teleports"]
        delivered = [r for r in records if r["delivered_n"] is not None]
        assert delivered, "expected at least one delivered teleport message"
        for rec in delivered:
            assert rec["sdep_ok"] is True, rec
            # Recompute the boundary check from the raw counters.
            assert delivery_on_boundary(
                rec["threshold"], rec["delivered_n"], rec["push"], rec["direction"]
            )
            if rec["threshold"] is not None and rec["push"]:
                expected = (rec["delivered_n"] - rec["sent_n"]) // rec["push"]
                assert rec["latency_iterations"] == expected


# ---------------------------------------------------------------------------
# CLI: python -m repro.obs {report,validate}
# ---------------------------------------------------------------------------


class TestCli:
    @pytest.fixture()
    def trace_file(self, tmp_path):
        path = tmp_path / "fm.trace.json"
        _run_traced(ALL_APPS["FMRadio"], "batched", trace=str(path))
        return path

    def test_validate_ok(self, trace_file, capsys):
        assert obs_main(["validate", str(trace_file)]) == 0
        assert "valid Chrome trace" in capsys.readouterr().out

    def test_validate_min_tracks_gate(self, trace_file):
        assert obs_main(["validate", str(trace_file), "--min-tracks", "99"]) == 1

    def test_validate_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert obs_main(["validate", str(bad)]) == 1
        schema_bad = tmp_path / "schema.json"
        schema_bad.write_text(json.dumps({"traceEvents": [{"ph": "Q"}]}))
        assert obs_main(["validate", str(schema_bad)]) == 1

    def test_report_renders_table(self, trace_file, capsys):
        assert obs_main(["report", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "streamscope report" in out
        assert "self ms" in out
        assert "engine: requested 'batched'" in out

    def test_report_top_limits_rows(self, trace_file, capsys):
        assert obs_main(["report", str(trace_file), "--top", "1"]) == 0

    def test_parallel_trace_file_has_worker_tracks_and_reports_json(
        self, tmp_path, capsys
    ):
        path = tmp_path / "fm.parallel.trace.json"
        _, interp = _run_traced(
            ALL_APPS["FMRadio"], "parallel", trace=str(path),
            strategy="softpipe", cores=2,
        )
        if interp.engine_used != "parallel":
            pytest.skip("degenerate partition on this host")
        assert obs_main(["validate", str(path), "--min-tracks", "2"]) == 0
        capsys.readouterr()
        assert obs_main(["report", str(path), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)


# ---------------------------------------------------------------------------
# Partial traces: report/validate degrade gracefully, never traceback
# ---------------------------------------------------------------------------


class TestPartialTraces:
    def _write(self, tmp_path, payload) -> str:
        path = tmp_path / "partial.json"
        path.write_text(
            payload if isinstance(payload, str) else json.dumps(payload)
        )
        return str(path)

    def test_report_without_repro_metadata_still_renders(self, tmp_path, capsys):
        # A foreign but schema-valid trace: spans only, no "repro" section.
        path = self._write(tmp_path, {
            "traceEvents": [
                {"name": "f", "cat": "filter", "ph": "X",
                 "ts": 0.0, "dur": 5.0, "tid": 0},
                {"name": "mark", "ph": "i", "ts": 1.0, "tid": 0},
            ]
        })
        assert obs_main(["report", path]) == 0
        out = capsys.readouterr().out
        assert "streamscope report" in out
        assert "f" in out

    def test_report_tolerates_odd_shaped_metadata(self, tmp_path, capsys):
        # Every metadata section the renderer touches, wrongly shaped or
        # with non-numeric values: the report must still come out.
        path = self._write(tmp_path, {
            "traceEvents": [
                {"name": "f", "cat": "filter", "ph": "X",
                 "ts": 0.0, "dur": 5.0, "tid": 0,
                 "args": {"firings": None, "items": "many"}},
                {"name": "ring:a->b", "ph": "C", "ts": 1.0, "tid": 0,
                 "args": {"producer_stall_s": "abc"}},
            ],
            "repro": {"meta": {
                "channels": "not a dict",
                "teleports": {"not": "a list"},
                "engine_report": ["not", "a", "dict"],
                "plan_cache": 7,
                "codegen_cache": None,
            }},
        })
        assert obs_main(["report", path]) == 0
        out = capsys.readouterr().out
        assert "streamscope report" in out
        assert "a->b" in out

    def test_report_truncated_json_is_a_clear_error(self, tmp_path, capsys):
        path = self._write(tmp_path, '{"traceEvents": [{"name": "f", "ph"')
        assert obs_main(["report", path]) == 1
        err = capsys.readouterr().err
        assert "streamscope" in err
        assert "not valid JSON" in err

    def test_report_on_unrenderable_content_exits_one(self, tmp_path, capsys):
        # Schema-valid traceEvents but a "repro" section of the wrong type:
        # deep in the renderer this raises, and the CLI turns it into a
        # one-line diagnosis with exit 1 instead of a traceback.
        path = self._write(tmp_path, {"traceEvents": [], "repro": ["?"]})
        assert obs_main(["report", path]) == 1
        err = capsys.readouterr().err
        assert "cannot build report from this trace" in err
        assert "truncated or from an incompatible producer" in err

    def test_validate_on_malformed_content_exits_one(self, tmp_path, capsys):
        path = self._write(tmp_path, {"traceEvents": [], "repro": ["?"]})
        assert obs_main(["validate", path]) == 1
        assert "malformed trace content" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Lint --codes registry
# ---------------------------------------------------------------------------


class TestLintCodes:
    def test_every_code_has_a_description(self):
        from repro.analysis.diagnostics import CODES, CODE_DESCRIPTIONS

        assert set(CODES) == set(CODE_DESCRIPTIONS)
        assert all(CODE_DESCRIPTIONS[c] for c in CODES)

    def test_codes_flag_lists_registry(self, capsys):
        from repro.analysis.diagnostics import CODES
        from repro.analysis.lint import main as lint_main

        assert lint_main(["--codes"]) == 0
        out = capsys.readouterr().out
        for code in CODES:
            assert code in out

    def test_targets_required_without_codes(self):
        from repro.analysis.lint import main as lint_main

        with pytest.raises(SystemExit):
            lint_main([])
