"""Tests for the always-on observability layer (PR 10): the metrics
registry, Prometheus round-trip, flight recorder, snapshot publishing and
the ``monitor``/``flight`` CLI, and the parallel-engine stall watchdog.

The contract under test: telemetry is on by default, costs a constant per
*run/command* (never per item), degrades to pure no-ops when disabled, and
a deliberately stalled parallel run produces a watchdog suspicion plus a
flight-recorder tail naming the blocked edge — with no pre-enabled tracer.
"""

import gc
import json
import os
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from repro.apps import ALL_APPS
from repro.errors import EngineDowngradeWarning, StreamItError
from repro.graph.base import Filter
from repro.graph.builtins import ArraySource, CollectSink, Identity
from repro.graph.composites import Pipeline
from repro.obs.__main__ import main as obs_main
from repro.obs.metrics import (
    METRICS,
    Counter,
    Family,
    Histogram,
    MeteredStats,
    MetricsRegistry,
    bucket_exponent,
    obs_dir,
    parse_prometheus,
    prometheus_text,
)
from repro.obs.recorder import (
    FLIGHT,
    FlightRecorder,
    format_flight_event,
    format_flight_tail,
)
from repro.runtime import Interpreter
from repro.runtime.parallel import clear_struct_cache, drain_warm_arenas

from .helpers import Tripwire, open_session


def _sample(name, **labels):
    """One series out of a registry read (``snapshot()`` folds the run
    tallies first; a child read directly may be a fold behind)."""
    family = METRICS.snapshot().get(name, {"samples": []})
    return next((s for s in family["samples"] if s["labels"] == labels), {})


def _counter(name, **labels):
    return _sample(name, **labels).get("value", 0.0)


def _observations(name, **labels):
    return _sample(name, **labels).get("count", 0)


def _run_app(name="FMRadio", engine="batched", periods=4, **opts):
    app = ALL_APPS[name]()
    sink = next(f for f in app.filters() if isinstance(f, CollectSink))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EngineDowngradeWarning)
        interp = Interpreter(app, check=False, engine=engine, **opts)
    try:
        interp.run(periods=periods)
    finally:
        interp.close()
    return list(sink.collected), interp


# ---------------------------------------------------------------------------
# Bucketing
# ---------------------------------------------------------------------------


class TestBucketExponent:
    def test_powers_of_two_map_to_their_own_bucket(self):
        assert bucket_exponent(1.0) == 0
        assert bucket_exponent(2.0) == 1
        assert bucket_exponent(1024.0) == 10
        assert bucket_exponent(0.5) == -1

    def test_values_round_up_to_the_covering_bucket(self):
        assert bucket_exponent(3.0) == 2       # 2**2 = 4 >= 3
        assert bucket_exponent(1.0001) == 1
        assert bucket_exponent(0.3) == -1      # 2**-1 = 0.5 >= 0.3

    def test_clamped_at_both_ends(self):
        assert bucket_exponent(0.0) == -24
        assert bucket_exponent(-5.0) == -24
        assert bucket_exponent(1e-30) == -24
        assert bucket_exponent(1e30) == 40


# ---------------------------------------------------------------------------
# Registry core
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_counter_gauge_histogram_record_and_snapshot(self):
        reg = MetricsRegistry(enabled=True)
        reg.counter("runs", "help text").inc(engine="batched")
        reg.counter("runs").inc(2, engine="batched")
        reg.gauge("depth").set(7, edge="a->b")
        hist = reg.histogram("latency")
        hist.observe(0.5)
        hist.observe(3.0)
        snap = reg.snapshot()
        assert snap["runs"]["type"] == "counter"
        assert snap["runs"]["help"] == "help text"
        assert snap["runs"]["samples"] == [
            {"labels": {"engine": "batched"}, "value": 3.0}
        ]
        assert snap["depth"]["samples"][0]["value"] == 7.0
        [sample] = snap["latency"]["samples"]
        assert sample["count"] == 2
        assert sample["sum"] == 3.5
        # 0.5 -> le="0.5" (2**-1), 3.0 -> le="4" (2**2).
        assert sample["buckets"] == {"0.5": 1, "4": 1}

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry(enabled=True)
        reg.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("x")

    def test_disabled_registry_records_nothing(self):
        reg = MetricsRegistry(enabled=False)
        reg.counter("runs").inc()
        reg.histogram("h").observe(1.0)
        snap = reg.snapshot()
        assert snap["runs"]["samples"] == []
        assert snap["h"]["samples"] == []

    def test_disabled_context_manager_restores(self):
        reg = MetricsRegistry(enabled=True)
        c = reg.counter("runs").labels()
        with reg.disabled():
            c.inc()
            assert not reg.enabled
        assert reg.enabled
        assert c.value == 0.0
        c.inc()
        assert c.value == 1.0

    def test_clear_drops_samples_keeps_families(self):
        reg = MetricsRegistry(enabled=True)
        reg.counter("runs").inc(engine="scalar")
        reg.clear()
        assert reg.snapshot()["runs"]["samples"] == []
        reg.counter("runs").inc(engine="scalar")
        assert reg.snapshot()["runs"]["samples"][0]["value"] == 1.0


class TestMeteredStats:
    def test_positive_deltas_mirror_into_family(self):
        reg = MetricsRegistry(enabled=True)
        fam = reg.counter("cache_total")
        stats = MeteredStats(fam, lambda k: {"event": k}, {"hits": 0, "misses": 0})
        stats["hits"] += 1
        stats["hits"] += 1
        stats["misses"] += 1
        assert stats == {"hits": 2, "misses": 1}
        assert fam.labels(event="hits").value == 2.0
        assert fam.labels(event="misses").value == 1.0

    def test_resets_are_not_mirrored(self):
        reg = MetricsRegistry(enabled=True)
        fam = reg.counter("cache_total")
        stats = MeteredStats(fam, lambda k: {"event": k}, {"hits": 0})
        stats["hits"] += 3
        stats["hits"] = 0  # clear_cache(): the dict resets, the counter stays
        stats["hits"] += 1
        assert stats["hits"] == 1
        assert fam.labels(event="hits").value == 4.0


# ---------------------------------------------------------------------------
# Prometheus exposition and its inverse
# ---------------------------------------------------------------------------


class TestPrometheusRoundTrip:
    def _populated(self):
        reg = MetricsRegistry(enabled=True)
        runs = reg.counter("repro_runs_total", "run_steady() calls by engine")
        runs.inc(3, engine="batched")
        runs.inc(1, engine="parallel")
        reg.gauge("repro_ring_occupancy", "items queued").set(5, edge="a->b")
        hist = reg.histogram("repro_run_seconds", "wall-clock per run")
        for v in (0.001, 0.3, 0.3, 7.0):
            hist.observe(v, engine="batched")
        return reg

    def test_text_round_trips_through_parser(self):
        snap = self._populated().snapshot()
        assert parse_prometheus(prometheus_text(snap)) == snap

    def test_histogram_buckets_are_cumulative_in_text(self):
        text = self._populated().prometheus()
        lines = [l for l in text.splitlines() if l.startswith("repro_run_seconds")]
        buckets = [l for l in lines if "_bucket" in l]
        # Cumulative counts must be non-decreasing, ending at +Inf == count.
        counts = [float(l.rsplit(" ", 1)[1]) for l in buckets]
        assert counts == sorted(counts)
        assert 'le="+Inf"' in buckets[-1]
        assert counts[-1] == 4
        assert any(l.endswith(" 4") for l in lines if "_count" in l)

    def test_help_and_type_lines_present(self):
        text = self._populated().prometheus()
        assert "# HELP repro_runs_total run_steady() calls by engine" in text
        assert "# TYPE repro_runs_total counter" in text
        assert "# TYPE repro_ring_occupancy gauge" in text
        assert "# TYPE repro_run_seconds histogram" in text

    def test_label_escaping_round_trips(self):
        reg = MetricsRegistry(enabled=True)
        reg.counter("odd").inc(reason='he said "no"\nthen left')
        snap = reg.snapshot()
        assert parse_prometheus(prometheus_text(snap)) == snap


# ---------------------------------------------------------------------------
# Flight recorder
# ---------------------------------------------------------------------------


class TestFlightRecorder:
    def test_ring_bounds_and_dropped_count(self):
        rec = FlightRecorder(capacity=4)
        for i in range(10):
            rec.record("tick", n=i)
        assert len(rec.events) == 4
        assert rec.dropped == 6
        assert [e["n"] for e in rec.events] == [6, 7, 8, 9]
        assert rec.payload()["capacity"] == 4
        assert rec.payload()["dropped"] == 6

    def test_tail_filters_by_kind(self):
        rec = FlightRecorder(capacity=16)
        rec.record("run_start", periods=2)
        rec.record("ring_stall", edge="a->b")
        rec.record("run_end", periods=2)
        tail = rec.tail(8, kinds=("ring_stall",))
        assert [e["kind"] for e in tail] == ["ring_stall"]
        assert rec.tail(2)[-1]["kind"] == "run_end"

    def test_format_tail_names_fields(self):
        rec = FlightRecorder(capacity=8)
        rec.record("stall_suspected", edge="slow->sink", side="consumer")
        text = format_flight_tail(rec.events)
        assert "flight recorder (last 1 event(s)):" in text
        assert "stall_suspected" in text
        assert "edge=slow->sink" in text
        assert "side=consumer" in text
        line = format_flight_event(rec.events[0])
        assert line.startswith("[")  # [HH:MM:SS.mmm] prefix

    def test_clear_resets(self):
        rec = FlightRecorder(capacity=2)
        for _ in range(5):
            rec.record("x")
        rec.clear()
        assert len(rec.events) == 0
        assert rec.dropped == 0
        assert format_flight_tail(rec.events) == ""


# ---------------------------------------------------------------------------
# Engine integration: the default-on registry fills up from real runs
# ---------------------------------------------------------------------------


class TestInterpreterIntegration:
    def test_batched_run_bumps_counters_and_histograms(self):
        assert METRICS.enabled, "metrics must be on by default in the suite"
        runs0 = _counter("repro_runs_total", engine="batched")
        sessions0 = _counter("repro_sessions_total", engine="batched")
        items0 = _counter("repro_items_total", engine="batched")
        count0 = _observations("repro_run_seconds", engine="batched")

        out, interp = _run_app("FMRadio", "batched", periods=4)
        assert out
        assert _counter("repro_sessions_total", engine="batched") == sessions0 + 1
        # run(periods=4) = init + one steady run.
        assert _counter("repro_runs_total", engine="batched") >= runs0 + 1
        assert _counter("repro_items_total", engine="batched") > items0
        assert _observations("repro_run_seconds", engine="batched") >= count0 + 1
        kinds = [e["kind"] for e in FLIGHT.tail(16)]
        assert "engine_selected" in kinds or "run_end" in kinds
        assert "run_end" in kinds

    def test_run_end_flight_event_carries_timing(self):
        _run_app("FIR", "batched", periods=3)
        [end] = FLIGHT.tail(1, kinds=("run_end",))
        assert end["engine"] == "batched"
        assert end["periods"] == 3
        assert end["seconds"] >= 0.0

    @pytest.mark.parametrize("engine", ["scalar", "batched", "codegen", "parallel"])
    def test_nonpositive_run_steady_records_nothing(self, engine):
        """``run_steady(periods <= 0)`` runs nothing on any engine, so the
        monotonic counters must not step (it used to add ``periods`` — and
        ``periods x items`` — to them) and no run_start/run_end pair lands
        in the flight ring."""
        app = ALL_APPS["FilterBank"]()
        sink = next(f for f in app.filters() if isinstance(f, CollectSink))
        with Interpreter(
            app, check=False, engine=engine, strategy="softpipe", cores=2
        ) as interp:
            interp.run(periods=3)
            used = interp.engine_used
            assert used == engine

            def books():
                return (
                    [
                        _counter(name, engine=used)
                        for name in ("repro_runs_total", "repro_periods_total", "repro_items_total")
                    ],
                    [
                        _observations(name, engine=used)
                        for name in ("repro_run_seconds", "repro_run_items")
                    ],
                    dict(interp.fired),
                    list(sink.collected),
                    FLIGHT.tail(FLIGHT.capacity),
                )

            before = books()
            interp.run_steady(0)
            interp.run_steady(-3)
            assert books() == before
            interp.run_steady(1)  # and the session carries on
            after = books()
            assert after[0] == [before[0][0] + 1, before[0][1] + 1, after[0][2]]
            assert after[0][2] > before[0][2] and len(after[3]) > len(before[3])

    def test_downgrade_bumps_code_labelled_counter_and_flight(self):
        before = _counter("repro_engine_downgrades_total", code="SL304")
        app = Pipeline(
            ArraySource([float(v) for v in np.arange(8.0)]),
            Identity(),
            CollectSink(),
        )
        with pytest.warns(EngineDowngradeWarning, match="SL304"):
            interp = Interpreter(app, engine="parallel", strategy="softpipe", cores=1)
        interp.run(periods=2)
        interp.close()
        assert _counter("repro_engine_downgrades_total", code="SL304") == before + 1
        [event] = FLIGHT.tail(1, kinds=("engine_downgrade",))
        assert event["code"] == "SL304"
        assert event["reason"]

    def test_plan_cache_counters_mirror_stats_dict(self):
        from repro.runtime.plan import plan_cache_stats

        mirrored0 = _counter("repro_plan_cache_total", event="hits") + _counter(
            "repro_plan_cache_total", event="misses"
        )
        _run_app("FIR", "batched", periods=2)
        _run_app("FIR", "batched", periods=2)
        mirrored1 = _counter("repro_plan_cache_total", event="hits") + _counter(
            "repro_plan_cache_total", event="misses"
        )
        assert mirrored1 > mirrored0
        assert plan_cache_stats["hits"] + plan_cache_stats["misses"] >= 1

    def test_disabled_registry_freezes_counters_not_output(self):
        baseline, _ = _run_app("FIR", "batched", periods=3)
        runs0 = _counter("repro_runs_total", engine="batched")
        with METRICS.disabled():
            out, _ = _run_app("FIR", "batched", periods=3)
        assert out == baseline
        assert _counter("repro_runs_total", engine="batched") == runs0

    def test_bound_children_report_the_same_series(self, tmp_path, monkeypatch):
        """The interpreter tallies its calls and the registry folds them on
        read; the series must read as when every call went through
        ``Family.inc(engine=...)``."""
        monkeypatch.setenv("REPRO_CODEGEN_CACHE", str(tmp_path / "cgc"))

        def series(engine):
            return (
                _counter("repro_runs_total", engine=engine),
                _counter("repro_periods_total", engine=engine),
                _counter("repro_items_total", engine=engine),
                _observations("repro_run_seconds", engine=engine),
                _observations("repro_run_items", engine=engine),
            )

        def moved(engine, before):
            return tuple(b - a for a, b in zip(before, series(engine)))

        want, _ = _run_app("FIR", "scalar", periods=10)
        app = ALL_APPS["FIR"]()
        sink = next(f for f in app.filters() if isinstance(f, CollectSink))
        interp = Interpreter(app, check=False, engine="codegen")
        interp.run_init()
        per_period = interp._items_per_period
        codegen0, batched0 = series("codegen"), series("batched")
        for _ in range(3):
            interp.run_steady(1)
        assert interp.engine_used == "codegen"
        assert moved("codegen", codegen0) == (3, 3, 3 * per_period, 3, 3)
        assert moved("batched", batched0) == (0, 0, 0, 0, 0)

        # Mid-session downgrade (what _materialize does on Unsupported).
        interp.plan.codegen_active = False
        interp.run_steady(2)
        interp.run_steady(2)
        assert interp.engine_used == "batched"
        assert moved("codegen", codegen0) == (3, 3, 3 * per_period, 3, 3)
        assert moved("batched", batched0) == (2, 4, 4 * per_period, 2, 2)

        METRICS.set_enabled(False)
        try:
            interp.run_steady(1)
            assert moved("batched", batched0) == (2, 4, 4 * per_period, 2, 2)
        finally:
            METRICS.set_enabled(True)
        interp.run_steady(1)
        assert moved("batched", batched0) == (3, 5, 5 * per_period, 3, 3)

        # clear() drops every series; calls made before it must not leak
        # into the ones that start after it.
        METRICS.clear()
        interp.run_steady(1)
        assert series("batched") == (1, 1, per_period, 1, 1)
        assert series("codegen") == (0, 0, 0, 0, 0)
        interp.close()
        assert list(sink.collected) == want

    def test_live_registry_prometheus_parses(self):
        _run_app("FIR", "batched", periods=2)
        text = METRICS.prometheus()
        families = parse_prometheus(text)
        assert "repro_runs_total" in families
        assert families["repro_runs_total"]["type"] == "counter"
        assert "repro_run_seconds" in families
        assert families["repro_run_seconds"]["type"] == "histogram"


# ---------------------------------------------------------------------------
# The pull model: a steady call writes nothing, a read folds everything
# ---------------------------------------------------------------------------


_GATE_ENTERED = threading.Event()
_GATE_OPEN = threading.Event()


class _Gate(Filter):
    """Blocks its ``hold``-th firing until the test opens the gate."""

    def __init__(self, hold: int) -> None:
        super().__init__(pop=1, push=1, name="gate")
        self.hold = hold
        self.count = 0

    def work(self) -> None:
        self.count += 1
        if self.count == self.hold:
            _GATE_ENTERED.set()
            _GATE_OPEN.wait(30)
        self.push(self.pop())


def _chain(middle):
    data = [float(v) for v in np.arange(8.0)]
    return Pipeline(ArraySource(data), middle, CollectSink())


class TestSteadyCallWritesNothing:
    @pytest.mark.parametrize("engine", ["batched", "codegen"])
    def test_two_hundred_calls_touch_no_family_no_ring_no_environment(
        self, engine, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CODEGEN_CACHE", str(tmp_path / "cgc"))
        with open_session(ALL_APPS["BitonicSort"](), "scalar") as scalar:
            scalar.run(203)
            want = [scalar.fired[node] for node in scalar.graph.nodes]
        interp = open_session(ALL_APPS["BitonicSort"](), engine)
        interp.run(3)
        assert interp.engine_used == engine
        runs0 = _counter("repro_runs_total", engine=engine)
        # A publish now: the next is a whole default interval away.
        assert METRICS.publish(str(tmp_path)) is not None

        touched = []

        def counting(owner, name):
            real = getattr(owner, name)

            def wrapper(*args, **kwargs):
                touched.append(name)
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        counting(FlightRecorder, "record")
        counting(Counter, "inc")
        counting(Histogram, "observe")
        counting(Family, "labels")
        counting(os.environ, "get")

        class Touched(dict):
            def __getitem__(self, key):
                touched.append("fired[]")
                return dict.__getitem__(self, key)

            def __setitem__(self, key, value):
                touched.append("fired[]=")
                dict.__setitem__(self, key, value)

        interp._fired = Touched(interp.fired)
        monkeypatch.setattr(
            Filter,
            "_rt_owner",
            property(lambda f: touched.append("_rt_owner") or vars(f)["_rt_owner"]),
            raising=False,
        )
        for _ in range(200):
            interp.run_steady(1)
        assert touched == []

        # Nothing was lost by not writing it down.
        assert [interp.fired[node] for node in interp.graph.nodes] == want
        assert touched.count("fired[]=") == len(interp.graph.nodes)
        monkeypatch.undo()
        assert _counter("repro_runs_total", engine=engine) == runs0 + 200
        [end] = FLIGHT.tail(1, kinds=("run_end",))
        assert (end["engine"], end["runs"], end["periods"]) == (engine, 200, 1)
        interp.close()


class TestReadsAreUnchanged:
    """One scripted set of sessions; every way of reading the registry must
    carry exactly the counts the script implies, per engine label."""

    FAMILIES = ("repro_runs_total", "repro_periods_total", "repro_items_total")

    def _expect(self, want, interp, calls):
        runs, periods, items, volumes = want.setdefault(
            interp.engine_used, [0, 0, 0, {}]
        )
        for n in calls:
            moved = n * interp._items_per_period
            le = str(2 ** bucket_exponent(moved))
            volumes[le] = volumes.get(le, 0) + 1
            runs, periods, items = runs + 1, periods + n, items + moved
        want[interp.engine_used] = [runs, periods, items, volumes]

    def _drive(self, want, interp, calls):
        interp.run_init()
        for n in calls:
            interp.run_steady(n)
        self._expect(want, interp, calls)

    def _check(self, want, families):
        for engine, (runs, periods, items, volumes) in want.items():
            def series(name):
                [sample] = [
                    s for s in families[name]["samples"]
                    if s["labels"] == {"engine": engine}
                ]
                return sample

            got = [series(name)["value"] for name in self.FAMILIES]
            assert got == [runs, periods, items], engine
            seconds, volume = series("repro_run_seconds"), series("repro_run_items")
            assert seconds["count"] == volume["count"] == runs, engine
            assert sum(seconds["buckets"].values()) == runs, engine
            assert seconds["sum"] >= 0.0
            assert volume["sum"] == items, engine
            assert volume["buckets"] == volumes, engine
        for name in self.FAMILIES:
            labelled = {s["labels"]["engine"] for s in families[name]["samples"]}
            assert labelled == set(want), name

    def _check_every_read(self, want, tmp_path):
        self._check(want, METRICS.snapshot())
        self._check(want, parse_prometheus(METRICS.prometheus()))
        path = METRICS.publish(str(tmp_path))
        assert path == str(tmp_path / f"obs-{os.getpid()}.json")
        with open(path) as fh:
            self._check(want, json.load(fh)["metrics"])

    def test_scripted_sessions(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CODEGEN_CACHE", str(tmp_path / "cgc"))
        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path))
        # Publish at every boundary.
        monkeypatch.setattr("repro.obs.metrics.PUBLISH_S", 0.0)
        METRICS.clear()
        FLIGHT.clear()
        stop = threading.Event()

        def watchdog():  # what StallWatchdog.run does between its samples
            while not stop.wait(0.001):
                METRICS.maybe_publish()

        thread = threading.Thread(target=watchdog, daemon=True)
        thread.start()
        try:
            self._script(tmp_path)
        finally:
            stop.set()
            _GATE_OPEN.set()
            thread.join(10)
        assert not thread.is_alive()
        assert not list(tmp_path.glob("*.tmp*"))

    def _script(self, tmp_path):
        want = {}
        errors0 = _counter("repro_run_errors_total", engine="batched")
        with open_session(ALL_APPS["FIR"](), "scalar") as interp:
            self._drive(want, interp, [2, 1, 1, 1])
        with open_session(ALL_APPS["FMRadio"](), "batched") as interp:
            self._drive(want, interp, [1, 1, 1, 1, 1, 4])
        with open_session(ALL_APPS["FilterBank"](), "parallel") as interp:
            self._drive(want, interp, [3, 1])

        # The downgrade of test_bound_children_report_the_same_series, and
        # a window with the registry off (those calls are nobody's).
        interp = open_session(ALL_APPS["FIR"](), "codegen")
        self._drive(want, interp, [1, 1, 1])
        assert interp.engine_used == "codegen"
        interp.plan.codegen_active = False
        self._drive(want, interp, [2, 2])
        assert interp.engine_used == "batched"
        with METRICS.disabled():
            interp.run_steady(5)
        self._drive(want, interp, [1])
        interp.close()

        # A work() that raises: its call counts as an error, not as a run.
        interp = open_session(_chain(Tripwire(4)), "batched")
        self._drive(want, interp, [2])
        with pytest.raises(ValueError, match="tripped"):
            interp.run_steady(3)
        interp.close()
        assert _counter("repro_run_errors_total", engine="batched") == errors0 + 1
        kinds = [e["kind"] for e in FLIGHT.tail(3)]
        assert kinds[-2:] == ["run_start", "run_error"], kinds
        assert FLIGHT.tail(1)[0]["error"] == "ValueError"

        # A session dropped without close() keeps its counts.
        interp = open_session(ALL_APPS["FIR"](), "batched")
        self._drive(want, interp, [2, 3])
        del interp
        gc.collect()
        self._check_every_read(want, tmp_path)
        [end] = FLIGHT.tail(1, kinds=("run_end",))
        # (runs is 1 or 2: the publisher thread may have folded in between.)
        assert (end["engine"], end["periods"]) == ("batched", 3)
        assert end["runs"] in (1, 2) and end["seconds"] >= 0.0

        # A run blocked inside work() shows as run_start, then as run_end.
        _GATE_ENTERED.clear()
        _GATE_OPEN.clear()
        interp = open_session(_chain(_Gate(3)), "batched")
        self._drive(want, interp, [2])
        runner = threading.Thread(target=interp.run_steady, args=(6,), daemon=True)
        runner.start()
        assert _GATE_ENTERED.wait(30)
        last = FLIGHT.tail(1)[0]
        assert (last["kind"], last["periods"]) == ("run_start", 6)
        assert [e["kind"] for e in FLIGHT.tail(8)].count("run_start") == 2
        _GATE_OPEN.set()
        runner.join(30)
        assert not runner.is_alive()
        self._expect(want, interp, [6])
        last = FLIGHT.tail(1)[0]
        assert (last["kind"], last["runs"], last["periods"]) == ("run_end", 1, 6)
        interp.close()
        self._check_every_read(want, tmp_path)

        # clear() between two runs: the calls before it are gone for good.
        interp = open_session(ALL_APPS["FIR"](), "batched")
        self._drive(want, interp, [4])
        METRICS.clear()
        want = {}
        self._drive(want, interp, [1, 2])
        interp.close()
        self._check_every_read(want, tmp_path)


class TestConcurrentPublish:
    def test_two_publishing_threads_never_tear_a_snapshot(self, tmp_path):
        METRICS.counter("repro_test_dirty_total").inc()
        results, torn = [], []

        def publisher():
            for _ in range(200):
                results.append(METRICS.publish(str(tmp_path)))

        threads = [threading.Thread(target=publisher, daemon=True) for _ in range(2)]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            while any(thread.is_alive() for thread in threads):
                for path in tmp_path.glob("obs-*.json"):
                    try:
                        json.loads(path.read_text())
                    except ValueError as exc:
                        torn.append(exc)
                time.sleep(0)
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert torn == []
        path = str(tmp_path / f"obs-{os.getpid()}.json")
        assert results == [path] * 400
        assert json.loads((tmp_path / f"obs-{os.getpid()}.json").read_text())["pid"]
        assert sorted(p.name for p in tmp_path.iterdir()) == [os.path.basename(path)]


# ---------------------------------------------------------------------------
# Publishing and the monitor/flight CLI
# ---------------------------------------------------------------------------


class TestPublishAndCli:
    @pytest.fixture()
    def published(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path))
        _run_app("FIR", "batched", periods=2)
        path = METRICS.publish()
        assert path is not None and path.startswith(str(tmp_path))
        return tmp_path

    def test_obs_dir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path))
        assert obs_dir() == str(tmp_path)

    def test_publish_writes_snapshot_with_metrics_and_flight(self, published):
        [snap_file] = list(published.glob("obs-*.json"))
        snap = json.loads(snap_file.read_text())
        assert snap["pid"]
        assert "repro_runs_total" in snap["metrics"]
        assert isinstance(snap["flight"]["events"], list)

    def test_maybe_publish_honours_zero_interval(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path))
        monkeypatch.setattr("repro.obs.metrics.PUBLISH_S", 0.0)
        METRICS.counter("repro_test_dirty_total").inc()
        assert METRICS.maybe_publish() is not None
        assert list(tmp_path.glob("obs-*.json"))

    def test_failing_publish_is_retried_per_interval_not_per_call(
        self, tmp_path, monkeypatch
    ):
        blocker = tmp_path / "file"
        blocker.write_text("")
        monkeypatch.setenv("REPRO_OBS_DIR", str(blocker / "sub"))  # makedirs fails
        monkeypatch.setattr(METRICS, "_last_publish", float("-inf"))
        monkeypatch.setattr(METRICS, "_publish_due", 0.0)
        attempts = []
        real = MetricsRegistry.publish

        def publish(self, directory=None):
            attempts.append(real(self, directory))
            return attempts[-1]

        monkeypatch.setattr(MetricsRegistry, "publish", publish)
        with open_session(ALL_APPS["FIR"](), "batched") as interp:
            interp.run(1)
            for _ in range(50):
                interp.run_steady(1)
        # The first run boundary and close(); not one write per call.
        assert attempts == [None, None]

    def test_monitor_once_renders_page(self, published, capsys):
        assert obs_main(["monitor", "--once", "--dir", str(published)]) == 0
        out = capsys.readouterr().out
        assert "repro.obs monitor" in out
        assert "repro_runs_total" in out

    def test_monitor_once_json_is_machine_readable(self, published, capsys):
        assert obs_main(["monitor", "--once", "--json", "--dir", str(published)]) == 0
        snap = json.loads(capsys.readouterr().out)
        assert "metrics" in snap and "flight" in snap
        assert snap["metrics"]["repro_runs_total"]["type"] == "counter"

    def test_flight_cli_dumps_ring(self, published, capsys):
        assert obs_main(["flight", "--dir", str(published)]) == 0
        out = capsys.readouterr().out
        assert "flight recorder" in out
        assert obs_main(["flight", "--json", "--dir", str(published)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["capacity"] >= 1

    def test_missing_snapshot_exits_one_with_message(self, tmp_path, capsys):
        empty = tmp_path / "nothing"
        empty.mkdir()
        assert obs_main(["monitor", "--once", "--dir", str(empty)]) == 1
        assert "no metrics snapshot" in capsys.readouterr().err
        assert obs_main(["flight", "--dir", str(empty)]) == 1
        assert "no snapshot" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Stall watchdog: a deliberately starved parallel run, no tracer pre-armed
# ---------------------------------------------------------------------------


class _NapFilter(Filter):
    """Stalls its consumers once, long past the shortened ring deadline.

    The nap duration mixes in mutated state so the rate analyzer keeps the
    rates provably static (same idiom as the parallel-runtime stall tests).
    """

    def __init__(self, naps: float) -> None:
        super().__init__(pop=1, push=1, name="slow")
        self.naps = naps
        self.count = 0

    def work(self) -> None:
        self.count += 1
        if self.count == 3:
            time.sleep(self.naps + 0.0 * self.count)
        self.push(self.pop())


def _nap_chain():
    data = [float(v) for v in np.arange(16.0)]
    return Pipeline(
        ArraySource(data), Identity(), _NapFilter(3.0), Identity(), CollectSink()
    )


class TestStallWatchdog:
    def test_starved_run_yields_suspicion_and_flight_tail_names_edge(
        self, monkeypatch
    ):
        monkeypatch.setattr("repro.runtime.parallel.RING_STALL_S", 0.4)
        monkeypatch.setattr("repro.obs.watchdog.INTERVAL_S", 0.05)
        drain_warm_arenas()
        clear_struct_cache()
        FLIGHT.clear()
        def suspected():
            family = METRICS.snapshot()["repro_watchdog_stall_suspected_total"]
            return sum(s["value"] for s in family["samples"])

        suspected0 = suspected()
        app = _nap_chain()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EngineDowngradeWarning)
            interp = Interpreter(app, engine="parallel", strategy="softpipe", cores=2)
        if interp.engine_used != "parallel":
            interp.close()
            pytest.skip("parallel engine downgraded on this host")
        assert interp.tracer.enabled is False, "no pre-enabled tracer in this test"
        with pytest.raises(StreamItError) as excinfo:
            interp.run(periods=4)
        interp.close()
        message = str(excinfo.value)

        # The watchdog sampled the arena and flagged the frozen ring well
        # before the stall deadline turned it into an error.
        suspicions = [e for e in FLIGHT.events if e["kind"] == "stall_suspected"]
        assert suspicions, "watchdog never suspected the starved ring"
        for event in suspicions:
            assert event["edge"]
            assert event["side"] in ("producer", "consumer")
            assert event["suspect"] in ("starvation", "convoy/backpressure")
            assert event["need"] >= 1
        assert suspected() > suspected0

        # The error text carries the flight tail, and the tail names at
        # least one blocked edge — the post-mortem needs no trace file.
        assert "flight recorder" in message
        edges = {e["edge"] for e in suspicions}
        edges |= {
            e.get("edge")
            for e in FLIGHT.events
            if e["kind"] == "ring_stall" and e.get("edge")
        }
        assert any(edge and str(edge) in message for edge in edges)

    def test_watchdog_gauges_update_on_healthy_run(self, monkeypatch):
        monkeypatch.setattr("repro.obs.watchdog.INTERVAL_S", 0.02)
        drain_warm_arenas()
        clear_struct_cache()
        ticks_before = _counter("repro_watchdog_ticks_total")
        steady_before = _counter("repro_parallel_commands_total", kind="steady")
        out, interp = _run_app(
            "FMRadio", "parallel", periods=16, strategy="softpipe", cores=2
        )
        if interp.engine_used != "parallel":
            pytest.skip("parallel engine downgraded on this host")
        assert out
        assert interp.parallel._watchdog is None, "watchdog stopped on close"
        assert _counter("repro_watchdog_ticks_total") > ticks_before
        assert (
            _counter("repro_parallel_commands_total", kind="steady")
            == steady_before + 1
        )
