"""The batched engine's contract: same outputs as the scalar interpreter.

The equivalence test runs every application in the suite under both engines
and requires *exact* equality — the batched kernels for data movement and
the loop-sequential app filters preserve each firing's floating-point
operation order, so there is no tolerance to hide behind.  ``LinearFilter``
is the one documented exception (GEMM vs GEMV kernel selection inside BLAS)
and is covered by a tight ``allclose`` unit test instead.
"""

import warnings

import numpy as np
import pytest

from repro.apps import ALL_APPS, channelvocoder, common, radar
from repro.apps.common import FIRFilter
from repro.errors import EngineDowngradeWarning, StreamItError
from repro.graph import ArraySource, Filter, Pipeline
from repro.graph.builtins import CollectSink
from repro.linear.linrep import LinearFilter, LinearRep
from repro.runtime import ArrayChannel, Channel, Interpreter, compile_and_run
from repro.runtime.kernels import TABLE_MAX_FIRINGS, ordered_mac
from repro.runtime.plan import _CHUNK_ITEM_CAP

from .helpers import FIR, Gain, Tripwire, open_session, run_calls


def _run(builder, engine: str, periods: int):
    app = builder()
    sink = next((f for f in app.filters() if isinstance(f, CollectSink)), None)
    interp = Interpreter(app, check=False, engine=engine)
    interp.run(periods)
    return (list(sink.collected) if sink is not None else []), interp


@pytest.mark.parametrize("app_name", sorted(ALL_APPS), ids=str)
def test_batched_matches_scalar_exactly(app_name):
    builder = ALL_APPS[app_name]
    scalar, _ = _run(builder, "scalar", 3)
    batched, interp = _run(builder, "batched", 3)
    assert len(scalar) > 0
    assert batched == scalar  # bit-for-bit, not approximately


@pytest.mark.parametrize("app_name", ["FIR", "FilterBank", "Oversampler", "DToA"])
def test_fired_counts_match_scalar(app_name):
    _, scalar = _run(ALL_APPS[app_name], "scalar", 4)
    _, batched = _run(ALL_APPS[app_name], "batched", 4)
    scalar_counts = sorted((node.name, n) for node, n in scalar.fired.items())
    batched_counts = sorted((node.name, n) for node, n in batched.fired.items())
    assert batched_counts == scalar_counts


def test_superbatch_equals_per_period_execution():
    builder = ALL_APPS["FilterBank"]
    reference, ref_interp = _run(builder, "batched", 7)
    assert ref_interp.plan is not None and ref_interp.plan.chunk_periods >= 7

    app = builder()
    sink = next(f for f in app.filters() if isinstance(f, CollectSink))
    interp = Interpreter(app, check=False, engine="batched")
    interp.plan.chunk_periods = 1  # force period-at-a-time batching
    interp.run(7)
    assert list(sink.collected) == reference


def test_chunked_superbatch_equals_unchunked():
    builder = ALL_APPS["Oversampler"]
    reference, _ = _run(builder, "batched", 9)
    app = builder()
    sink = next(f for f in app.filters() if isinstance(f, CollectSink))
    interp = Interpreter(app, check=False, engine="batched")
    interp.plan.chunk_periods = 2  # force several chunks over 9 periods
    interp.run(9)
    assert list(sink.collected) == reference


def test_messaging_app_runs_batched():
    builder = ALL_APPS["FreqHopRadio"]
    scalar, _ = _run(builder, "scalar", 6)
    batched, interp = _run(builder, "batched", 6)
    assert interp.has_messaging
    assert interp.plan is not None  # portals no longer force the scalar path
    assert interp.engine_used == "batched"
    # Delivery points bound each pass: the endpoints are blocks of their own.
    assert {"sender", "receiver"} <= {b.kind for b in interp.plan.blocks}
    assert isinstance(next(iter(interp.channels.values())), ArrayChannel)
    assert batched == scalar


def test_unknown_engine_rejected():
    with pytest.raises(StreamItError):
        Interpreter(ALL_APPS["FIR"](), engine="vectorized")


def test_compile_and_run_returns_finished_interpreter():
    app = ALL_APPS["FIR"]()
    sink = next(f for f in app.filters() if isinstance(f, CollectSink))
    interp = compile_and_run(app, periods=5)
    assert interp.engine == "batched"
    assert interp.plan is not None
    assert len(sink.collected) > 0


# -- chunk_periods: static heuristic and run-time override --------------------


def _pipeline():
    return Pipeline(
        ArraySource([float(i) for i in range(8)]),
        FIR([0.25, 0.5, 0.25], name="fir"),
        Gain(2.0, name="gain"),
        CollectSink(),
    )


class _WidePush(Filter):
    """Pushes more items per firing than the 512 KiB chunk cap covers."""

    def __init__(self, width: int) -> None:
        super().__init__(pop=1, push=width)
        self.width = width

    def work(self) -> None:
        x = self.pop()
        for _ in range(self.width):
            self.push(x)


class _WideSink(Filter):
    def __init__(self, width: int) -> None:
        super().__init__(pop=width, push=0)
        self.width = width

    def work(self) -> None:
        for _ in range(self.width):
            self.pop()


class TestChunkPeriods:
    """Edge cases of the static chunk heuristic and its run-time override."""

    def test_tiny_graph_gets_full_cap(self):
        _, interp = _run(_pipeline, "batched", 2)
        # All edges move 1 item/period, so the cap divides down to itself.
        assert interp.plan.chunk_periods == _CHUNK_ITEM_CAP

    def test_huge_rate_edge_clamps_to_one(self):
        width = _CHUNK_ITEM_CAP * 2

        def build():
            return Pipeline(
                ArraySource([1.0, 2.0]), _WidePush(width), _WideSink(width)
            )

        _, interp = _run(build, "batched", 2)
        # One period already overflows the per-edge cap: max(1, cap // width).
        assert interp.plan.chunk_periods == 1

    def test_feedback_segmented_plan_still_chunks(self):
        from repro.graph import Identity, joiner_roundrobin, roundrobin
        from repro.graph.composites import FeedbackLoop

        def build():
            loop = FeedbackLoop(
                joiner_roundrobin(1, 1),
                Gain(0.5),
                roundrobin(1, 1),
                Identity(),
                delay=2,
                init_path=lambda i: 0.0,
            )
            return Pipeline(
                ArraySource([1.0, 2.0, 3.0]), loop, CollectSink()
            )

        _, interp = _run(build, "batched", 4)
        plan = interp.plan
        assert [b.kind for b in plan.blocks].count("core") == 1
        assert plan.chunk_periods >= 1
        # The override is an attribute on segmented plans too.
        plan.chunk_periods = 7
        assert plan.chunk_periods == 7

    def test_manual_override_is_honored_by_run(self):
        def run_with_chunk(chunk):
            app = _pipeline()
            sink = next(f for f in app.filters() if isinstance(f, CollectSink))
            interp = Interpreter(app, check=False, engine="batched")
            interp.plan.chunk_periods = chunk
            interp.run(periods=9)
            interp.close()
            return list(sink.collected)

        scalar, _ = _run(_pipeline, "scalar", 9)
        assert run_with_chunk(1) == scalar
        assert run_with_chunk(4) == scalar
        assert run_with_chunk(10_000) == scalar


# -- work_batch kernel units --------------------------------------------------


def _fresh_io(filt, items):
    filt.input = ArrayChannel(name="in")
    filt.output = ArrayChannel(name="out")
    filt.input.push_block(np.asarray(items, dtype=np.float64))


def test_fir_work_batch_bit_identical():
    rng = np.random.default_rng(7)
    coeffs = rng.standard_normal(9)
    data = rng.standard_normal(64)
    n = 20

    scalar = FIRFilter(coeffs, decimation=2)
    _fresh_io(scalar, data)
    for _ in range(n):
        scalar.work()

    batched = FIRFilter(coeffs, decimation=2)
    _fresh_io(batched, data)
    batched.work_batch(n)

    assert batched.output.snapshot() == scalar.output.snapshot()  # exact
    assert batched.input.popped_count == scalar.input.popped_count


def test_linear_filter_work_batch_allclose():
    rng = np.random.default_rng(11)
    rep = LinearRep(rng.standard_normal((3, 8)), rng.standard_normal(3), pop=2)
    data = rng.standard_normal(80)
    n = 25

    scalar = LinearFilter(rep)
    _fresh_io(scalar, data)
    for _ in range(n):
        scalar.work()

    batched = LinearFilter(rep)
    _fresh_io(batched, data)
    batched.work_batch(n)

    np.testing.assert_allclose(
        batched.output.snapshot(), scalar.output.snapshot(), rtol=1e-13, atol=1e-13
    )
    assert batched.input.popped_count == scalar.input.popped_count


# -- one period at a time vs one long run ------------------------------------
#
# ``ordered_mac`` picks its form from the firing count, so how a stream is
# chopped into run_steady calls now decides which code computes each item.
# Chopping must still never show in the output.


@pytest.mark.parametrize("engine", ["batched", "codegen"])
@pytest.mark.parametrize(
    "app_name",
    ["FIR", "FMRadio", "FilterBank", "ChannelVocoder", "DCT", "Radar", "DToA"],
)
def test_one_period_calls_equal_one_long_run(app_name, engine, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CODEGEN_CACHE", str(tmp_path / "cgc"))
    periods = TABLE_MAX_FIRINGS + 22
    firings = []

    def recording(window, coeffs, n, stride):
        firings.append(n)
        return ordered_mac(window, coeffs, n, stride)

    for module in (common, channelvocoder, radar):
        monkeypatch.setattr(module, "ordered_mac", recording)

    def drive(engine, calls):
        app = ALL_APPS[app_name]()
        sink = next(f for f in app.filters() if isinstance(f, CollectSink))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EngineDowngradeWarning)
            with Interpreter(app, check=False, engine=engine) as interp:
                interp.run_init()
                del firings[:]
                for count in calls:
                    interp.run_steady(count)
                assert engine == "scalar" or interp.engine_used == engine
        return np.array(sink.collected), sorted(set(firings))

    want, _ = drive("scalar", [periods])
    long_run, long_firings = drive(engine, [periods])
    chopped, chopped_firings = drive(engine, [1] * periods)
    # The long run took the tap loop, the one-period calls the table.
    assert long_firings and min(long_firings) > TABLE_MAX_FIRINGS
    assert chopped_firings and max(chopped_firings) <= TABLE_MAX_FIRINGS
    for got in (long_run, chopped):
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


# -- cross-wiring regression --------------------------------------------------


def test_second_interpreter_invalidates_first():
    app = ALL_APPS["FIR"]()
    sink = next(f for f in app.filters() if isinstance(f, CollectSink))
    first = Interpreter(app, check=False)
    first.run(1)
    # Constructing a second interpreter rebinds the shared filters ...
    second = Interpreter(app, check=False, engine="batched")
    # ... so the stale interpreter must refuse to run rather than
    # cross-wire both onto a mix of channel sets, naming a filter it lost.
    named = repr(first.graph.filter_nodes()[0].filter.name)
    with pytest.raises(StreamItError, match="re-bound") as refusal:
        first.run_steady(1)
    assert named in str(refusal.value)
    second.run(1)
    assert len(sink.collected) > 0

    # Closing the owner hands nothing back, and a third binding revokes the
    # second without reviving the first.
    second.close()
    third = Interpreter(app, check=False, engine="codegen")
    for stale in (first, second):
        with pytest.raises(StreamItError, match="re-bound") as refusal:
            stale.run_steady(1)
        assert named in str(refusal.value)
    before = len(sink.collected)
    third.run(2)
    third.close()
    assert len(sink.collected) > before

    # An interpreter that never lost a filter keeps running after another
    # stream's interpreter comes and goes.
    other = Interpreter(ALL_APPS["FIR"](), check=False, engine="batched")
    other.run(1)
    third.run_steady(1)


# -- firing counts settle when read -------------------------------------------


def _by_name(interp, fired):
    """Counts in graph order (auto-numbered names differ between builds)."""
    assert set(fired) == set(interp.graph.nodes)
    return [(node.name.rstrip("0123456789"), fired[node]) for node in interp.graph.nodes]


@pytest.mark.parametrize("engine", ["batched", "codegen", "parallel"])
@pytest.mark.parametrize("app_name", ["FIR", "DToA", "BitonicSort", "FreqHopRadio"])
def test_fired_settles_on_read(app_name, engine, tmp_path, monkeypatch):
    """``fired`` is credited whole periods when somebody reads it; however a
    run is chopped, every way of reading it agrees with the scalar count."""
    monkeypatch.setenv("REPRO_CODEGEN_CACHE", str(tmp_path / "cgc"))
    builder, periods, first = ALL_APPS[app_name], 7, 3
    _, scalar = run_calls(builder, "scalar", [periods])
    want = _by_name(scalar, scalar.fired)
    downgrade = 1 if engine == "codegen" else None  # mid-session, to batched
    chopped = ([1] * periods, None), ([periods], None), ([first, periods - first], downgrade)
    for calls, downgrade_before in chopped:
        _, interp = run_calls(builder, engine, calls, downgrade_before)
        assert _by_name(interp, interp.fired) == want
        assert _by_name(interp, dict(interp.fired)) == want
        assert [
            interp.firings(node.filter) for node in interp.graph.filter_nodes()
        ] == [scalar.firings(node.filter) for node in scalar.graph.filter_nodes()]
    with open_session(builder(), engine) as interp:  # a read between the calls
        interp.run(first)
        assert sum(interp.fired.values()) < sum(n for _, n in want)
        interp.run_steady(periods - first)
        assert _by_name(interp, interp.fired) == want


@pytest.mark.filterwarnings("ignore::repro.errors.EngineDowngradeWarning")
@pytest.mark.parametrize("engine", ["batched", "codegen", "parallel"])
def test_a_run_that_raises_is_credited_nothing(engine, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CODEGEN_CACHE", str(tmp_path / "cgc"))

    def builder():
        data = [float(v) for v in range(8)]
        return Pipeline(ArraySource(data), Gain(2.0), Tripwire(6), CollectSink())

    _, scalar = run_calls(builder, "scalar", [3])
    want = _by_name(scalar, scalar.fired)
    with open_session(builder(), engine) as interp:
        interp.run(1)
        interp.run_steady(2)
        with pytest.raises((ValueError, StreamItError), match="tripped"):
            interp.run_steady(4)
        assert _by_name(interp, interp.fired) == want
