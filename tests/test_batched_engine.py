"""The batched engine's contract: same outputs as the scalar interpreter.

The equivalence test runs every application in the suite under both engines
and requires *exact* equality — the batched kernels for data movement and
the loop-sequential app filters preserve each firing's floating-point
operation order, so there is no tolerance to hide behind.  ``LinearFilter``
is the one documented exception (GEMM vs GEMV kernel selection inside BLAS)
and is covered by a tight ``allclose`` unit test instead.
"""

import functools
import itertools
import math
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
from repro.runtime.vectorize import LIFT_MIN_FIRINGS, VEC_MATH
from repro.vecmath import EXACT_UFUNCS, VECTOR_SAFE_MATH

from .helpers import FIR, Gain, Tripwire, edge_history, open_session, run_calls


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
    assert interp.engine_used == "codegen"  # "batched" names the same engine
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
                assert engine == "scalar" or interp.engine_used == "codegen"
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


def _pushed(interp):
    """Items every filter has pushed, in graph order."""
    return [interp.items_pushed(node.filter) for node in interp.graph.filter_nodes()]


_SETTLE_PERIODS = 7
#: The apps every engine is checked on (the parallel engine only these).
_SETTLE_APPS = ["FIR", "DToA", "BitonicSort", "FreqHopRadio"]


@functools.lru_cache(maxsize=None)
def _scalar_boundaries(app_name):
    """The scalar engine's ``(items_pushed, history)`` after 0, 1, …
    :data:`_SETTLE_PERIODS` periods."""
    interp = open_session(ALL_APPS[app_name](), "scalar")
    interp.run_init()
    out = [(_pushed(interp), edge_history(interp))]
    for _ in range(_SETTLE_PERIODS):
        interp.run_steady(1)
        out.append((_pushed(interp), edge_history(interp)))
    interp.close()
    return out


def _run_checking_history(builder, engine, calls, want, force=0):
    """``calls`` on a fresh session, every edge's counters compared with the
    scalar engine's after each call (``items_pushed`` first: it settles on
    its own); with ``force``, the small-call form runs calls of at most
    that many periods.  Returns the closed session."""
    interp = open_session(builder(), engine)
    try:
        interp.run_init()
        if force and interp.plan is not None and interp.plan.small is not None:
            interp.plan.small.force(force)
        done = 0
        for periods in calls:
            interp.run_steady(periods)
            done += periods
            assert (_pushed(interp), edge_history(interp)) == want[done], (calls, done)
    finally:
        interp.close()
    assert (_pushed(interp), edge_history(interp)) == want[done], (calls, "closed")
    return interp


@pytest.mark.parametrize(
    "app_name, engine",
    [(app, engine) for app in sorted(ALL_APPS) for engine in ("batched", "codegen")]
    + [(app, "parallel") for app in _SETTLE_APPS],
)
def test_fired_settles_on_read(app_name, engine, tmp_path, monkeypatch):
    """``fired`` is credited whole periods when somebody reads it; however a
    run is chopped, every way of reading it agrees with the scalar count,
    and so does every edge's history (n(t) and p(t)) after every call and
    after ``close()``."""
    monkeypatch.setenv("REPRO_CODEGEN_CACHE", str(tmp_path / "cgc"))
    builder, periods, first = ALL_APPS[app_name], _SETTLE_PERIODS, 3
    _, scalar = run_calls(builder, "scalar", [periods])
    want = _by_name(scalar, scalar.fired)
    boundaries = _scalar_boundaries(app_name)
    for calls in ([1] * periods, [periods], [first, periods - first]):
        interp = _run_checking_history(builder, engine, calls, boundaries)
        assert _by_name(interp, interp.fired) == want
        assert _by_name(interp, dict(interp.fired)) == want
        assert [
            interp.firings(node.filter) for node in interp.graph.filter_nodes()
        ] == [scalar.firings(node.filter) for node in scalar.graph.filter_nodes()]
        assert _pushed(interp) == _pushed(scalar)
    if engine != "parallel":  # both forms of a compiled session, crossed
        _run_checking_history(builder, engine, [1, 2, 3, 1], boundaries, force=2)
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


# -- lifted math ------------------------------------------------------------

#: a seeded column over each vector-safe ``math`` function's domain
_DOMAINS = {
    "sqrt": [(0.0, 1e6)],
    "sin": [(-1e3, 1e3)],
    "cos": [(-1e3, 1e3)],
    "tan": [(-1e3, 1e3)],
    "fabs": [(-1e6, 1e6)],
    "copysign": [(-1e6, 1e6), (-1.0, 1.0)],
    "floor": [(-1e6, 1e6)],
    "ceil": [(-1e6, 1e6)],
    "trunc": [(-1e6, 1e6)],
    "atan2": [(-10.0, 10.0), (-10.0, 10.0)],
    "hypot": [(-1e3, 1e3), (-1e3, 1e3)],
    "fmod": [(-1e3, 1e3), (0.5, 50.0)],
    "pow": [(0.0, 10.0), (-8.0, 8.0)],
    "atan": [(-1e3, 1e3)],
    "asin": [(-1.0, 1.0)],
    "acos": [(-1.0, 1.0)],
    "exp": [(-700.0, 700.0)],
    "expm1": [(-700.0, 700.0)],
    "log": [(1e-9, 1e6)],
    "log1p": [(-0.999, 1e6)],
    "log2": [(1e-9, 1e6)],
    "log10": [(1e-9, 1e6)],
    "sinh": [(-700.0, 700.0)],
    "cosh": [(-700.0, 700.0)],
    "tanh": [(-20.0, 20.0)],
}


def test_the_domain_table_covers_every_vector_safe_name():
    assert set(_DOMAINS) == VECTOR_SAFE_MATH


@pytest.mark.parametrize("name", sorted(_DOMAINS))
def test_vector_math_is_bit_identical_to_math(name):
    rng = np.random.default_rng(sorted(_DOMAINS).index(name))
    cols = [rng.uniform(lo, hi, 4096) for lo, hi in _DOMAINS[name]]
    lo, hi = _DOMAINS[name][0]
    if lo < -0.5 and hi > 0.5:  # signed zeros, and roundings to them
        cols[0][:4] = (0.0, -0.0, 0.5, -0.5)
    with np.errstate(divide="raise", invalid="raise", over="raise"):
        got = np.asarray(getattr(VEC_MATH, name)(*cols), dtype=np.float64)
    fn = getattr(math, name)
    want = np.array([float(fn(*args)) for args in zip(*(c.tolist() for c in cols))])
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("name", sorted(EXACT_UFUNCS))
def test_an_exact_ufunc_flags_exactly_where_math_raises(name):
    ufunc, fn = EXACT_UFUNCS[name], getattr(math, name)
    specials = [0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan, 1e308, 5e-324]
    for args in itertools.product(specials, repeat=ufunc.nin):
        try:
            want = fn(*args)
        except (ValueError, OverflowError):
            want = FloatingPointError
        try:
            with np.errstate(divide="raise", invalid="raise", over="raise"):
                got = ufunc(*(np.array([a]) for a in args))[0]
        except FloatingPointError:
            got = FloatingPointError
        if want is FloatingPointError or got is FloatingPointError:
            assert got is want, (name, args)
        else:
            assert np.float64(got).view(np.int64) == np.float64(want).view(np.int64), (name, args)


class _OneLine(Filter):
    """Pushes one expression of its input, picked by ``op``; certified for
    every ``op``."""

    def __init__(self, op):
        super().__init__(pop=1, push=1)
        self.op = op

    def work(self):
        x = self.pop()
        if self.op == "sqrt":
            y = math.sqrt(x)
        elif self.op == "sin":
            y = math.sin(x)
        elif self.op == "recip":
            y = 1.0 / x
        elif self.op == "mod":
            y = 3.0 % x
        elif self.op == "square":
            y = x**2
        elif self.op == "floor":
            y = math.floor(x)
        else:
            y = x * 1e300
        self.push(y)


def _outcome(op, x, engine):
    """What a run of ``LIFT_MIN_FIRINGS`` periods raises or pushes (one call,
    so a lifted filter runs its kernel), and the filter's executor row."""
    filt, sink = _OneLine(op), CollectSink()
    app = Pipeline(ArraySource([1.0, 2.0, x, 4.0]), filt, sink)
    interp = Interpreter(app, check=False, engine=engine)
    try:
        interp.run(LIFT_MIN_FIRINGS)
        outcome = list(sink.collected)
    except Exception as exc:  # noqa: BLE001 - the exception type is the result
        outcome = type(exc)
    row = interp.plan.vectorization_report()[filt.name] if interp.plan is not None else None
    return outcome, row


@pytest.mark.parametrize(
    "op, x, raises",
    [
        ("sqrt", -1.0, ValueError),
        ("sin", math.inf, ValueError),
        ("recip", 0.0, ZeroDivisionError),
        ("mod", 0.0, ZeroDivisionError),
        ("square", 1e200, OverflowError),
        ("floor", math.inf, OverflowError),
        ("huge", 1e300, None),
    ],
)
def test_a_lifted_kernel_raises_where_scalar_raises(op, x, raises):
    """The compiled engine raises the scalar engine's exception instead of
    pushing the ufunc's nan or inf."""
    from repro.analysis import analyze_filter

    assert analyze_filter(_OneLine(op)).certified
    scalar, _ = _outcome(op, x, "scalar")
    assert scalar == raises if raises is not None else scalar[2] == math.inf
    compiled, row = _outcome(op, x, "batched")
    assert compiled == scalar
    # Either way the kernel's flag demoted the filter: ``huge`` overflows
    # in numpy where a Python float quietly goes to inf.
    assert (row["kind"], row["code"]) == ("loop", "SL301") and "demoted" in row["reason"]
