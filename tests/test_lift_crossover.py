"""A lifted filter picks its form per call: fewer than ``LIFT_MIN_FIRINGS``
firings run the hoisted loop, more run the lifted kernel, and either way
the items are the scalar engine's, bit for bit."""

import functools
import math
import warnings

import numpy as np
import pytest

from repro.apps import ALL_APPS, vocoder
from repro.errors import EngineDowngradeWarning
from repro.graph import ArraySource, Filter, Pipeline
from repro.graph.builtins import CollectSink
from repro.runtime import Interpreter, vectorize
from repro.runtime.vectorize import LIFT_MIN_FIRINGS
from benchmarks.probe_one_period import SIZES, kernel_vs_loop, lifted_inputs
from tests.test_batched_engine import _OneLine


def _session(app, engine):
    sink = next(f for f in app.filters() if isinstance(f, CollectSink))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EngineDowngradeWarning)
        interp = Interpreter(app, check=False, engine=engine)
    return interp, sink


def _lifted(interp):
    return [n for n, row in interp.plan.vectorization_report().items() if row["kind"] == "lifted"]


def test_a_one_period_call_runs_no_lifted_kernel(monkeypatch):
    calls = []
    run_lifted = vectorize.run_lifted

    def spy(filt, lifted, n):
        calls.append((filt.name, n))
        return run_lifted(filt, lifted, n)

    monkeypatch.setattr(vectorize, "run_lifted", spy)
    interp, _ = _session(vocoder.build(), "codegen")
    with interp:
        interp.run(0)
        lifted = _lifted(interp)
        assert len(lifted) == 25
        interp.run_steady(1)
        assert calls == []
        interp.run_steady(64)
        assert sorted(name for name, _ in calls) == sorted(lifted)
        assert all(n >= LIFT_MIN_FIRINGS for _, n in calls)
        assert interp.engine_report()["codegen"]["crossover"] == LIFT_MIN_FIRINGS


def test_blocks_report_their_crossover():
    interp, _ = _session(vocoder.build(), "codegen")
    with interp:
        interp.run(1)
        report = interp.engine_report()
    # One crossover for the whole plan, on no row of either table.
    assert report["codegen"]["crossover"] == LIFT_MIN_FIRINGS
    assert not any("crossover" in row for row in report["codegen"]["blocks"])
    assert not any("crossover" in row for row in report["vectorization"].values())


#: Every app with a lifted filter.
LIFTED_APPS = (
    "Vocoder",
    "TDE",
    "Radar",
    "Beamformer",
    "FMRadio",
    "FFT",
    "FreqHopRadio",
    "DToA",
)
#: One-period calls between calls of periods either side of the crossover.
ACROSS = (
    1,
    LIFT_MIN_FIRINGS - 1,
    1,
    LIFT_MIN_FIRINGS,
    1,
    LIFT_MIN_FIRINGS + 1,
    2,
    4 * LIFT_MIN_FIRINGS,
    1,
)


@pytest.mark.parametrize("name", LIFTED_APPS)
def test_calls_across_the_crossover_equal_scalar(name):
    interp, sink = _session(ALL_APPS[name](), "codegen")
    with interp:
        interp.run(0)
        lifted = _lifted(interp)
        assert lifted
        for periods in ACROSS:
            interp.run_steady(periods)
        assert _lifted(interp) == lifted
    scalar, want = _session(ALL_APPS[name](), "scalar")
    scalar.run(sum(ACROSS))
    got, ref = np.asarray(sink.collected), np.asarray(want.collected)
    assert got.tobytes() == ref.tobytes()


#: One-period calls around a long call and around the crossover.
EVERY_APP_CALLS = (1, 64, 1, LIFT_MIN_FIRINGS - 1, LIFT_MIN_FIRINGS, LIFT_MIN_FIRINGS + 1, 1)


@pytest.mark.parametrize("name", sorted(ALL_APPS))
def test_every_app_across_the_crossover_equals_scalar(name):
    interp, sink = _session(ALL_APPS[name](), "codegen")
    with interp:
        interp.run(0)
        for periods in EVERY_APP_CALLS:
            interp.run_steady(periods)
    scalar, want = _session(ALL_APPS[name](), "scalar")
    scalar.run(sum(EVERY_APP_CALLS))
    got, ref = np.asarray(sink.collected), np.asarray(want.collected)
    assert got.tobytes() == ref.tobytes()


#: Every filter class an app lifts, and one app that lifts it.
LIFTED_CLASSES = {
    "BeamWeights": "Beamformer",
    "BinMultiply": "TDE",
    "ComplexMagnitude": "FreqHopRadio",
    "ComplexScale": "TDE",
    "ComplexToReal": "TDE",
    "DFTBin": "Vocoder",
    "FMDemodulator": "FMRadio",
    "PolarToRect": "Vocoder",
    "RealToComplex": "FFT",
    "RectToPolar": "Vocoder",
    "SumReals": "Vocoder",
}


@functools.lru_cache(maxsize=None)
def _lifted_inputs(app):
    return lifted_inputs(ALL_APPS[app])


@pytest.mark.parametrize("cls, app", sorted(LIFTED_CLASSES.items()))
def test_kernel_and_loop_push_the_same_items(cls, app):
    """At every n either side of the crossover, fed the items its app
    sends it, the kernel pushes what the loop pushes (``kernel_vs_loop``
    raises on the first n where they differ)."""
    filt, items = _lifted_inputs(app)[cls]
    assert sorted(kernel_vs_loop(filt, items, reps=1)) == list(SIZES)


#: Certified one-line filters and the item each raises on (scalar's
#: exception type; ``tests/test_batched_engine.py`` has the table).
RAISING = (
    ("sqrt", -1.0, ValueError),
    ("sin", math.inf, ValueError),
    ("recip", 0.0, ZeroDivisionError),
    ("mod", 0.0, ZeroDivisionError),
    ("square", 1e200, OverflowError),
    ("floor", math.inf, OverflowError),
)


def _raises(op, x, exc, engine, calls):
    """Run one ``run_steady`` per entry of ``calls`` from a source whose
    third item is ``x``; returns what was raised and the filter's row."""
    filt = _OneLine(op)
    app = Pipeline(ArraySource([1.0, 2.0, x, 4.0]), filt, CollectSink())
    interp, _ = _session(app, engine)
    with interp, pytest.raises(exc) as caught:
        interp.run(0)
        for periods in calls:
            interp.run_steady(periods)
    row = interp.plan.vectorization_report()[filt.name] if interp.plan is not None else None
    return (type(caught.value), str(caught.value)), row


@pytest.mark.parametrize("op, x, exc", RAISING)
def test_a_raising_firing_below_the_crossover_leaves_the_filter_lifted(op, x, exc):
    scalar, _ = _raises(op, x, exc, "scalar", [1, 1, 1])
    compiled, row = _raises(op, x, exc, "codegen", [1, 1, 1])
    assert compiled == scalar
    assert row["kind"] == "lifted"


@pytest.mark.parametrize("op, x, exc", RAISING)
def test_a_raising_firing_at_the_crossover_demotes_then_raises(op, x, exc):
    scalar, _ = _raises(op, x, exc, "scalar", [LIFT_MIN_FIRINGS])
    compiled, row = _raises(op, x, exc, "codegen", [LIFT_MIN_FIRINGS])
    assert compiled == scalar
    assert (row["kind"], row["code"]) == ("loop", "SL301")
    assert "demoted" in row["reason"]
