"""The small-call form: the whole steady schedule as one emitted loop.

A compiled plan runs a call of few periods through one inlined loop over
every firing once its one-period calls have paid for the lowering, and
keeps the form only where it beats the walk.  Which form runs a call must
never change what it computes: every check here is bit for bit against the
scalar engine.
"""

import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from repro.apps import ALL_APPS
from repro.errors import EngineDowngradeWarning, StreamItError
from repro.graph import ArraySource, CollectSink, Pipeline
from repro.graph.base import Filter
from repro.linear import LinearFilter, fir_rep
from repro.runtime import Interpreter
from repro.runtime.plan import SmallCallPolicy

from .helpers import FIR, Gain

#: Crosses both switch directions: walk -> form at every 1 after a larger
#: call, form -> walk at every larger call.
CALLS = (1, 64, 1, 7, 1, 1, 32, 1)

PORTAL_FREE = [name for name in ALL_APPS if name != "FreqHopRadio"]


def _sink(app):
    return next(f for f in app.filters() if isinstance(f, CollectSink))


def _scalar(build, periods):
    app = build()
    interp = Interpreter(app, check=False, engine="scalar")
    interp.run(periods)
    return list(_sink(app).collected)


def _forced(build, calls, limit=1):
    """``calls`` on the compiled engine with the form lowered before the
    first and run for every call of at most ``limit`` periods."""
    app = build()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EngineDowngradeWarning)
        interp = Interpreter(app, check=False, engine="codegen")
        interp.run_init()
        interp.plan.small.force(limit)
        for periods in calls:
            interp.run_steady(periods)
        interp.close()
    return list(_sink(app).collected), interp


@pytest.mark.parametrize("name", PORTAL_FREE)
def test_every_app_crosses_both_forms_bit_exact(name):
    """Radar's BeamFirFilter, Vocoder's PhaseUnwrap and ChannelVocoder's
    EnvelopeFollower keep state across the switches: a hand kernel and the
    inlined work() must read and write the same attributes."""
    build = ALL_APPS[name]
    got, interp = _forced(build, CALLS)
    assert got == _scalar(build, sum(CALLS))
    row = interp.engine_report()["codegen"]["small_calls"]
    assert row["state"] == "lowered" and row["crossover"] == 1
    assert row["lines"] > 0 and row["lower_s"] > 0


def test_close_hands_the_items_back_to_the_channels():
    build = ALL_APPS["FMRadio"]
    app = build()
    interp = Interpreter(app, check=False, engine="codegen")
    interp.run_init()
    interp.plan.small.force(1)
    interp.run_steady(1)
    assert interp.plan.small.live
    interp.close()
    assert not interp.plan.small.live
    scalar = Interpreter(build(), check=False, engine="scalar")
    scalar.run(1)
    edges = zip(interp.graph.edges, scalar.graph.edges)
    for edge, twin in edges:
        chan, ref = interp.channels[edge], scalar.channels[twin]
        assert chan.snapshot() == ref.snapshot()
        assert (chan.pushed_count, chan.popped_count) == (ref.pushed_count, ref.popped_count)


def test_a_traced_small_call_is_one_span():
    app = ALL_APPS["FIR"]()
    interp = Interpreter(app, check=False, engine="codegen", trace=True)
    interp.run_init()
    interp.plan.small.force(1)
    interp.run_steady(1)
    before = len(interp.tracer.events)
    interp.run_steady(1)
    spans = [e for e in list(interp.tracer.events)[before:] if e["ph"] == "X"]
    assert [e["name"] for e in spans] == ["program", "run_steady x1"]
    assert spans[0]["cat"] == "codegen"
    assert any(e["name"] == "plan.small_calls.lower" for e in interp.tracer.events)


# -- who has no small-call form ------------------------------------------------


def test_portal_graphs_keep_the_walk():
    interp = Interpreter(ALL_APPS["FreqHopRadio"](), check=False, engine="codegen")
    assert interp.plan.small is None
    row = interp.engine_report()["codegen"]["small_calls"]
    assert row["state"] == "refused" and "portals" in row["reason"]


def test_linear_filter_graphs_keep_the_walk():
    app = Pipeline(
        ArraySource([float(v) for v in range(16)]),
        LinearFilter(fir_rep([0.25, 0.5, 0.25])),
        CollectSink(),
    )
    interp = Interpreter(app, check=False, engine="codegen")
    assert interp.plan.small is None
    assert "work_batch" in interp.engine_report()["codegen"]["small_calls"]["reason"]


def test_the_parallel_engine_has_no_plan_to_lower():
    app = Pipeline(ArraySource([1.0, 2.0]), Gain(2.0), Gain(3.0), CollectSink())
    with Interpreter(app, check=False, engine="parallel", cores=2) as interp:
        assert interp.plan is None


class _Summing(Filter):
    """A ``work()`` the emitter cannot inline (a generator expression)."""

    def __init__(self) -> None:
        super().__init__(pop=2, push=1)

    def work(self) -> None:
        self.push(sum(self.peek(i) for i in range(2)))
        self.pop()
        self.pop()


def test_a_program_the_emitter_cannot_lower_keeps_the_walk():
    def build():
        return Pipeline(
            ArraySource([float(v) for v in range(10)]), _Summing(), Gain(0.5), CollectSink()
        )

    app = build()
    interp = Interpreter(app, check=False, engine="codegen")
    interp.run(1)
    with pytest.raises(StreamItError, match="GeneratorExp"):
        interp.plan.small.force(1)
    row = interp.engine_report()["codegen"]["small_calls"]
    assert row["state"] == "refused" and "cannot lower" in row["reason"]
    assert interp.plan._run == interp.plan._walk
    for periods in (1, 3, 1):
        interp.run_steady(periods)
    assert list(_sink(app).collected) == _scalar(build, 6)


# -- the decision, with injected timings -------------------------------------


def test_policy_rents_until_the_budget_then_takes_the_median_crossover():
    policy = SmallCallPolicy(budget=0.95e-3)
    for _ in range(9):
        policy.walked(100e-6)
    assert not policy.due
    policy.walked(100e-6)
    assert policy.due
    for seconds in (40e-6, 400e-6, 40e-6):  # one call carried a switch
        assert not policy.tried
        policy.emitted(seconds)
    assert policy.tried
    assert policy.crossover() == 2  # 2 * 40 < 100 <= 3 * 40


def _driven(walk_s, emitted_s, budget, calls):
    """Drive a FIR plan's own ``run_steady`` with injected call times: the
    walk's one-period calls take ``walk_s``, the form's ``emitted_s``."""
    build = lambda: Pipeline(  # noqa: E731
        ArraySource([float(v) for v in np.linspace(-1, 1, 9)]),
        FIR([0.5, -0.25, 0.125]),
        Gain(1.5),
        CollectSink(),
    )
    app = build()
    interp = Interpreter(app, check=False, engine="codegen")
    interp.run_init()
    plan, small = interp.plan, interp.plan.small
    small.policy = SmallCallPolicy(budget)
    tally = interp._tally = SimpleNamespace(last=None)
    forms = []
    for periods in calls:
        plan.run_steady(periods)
        forms.append("form" if small.live else "walk")
        seconds = emitted_s if small.live else walk_s
        tally.last = (periods, seconds, 0.0)
    return app, interp, forms, build


def test_a_winning_form_is_kept_below_its_crossover():
    calls = [1] * 16 + [2, 3, 1, 5, 2]
    app, interp, forms, build = _driven(100e-6, 40e-6, 0.95e-3, calls)
    # Call 0 runs the first pass, 1-10 pay the rent, 11 lowers, 12-14 are
    # the trial, 15 decides: crossover 2 (2 * 40 < 100 <= 3 * 40).
    assert forms[:11] == ["walk"] * 11
    assert forms[11:16] == ["form"] * 5
    assert forms[16:] == ["form", "walk", "form", "walk", "form"]
    row = interp.engine_report()["codegen"]["small_calls"]
    assert row["state"] == "lowered" and row["crossover"] == 2
    assert row["walk_us"] == pytest.approx(100) and row["emitted_us"] == pytest.approx(40)
    assert list(_sink(app).collected) == _scalar(build, sum(calls))


def test_a_losing_form_is_refused_and_dropped():
    calls = [1] * 20 + [4, 1]
    app, interp, forms, build = _driven(100e-6, 150e-6, 0.95e-3, calls)
    assert forms[11:15] == ["form"] * 4
    assert set(forms[15:]) == {"walk"}
    small = interp.plan.small
    assert small.form is None and interp.plan._run == interp.plan._walk
    row = interp.engine_report()["codegen"]["small_calls"]
    assert row["state"] == "refused" and "150 us" in row["reason"]
    assert list(_sink(app).collected) == _scalar(build, sum(calls))


def test_large_calls_never_pay_the_rent():
    calls = [1] + [64] * 30
    _app, interp, forms, _build = _driven(100e-6, 40e-6, 1e-4, calls)
    assert set(forms) == {"walk"}
    assert interp.engine_report()["codegen"]["small_calls"]["state"] == "renting"


def test_a_chopped_session_settles_bit_exact():
    """Real timings: whatever the plan decides, the output is the scalar
    engine's, and 400 one-period FMRadio calls pay for the lowering."""
    build = ALL_APPS["FMRadio"]
    app = build()
    interp = Interpreter(app, check=False, engine="codegen")
    interp.run(2)
    for _ in range(400):
        interp.run_steady(1)
    interp.run_steady(9)
    interp.run_steady(1)
    assert list(_sink(app).collected) == _scalar(build, 412)
    assert interp.engine_report()["codegen"]["small_calls"]["state"] in ("lowered", "refused")
