"""The small-call form: the whole steady schedule as one emitted loop.

A compiled plan runs a call of few periods through one inlined loop over
every firing once its one-period calls have paid for the lowering, and
keeps the form only where it beats the walk.  Which form runs a call must
never change what it computes: every check here is bit for bit against the
scalar engine.
"""

import warnings

import numpy as np
import pytest

from repro.apps import ALL_APPS
from repro.errors import EngineDowngradeWarning
from repro.graph import ArraySource, CollectSink, Pipeline
from repro.graph.base import Filter
from repro.linear import LinearFilter, fir_rep
from repro.obs.metrics import METRICS
from repro.runtime import Interpreter
from repro.runtime import plan as plan_module
from repro.runtime.plan import LOWER_S_PER_ITEM, inline_items

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


def test_forcing_a_live_form_again_hands_its_items_back_first():
    """A second lowering while the first form holds the items must not
    build its form over empty channels."""
    build = ALL_APPS["FMRadio"]
    app = build()
    interp = Interpreter(app, check=False, engine="codegen")
    interp.run(2)
    for _ in range(2):
        interp.plan.small.force(1)
        interp.run_steady(1)
    assert interp.plan.small.live
    interp.close()
    assert list(_sink(app).collected) == _scalar(build, 4)


def _unbound(interp):
    """Filters outside a feedback core that are not bound to the channels
    of their own edges."""
    core = {node for b in interp.plan.blocks if b.kind == "core" for node in b.nodes}
    chans = interp.channels
    return [
        node.name
        for node in interp.graph.filter_nodes()
        if node not in core
        and (
            node.filter.input is not (chans[node.in_edges[0]] if node.in_edges else None)
            or node.filter.output
            is not (chans[node.out_edges[0]] if node.out_edges else None)
        )
    ]


@pytest.mark.parametrize("name", list(ALL_APPS))
def test_walked_filters_stay_bound_to_their_channels(name):
    """Only a feedback core and the small-call form rebind a filter between
    calls: after a multi-period call, a one-period call and a hand-back
    from the form, every other filter reads and writes its own edges."""
    build = ALL_APPS[name]
    app = build()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EngineDowngradeWarning)
        interp = Interpreter(app, check=False, engine="codegen")
    interp.run_init()
    interp.run_steady(3)
    assert _unbound(interp) == []
    interp.run_steady(1)
    assert _unbound(interp) == []
    periods = 4
    small = interp.plan.small
    if small is not None:
        small.force(1)
        interp.run_steady(1)
        assert small.live
        interp.run_steady(2)
        assert not small.live and _unbound(interp) == []
        periods += 3
    interp.close()
    assert list(_sink(app).collected) == _scalar(build, periods)


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


def test_a_body_the_emitter_cannot_inline_is_called_from_the_form():
    def build():
        return Pipeline(
            ArraySource([float(v) for v in range(10)]), _Summing(), Gain(0.5), CollectSink()
        )

    app = build()
    interp = Interpreter(app, check=False, engine="codegen", strict=True)
    interp.run(1)
    interp.plan.small.force(1)
    form = interp.plan.small.form
    ((name, why),) = form.lowering["called"].items()
    assert name.startswith("_Summing") and "GeneratorExp" in why
    assert ".work()" in form.source
    for periods in (1, 3, 1):  # the form, the walk, the form
        interp.run_steady(periods)
    assert interp.engine_report()["codegen"]["small_calls"]["state"] == "lowered"
    assert list(_sink(app).collected) == _scalar(build, 6)


def _new_perm_and_key(app):
    from repro.apps.des import KeyXor, PermuteBits

    perm = next(f for f in app.filters() if isinstance(f, PermuteBits))
    perm.perm = tuple(reversed(perm.perm))
    key = next(f for f in app.filters() if isinstance(f, KeyXor))
    key.key = tuple(1 - bit for bit in key.key)


def _fir3():
    """A three-tap FIR: its window fits in locals, so its loop is unrolled
    and its coefficients folded."""
    return Pipeline(
        ArraySource([float(v) for v in np.linspace(-1, 1, 9)]),
        FIR([0.5, -0.25, 0.125]),
        Gain(1.5),
        CollectSink(),
    )


def _new_coeffs(app):
    fir = next(f for f in app.filters() if isinstance(f, FIR))
    fir.coeffs = tuple(0.5 * c for c in reversed(fir.coeffs))


@pytest.mark.parametrize(
    "build, rebind",
    [(ALL_APPS["DES"], _new_perm_and_key), (_fir3, _new_coeffs)],
    ids=["DES", "FIR3"],
)
def test_a_rebound_folded_attribute_sends_the_form_back_to_the_walk(build, rebind):
    """The form folded a permutation, a key or a coefficient tuple into its
    text.  A new tuple bound between two calls fails the module's identity
    guard: the form runs nothing, the walk runs the call, and the plan
    rents again; a form lowered afterwards folds the new value.  Bit-exact
    throughout against a scalar session given the same rebinding."""
    app = build()
    scalar = Interpreter(app, check=False, engine="scalar")
    scalar.run_init()
    for i in range(8):
        if i == 3:
            rebind(app)
        scalar.run_steady(1)
    want = list(_sink(app).collected)

    app = build()
    interp = Interpreter(app, check=False, engine="codegen")
    interp.run_init()
    small = interp.plan.small
    small.force(1)
    assert small.form.lowering["folded"]
    for _ in range(3):
        interp.run_steady(1)
    rebind(app)
    interp.run_steady(1)
    assert small.form is None and not small.live
    assert small.report()["state"] == "renting" and small.rent == 0.0
    interp.run_steady(1)
    small.force(1)
    for _ in range(3):
        interp.run_steady(1)
    assert small.live and small.report()["state"] == "lowered"
    interp.close()
    assert list(_sink(app).collected) == want


def test_bitonic_and_des_forms_keep_their_edges_in_locals():
    """CI's guard on the form's tapes: BitonicSort keeps no edge on a list,
    and DES forwards at least 90 % of its edges in at most 4 729 lines (a
    whole-program lowering's compile memory grows with its text)."""
    _, interp = _forced(ALL_APPS["BitonicSort"], (1, 1))
    row = interp.plan.small.form.lowering
    assert row["taped"] == {} and len(row["forwarded"]) == 115
    _, interp = _forced(ALL_APPS["DES"], (1, 1))
    row = interp.plan.small.form.lowering
    edges = len(row["forwarded"]) + len(row["taped"])
    assert edges == 452 and len(row["forwarded"]) >= 0.9 * edges
    assert interp.plan.small.lines <= 4729


# -- the decision, with injected timings -------------------------------------


class _Clock:
    """The plan module's ``perf_counter`` in a test: every read moves it on
    by what a one-period call takes on the form now holding the items, so a
    timed call (one read before it, one after) measures exactly that."""

    def __init__(self, small) -> None:
        self.small = small
        self.now = 0.0
        self.walk_s = self.emitted_s = 0.0

    def __call__(self) -> float:
        self.now += self.emitted_s if self.small.live else self.walk_s
        return self.now


def _driven(monkeypatch, walk, emitted, calls, each=None):
    """Drive a FIR plan's own ``run_steady`` under a :class:`_Clock`.

    ``walk`` and ``emitted`` are what a one-period call takes on each form,
    in ticks: a tick is a 950th of the plan's rent budget, so ten calls of
    100 ticks pay it and nine do not.  Either may be a list, one entry per
    call.  ``each(i, small)`` runs after call ``i``."""
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
    tick = LOWER_S_PER_ITEM * inline_items(interp.program.steady) / 950
    clock = _Clock(small)
    monkeypatch.setattr(plan_module, "perf_counter", clock)
    forms = []
    for i, periods in enumerate(calls):
        clock.walk_s = tick * (walk[i] if isinstance(walk, list) else walk)
        clock.emitted_s = tick * (emitted[i] if isinstance(emitted, list) else emitted)
        plan.run_steady(periods)
        forms.append("form" if small.live else "walk")
        if each is not None:
            each(i, small)
    return app, interp, forms, build, tick


def test_policy_rents_until_the_budget_then_takes_the_median_crossover(monkeypatch):
    seen = []

    def each(_i, small):
        paid = small.budget is not None and small.rent >= small.budget
        seen.append((small.report()["state"], paid, small.limit))

    emitted = [40] * 16
    emitted[13] = 400  # one trial call carried a switch
    app, _interp, _forms, build, _tick = _driven(monkeypatch, 100, emitted, [1] * 16, each)
    # Call 0 runs the first pass; nine calls of 100 ticks leave the rent
    # short of the budget, the tenth pays it, call 11 lowers, 12-14 are the
    # trial and 15 decides.
    assert seen[9] == ("renting", False, 0)
    assert seen[10] == ("renting", True, 0)
    assert seen[11:15] == [("trying", True, 1)] * 4
    assert seen[15] == ("lowered", True, 2)  # 2 * 40 < 100 <= 3 * 40, the 400 dropped
    assert list(_sink(app).collected) == _scalar(build, 16)


def test_a_winning_form_is_kept_below_its_crossover(monkeypatch):
    calls = [1] * 16 + [2, 3, 1, 5, 2]
    app, interp, forms, build, tick = _driven(monkeypatch, 100, 40, calls)
    # Call 0 runs the first pass, 1-10 pay the rent, 11 lowers, 12-14 are
    # the trial, 15 decides: crossover 2 (2 * 40 < 100 <= 3 * 40).
    assert forms[:11] == ["walk"] * 11
    assert forms[11:16] == ["form"] * 5
    assert forms[16:] == ["form", "walk", "form", "walk", "form"]
    row = interp.engine_report()["codegen"]["small_calls"]
    assert row["state"] == "lowered" and row["crossover"] == 2
    assert row["walk_us"] == pytest.approx(100 * tick * 1e6)
    assert row["emitted_us"] == pytest.approx(40 * tick * 1e6)
    assert list(_sink(app).collected) == _scalar(build, sum(calls))


def test_a_losing_form_is_refused_and_dropped(monkeypatch):
    calls = [1] * 20 + [4, 1]
    app, interp, forms, build, tick = _driven(monkeypatch, 100, 150, calls)
    assert forms[11:15] == ["form"] * 4
    assert set(forms[15:]) == {"walk"}
    small = interp.plan.small
    assert small.form is None and interp.plan._run == interp.plan._walk
    row = interp.engine_report()["codegen"]["small_calls"]
    assert row["state"] == "refused"
    assert f"took {150 * tick * 1e6:.0f} us" in row["reason"]
    assert list(_sink(app).collected) == _scalar(build, sum(calls))


def test_the_trial_compares_the_form_with_the_recent_walk(monkeypatch):
    """Load drifts during the rent: calls 1-4 walk in 200 ticks, 5-7 in 60
    (980 ticks in all), call 8 lowers and 9-11 try a form of 100.  Against
    every rented call (median 200) the form would win; against the walk's
    last three (60) it loses."""
    walk = [200] * 5 + [60] * 11
    app, interp, forms, build, tick = _driven(monkeypatch, walk, 100, [1] * 16)
    assert forms[:8] == ["walk"] * 8
    assert forms[8:12] == ["form"] * 4
    assert forms[12:] == ["walk"] * 4
    row = interp.engine_report()["codegen"]["small_calls"]
    assert row["state"] == "refused"
    assert row["walk_us"] == pytest.approx(60 * tick * 1e6)
    assert row["rent_s"] == pytest.approx(980 * tick)
    assert list(_sink(app).collected) == _scalar(build, 16)


def test_large_calls_never_pay_the_rent(monkeypatch):
    calls = [1] + [64] * 30
    app, interp, forms, build, _tick = _driven(monkeypatch, 1000, 40, calls)
    assert set(forms) == {"walk"}
    assert interp.engine_report()["codegen"]["small_calls"]["state"] == "renting"
    assert list(_sink(app).collected) == _scalar(build, sum(calls))


def _chopped_session_settles(build):
    app = build()
    interp = Interpreter(app, check=False, engine="codegen")
    interp.run(2)
    for _ in range(400):
        interp.run_steady(1)
    interp.run_steady(9)
    interp.run_steady(1)
    assert list(_sink(app).collected) == _scalar(build, 412)
    assert interp.engine_report()["codegen"]["small_calls"]["state"] in ("lowered", "refused")


def test_a_chopped_session_settles_bit_exact():
    """Real timings: whatever the plan decides, the output is the scalar
    engine's, and 400 one-period FMRadio calls pay for the lowering."""
    _chopped_session_settles(ALL_APPS["FMRadio"])


def test_a_chopped_session_settles_with_metrics_off():
    """The plan times its calls itself: with the metrics registry off a
    chopped session still pays the rent and settles."""
    with METRICS.disabled():
        _chopped_session_settles(ALL_APPS["FMRadio"])
