"""Teleport chunking: a portal-bound graph runs ``message_slack`` periods per
pass — the latency its senders state, read as a schedule input — and stays
bit-identical to the scalar engine at every chunking of the run."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import UNRESOLVED, analyze_filter, send_sites
from repro.apps import freqhop
from repro.errors import EngineDowngradeWarning, MessagingError
from repro.graph import (
    ArraySource,
    CollectSink,
    Filter,
    Identity,
    Pipeline,
    SplitJoin,
    joiner_roundrobin,
    roundrobin,
)
from repro.runtime import Interpreter, Portal, TimeInterval
from repro.runtime.vectorize import LIFT_MIN_FIRINGS
from repro.scheduling import ConstraintSystem
from tests.helpers import FIR, Gain

MODULE_LATENCY = 4
SIX_PERIODS = TimeInterval(max_time=6)


# -- filters -----------------------------------------------------------------


class Retuned(Filter):
    """Receiver: sums ``n_pop`` items, pushes ``n_push`` scaled by a gain.
    ``retune`` does not commute with itself, so the order two messages land
    in at one boundary shows in every later item."""

    def __init__(self, n_pop=1, n_push=1, name=None):
        super().__init__(pop=n_pop, push=n_push, name=name)
        self.n_pop = n_pop
        self.n_push = n_push
        self.gain = 1.0
        self.log = []

    def retune(self, gain):
        self.gain = 0.5 * self.gain + gain
        self.log.append(gain)

    def work(self):
        total = 0.0
        for _ in range(self.n_pop):
            total += self.pop()
        for i in range(self.n_push):
            self.push(total * self.gain + i)


class Watcher(Filter):
    """Sender: messages the portal when a block's sum crosses a threshold,
    before (``early``) or after it pushes, then stays quiet for a while."""

    def __init__(self, portal, latency, threshold, n_pop=1, n_push=1, early=True, name=None):
        super().__init__(pop=n_pop, push=n_push, name=name)
        self.portal = portal
        self.latency = latency
        self.threshold = threshold
        self.n_pop = n_pop
        self.n_push = n_push
        self.early = early
        self.quiet = 0

    def work(self):
        total = 0.0
        for _ in range(self.n_pop):
            total += self.pop()
        hit = False
        if self.quiet > 0:
            self.quiet -= 1
        elif total > self.threshold:
            hit = True
            self.quiet = 2
        if hit and self.early:
            self.portal.retune(1.0 + total % 1.0, interval=TimeInterval(max_time=self.latency))
        for i in range(self.n_push):
            self.push(total - i)
        if hit and not self.early:
            self.portal.retune(1.0 + total % 1.0, interval=TimeInterval(max_time=self.latency))


class Resample(Filter):
    """Stateless rate changer: ``n_pop`` in, ``n_push`` out."""

    def __init__(self, n_pop, n_push):
        super().__init__(pop=n_pop, push=n_push)
        self.n_pop = n_pop
        self.n_push = n_push

    def work(self):
        total = 0.0
        for _ in range(self.n_pop):
            total += self.pop()
        for i in range(self.n_push):
            self.push(total + 0.25 * i)


# -- running -----------------------------------------------------------------


def run(build, engine, splits, trace=None):
    """Run ``build()`` for ``sum(splits)`` periods, one ``run_steady`` per
    entry; returns ``(items, interp, app)``."""
    app = build()
    sink = next(f for f in app.filters() if isinstance(f, CollectSink))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EngineDowngradeWarning)
        interp = Interpreter(app, check=False, engine=engine, trace=trace)
        interp.run(0)
        for periods in splits:
            interp.run_steady(periods)
        interp.close()
    return np.asarray(sink.collected).copy(), interp, app


def named(app, name):
    return next(f for f in app.filters() if f.name == name)


def radio(latency, seed):
    def build():
        app = freqhop.build_teleport(latency=latency)
        source = next(f for f in app.filters() if isinstance(f, ArraySource))
        noise = np.random.default_rng(seed).normal(0.0, 0.3, len(source.data))
        source.data[:] = [x + float(d) for x, d in zip(source.data, noise)]
        return app

    return build


def deliveries(interp):
    """Every message's (sender, sent_n, delivered_n, threshold); -1 for one
    still in flight when the run ended."""
    return sorted(
        (r["sender"], r["sent_n"], -1 if r["delivered_n"] is None else r["delivered_n"], r["threshold"])
        for r in interp.tracer.meta.get("teleports", ())
    )


# -- (a) the shipped radio ---------------------------------------------------


@pytest.mark.parametrize("latency", [1, 2, 3, 6, 12])
@pytest.mark.parametrize("seed", [7, 1])
def test_radio_chunks_at_its_latency_bit_exact(latency, seed):
    n = 600
    build = radio(latency, seed)
    scalar, scalar_interp, scalar_app = run(build, "scalar", [n], trace=True)
    hops = named(scalar_app, "rf2if").hops
    assert hops > 5
    for splits in ([1] * n, [n], [217, n - 217]):
        out, interp, app = run(build, "batched", splits, trace=True)
        assert np.array_equal(out, scalar)
        assert named(app, "rf2if").hops == hops
        assert deliveries(interp) == deliveries(scalar_interp)
        records = interp.tracer.meta["teleports"]
        assert sum(r["sdep_ok"] is True for r in records) >= hops
        # A message still in flight when the run ends has no verdict yet.
        assert all(r["sdep_ok"] for r in records if r["delivered_n"] is not None)
        if max(splits) > 1:
            assert interp.plan.message_slack == latency


def test_slack_is_the_same_at_every_boundary():
    """The plan takes the minimum over three boundaries; for the radio the
    three agree, early in the run and deep into it."""
    app = freqhop.build_teleport()
    interp = Interpreter(app, check=False, engine="batched")
    interp.run(0)
    seen = []
    original = ConstraintSystem.slack_periods

    def spy(self, counts, index, reps):
        seen.append(original(self, counts, index, reps))
        return seen[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ConstraintSystem, "slack_periods", spy)
        assert interp.plan.message_slack == 6
        interp.run_steady(50)
        interp.plan._message_slack = None
        assert interp.plan.message_slack == 6
    assert len(seen) == 2 * 4 * 3 and set(seen) == {6}


# -- (b) random portal pipelines ---------------------------------------------


def random_portal_graph(seed):
    """One random pipeline with a receiver, one or two senders to it on
    either side, and rate-changing, peeking and splitjoin stages between."""
    gen = np.random.default_rng(seed)
    data = [float(v) for v in gen.uniform(-2.0, 2.0, size=int(gen.integers(5, 12)))]
    layout = ("upstream", "downstream", "both")[int(gen.integers(0, 3))]
    two = layout == "both" or bool(gen.integers(0, 2))
    lat = [int(gen.integers(1, 13)), int(gen.integers(1, 13))]
    thresholds = [float(gen.uniform(-0.5, 1.5)) for _ in range(2)]
    early = [bool(gen.integers(0, 2)) for _ in range(2)]
    rates = [(int(gen.integers(1, 4)), int(gen.integers(1, 4))) for _ in range(3)]
    stage_kinds = [int(gen.integers(0, 4)) for _ in range(4)]
    taps = [float(v) for v in gen.uniform(-1.0, 1.0, size=3)]

    def stage(kind):
        if kind == 0:
            return [Resample(2, 3)]
        if kind == 1:
            return [FIR(taps)]
        if kind == 2:
            return [
                SplitJoin(
                    roundrobin(1, 2),
                    [Gain(1.5), Identity()],
                    joiner_roundrobin(1, 2),
                )
            ]
        return []

    def build():
        portal = Portal()
        receiver = Retuned(*rates[0], name="recv")
        portal.register(receiver)
        senders = [
            Watcher(portal, lat[i], thresholds[i], *rates[1 + i], early[i], name=f"send{i}")
            for i in range(2 if two else 1)
        ]
        between = [stage(k) for k in stage_kinds]
        if layout == "upstream":
            chain = [receiver, *between[0], senders[0], *between[1], *senders[1:]]
        elif layout == "downstream":
            chain = [senders[0], *between[0], *senders[1:], *between[1], receiver]
        else:
            chain = [senders[0], *between[0], receiver, *between[1], senders[1]]
        return Pipeline(
            ArraySource(data), *between[2], *chain, *between[3], CollectSink()
        )

    return build


def check_random_portal_graph(seed):
    build = random_portal_graph(seed)
    gen = np.random.default_rng(seed + 1)
    n = 30
    cut = int(gen.integers(1, n))
    scalar, scalar_interp, scalar_app = run(build, "scalar", [n], trace=True)
    out, interp, app = run(build, "codegen", [cut, n - cut], trace=True)
    assert interp.engine_used == "codegen"
    assert np.array_equal(out, scalar), seed
    assert named(app, "recv").log == named(scalar_app, "recv").log, seed
    assert deliveries(interp) == deliveries(scalar_interp), seed
    return interp


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_random_portal_graphs_bit_exact(seed):
    check_random_portal_graph(seed)


def test_random_portal_graphs_do_chunk():
    """The fuzz is not vacuous: its graphs run several periods per pass and
    deliver messages while they do."""
    chunks = []
    delivered = 0
    for seed in range(40):
        interp = check_random_portal_graph(seed)
        chunks.append(interp.engine_report()["messaging"]["chunk_periods"])
        delivered += len(named(interp.stream, "recv").log)
    assert sum(c > 1 for c in chunks) >= 15 and sum(1 < c <= 12 for c in chunks) >= 5
    assert delivered > 100


def test_two_senders_to_one_receiver_land_in_scalar_order(monkeypatch):
    """send1's message of period p and send0's of period p+1 are due at one
    boundary; a pass fires send0's period p+1 first, and only the
    send-order stamp puts the two back in the scalar engine's order."""

    def build():
        portal = Portal()
        receiver = Retuned(name="recv")
        portal.register(receiver)
        return Pipeline(
            ArraySource([1.0, 2.0, -1.0, 3.0, 0.5]),
            receiver,
            Watcher(portal, 4, -3.0, name="send0"),  # every third firing
            Watcher(portal, 5, 0.0, name="send1"),
            CollectSink(),
        )

    scalar, _, scalar_app = run(build, "scalar", [40])
    out, interp, app = run(build, "batched", [40])
    assert interp.plan.message_slack == 4
    assert named(app, "recv").log == named(scalar_app, "recv").log
    assert np.array_equal(out, scalar)
    # The proof certifies the receiver, so it lifts between deliveries.
    row = interp.plan.vectorization_report()["recv"]
    assert row["kind"] == "lifted" and row["trusted"]

    # The same graph with every stamp equal, i.e. queues in arrival order.
    post_message = Interpreter.post_message

    def unstamped(self, *args):
        self._send_order = ()
        post_message(self, *args)

    monkeypatch.setattr(Interpreter, "post_message", unstamped)
    out, _, _ = run(build, "batched", [40])
    assert not np.array_equal(out, scalar)


def test_latency_zero_downstream_send_is_not_chunked():
    """A latency-0 message sent downstream before the push can be overdue
    on arrival; where the receiver stands then matters, so no slack."""

    def build():
        portal = Portal()
        receiver = Retuned(name="recv")
        portal.register(receiver)
        return Pipeline(
            ArraySource([1.0, 2.0, -1.0, 3.0, 0.5]),
            Watcher(portal, 0, 0.0, early=True, name="send0"),
            receiver,
            CollectSink(),
        )

    scalar, _, scalar_app = run(build, "scalar", [40])
    out, interp, app = run(build, "batched", [40])
    assert interp.plan.message_slack == 1
    assert np.array_equal(out, scalar)
    assert named(app, "recv").log == named(scalar_app, "recv").log


class Bent(Filter):
    """Receiver whose first ``retune`` switches work() onto a ``math.gamma``
    arm: the proof, run before any message, never saw that arm, and no
    column can take it."""

    def __init__(self, name=None):
        super().__init__(pop=1, push=1, name=name)
        self.curve = 0.0

    def retune(self, gain):
        self.curve = gain

    def work(self):
        x = self.pop()
        if self.curve:
            self.push(math.gamma(abs(x) + self.curve))
        else:
            self.push(x * 0.5)


def test_a_message_onto_an_unliftable_arm_demotes_the_receiver():
    # The receiver fires LIFT_MIN_FIRINGS times a period, so every batch
    # after the delivery is long enough to run the kernel, which fails.
    def build():
        portal = Portal()
        receiver = Bent(name="recv")
        portal.register(receiver)
        return Pipeline(
            ArraySource([-1.0, -2.0, -3.0, -4.0, -5.0, -6.0, -7.0, 0.5]),
            Watcher(portal, 2, 0.0, n_push=LIFT_MIN_FIRINGS, name="send"),
            receiver,
            CollectSink(),
        )

    scalar, _, _ = run(build, "scalar", [40])
    app = build()
    sink = next(f for f in app.filters() if isinstance(f, CollectSink))
    with Interpreter(app, check=False, engine="batched") as interp:
        interp.run(0)
        interp.run_steady(6)  # no sum above 0 yet: nothing sent
        assert interp.plan.vectorization_report()["recv"]["kind"] == "lifted"
        interp.run_steady(34)
        row = interp.plan.vectorization_report()["recv"]
    assert named(app, "recv").curve > 0
    assert (row["kind"], row["trusted"], row["code"]) == ("loop", False, "SL301")
    assert "demoted" in row["reason"]
    assert np.array_equal(np.asarray(sink.collected), scalar)


# -- (c) the bound is tight --------------------------------------------------


def test_one_period_more_than_the_slack_is_wrong(monkeypatch):
    """slack + 1 on the shipped radio: the guard in ``post_message`` fires
    (the first retune is due behind the mixer).  Not conservative padding."""
    original = ConstraintSystem.slack_periods
    monkeypatch.setattr(
        ConstraintSystem,
        "slack_periods",
        lambda self, counts, index, reps: original(self, counts, index, reps) + 1,
    )
    build = radio(6, 7)
    with pytest.raises(MessagingError, match="cfh_d. -> rf2if.setf with latency 6"):
        run(build, "batched", [600])


# -- (d) what resolves, and what does not ------------------------------------


class _Send(Filter):
    """pop 1 / push 1 sender skeleton; subclasses state the interval."""

    def __init__(self, portal, latency=3, name=None):
        super().__init__(pop=1, push=1, name=name)
        self.portal = portal
        self.latency = latency
        self.window = TimeInterval(max_time=latency)
        self.others = ()

    def send(self, x):
        raise NotImplementedError

    def work(self):
        x = self.pop()
        if x > 0.0:
            self.send(x)
        self.push(x)


class SendLiteral(_Send):
    def send(self, x):
        self.portal.retune(x, interval=TimeInterval(max_time=3))


class SendAttr(_Send):
    def send(self, x):
        self.portal.retune(x, interval=TimeInterval(max_time=self.latency))


class SendModuleConstant(_Send):
    def send(self, x):
        self.portal.retune(x, interval=TimeInterval(max_time=MODULE_LATENCY))


class SendPositional(_Send):
    def send(self, x):
        self.portal.retune(x, interval=TimeInterval(6, 2))


class SendHeldInterval(_Send):
    def send(self, x):
        self.portal.retune(x, interval=self.window)


class SendModuleInterval(_Send):
    def send(self, x):
        self.portal.retune(x, interval=SIX_PERIODS)


class SendWrittenAttr(_Send):
    def send(self, x):
        self.latency = 3
        self.portal.retune(x, interval=TimeInterval(max_time=self.latency))


class SendAttrPlusOne(_Send):
    def send(self, x):
        self.portal.retune(x, interval=TimeInterval(max_time=self.latency + 1))


class SendComputed(_Send):
    def send(self, x):
        self.portal.retune(x, interval=TimeInterval(max_time=2 + int(x)))


class SendShadowedName(_Send):
    def send(self, x):
        MODULE_LATENCY = 3 if x > 0.0 else 2
        self.portal.retune(x, interval=TimeInterval(max_time=MODULE_LATENCY))


class SendThroughAlias(_Send):
    def send(self, x):
        portal = self.portal
        portal.retune(x, interval=TimeInterval(max_time=3))


class SendThroughContainer(_Send):
    def __init__(self, portal, latency=3, name=None):
        super().__init__(portal, latency, name)
        self.others = (portal,)

    def send(self, x):
        self.others[0].retune(x, interval=TimeInterval(max_time=1))


class SendSpread(_Send):
    def send(self, x):
        options = {"interval": TimeInterval(max_time=1)}
        self.portal.retune(x, **options)


class SendBestEffort(_Send):
    def send(self, x):
        self.portal.retune(x)


def sender_graph(cls, upstream=True, latency=3):
    def build():
        portal = Portal()
        receiver = Retuned(name="recv")
        portal.register(receiver)
        sender = cls(portal, latency, name="send")
        chain = [receiver, Gain(1.25), sender] if upstream else [sender, Gain(1.25), receiver]
        return Pipeline(ArraySource([1.0, -2.0, 0.5, 3.0, -1.0, 2.0, -0.5]), *chain, CollectSink())

    return build


@pytest.mark.parametrize(
    "cls, latency",
    [
        (SendLiteral, 3),
        (SendAttr, 3),
        (SendModuleConstant, MODULE_LATENCY),
        (SendPositional, 6),
        (SendHeldInterval, 3),
        (SendModuleInterval, 6),
        (SendAttrPlusOne, 4),  # latency + 1: the executor evaluates interval=
    ],
)
def test_constant_latency_resolves_and_sets_the_chunk(cls, latency):
    build = sender_graph(cls)
    sender = named(build(), "send")
    assert [s.latency for s in send_sites(sender)] == [latency]
    assert "SL307" not in {d.code for d in analyze_filter(sender).diagnostics}
    scalar, _, scalar_app = run(build, "scalar", [40])
    out, interp, app = run(build, "batched", [13, 27])
    # A pop 1 / push 1 pipeline: the receiver may lead by exactly λ firings.
    assert interp.plan.message_slack == latency
    assert np.array_equal(out, scalar)
    assert named(app, "recv").log == named(scalar_app, "recv").log != []


@pytest.mark.parametrize(
    "cls",
    [
        SendWrittenAttr,
        SendComputed,
        SendShadowedName,
        SendThroughAlias,
        SendThroughContainer,
        SendSpread,
    ],
)
@pytest.mark.parametrize("upstream", [True, False])
def test_unresolved_latency_runs_one_period_per_pass(cls, upstream):
    build = sender_graph(cls, upstream)
    sender = named(build(), "send")
    sites = send_sites(sender)
    assert sites and all(s.latency == UNRESOLVED and s.reason for s in sites)
    found = analyze_filter(sender).diagnostics.by_code("SL307")
    if cls is SendThroughContainer:
        # streamlint only looks where work() calls a Portal attribute; the
        # plan asks about every filter that holds one, so it still knows.
        assert found == []
    else:
        assert len(found) == 1 and "not a compile-time constant" in found[0].message
    scalar, _, scalar_app = run(build, "scalar", [40])
    out, interp, app = run(build, "batched", [13, 27])
    report = interp.engine_report()["messaging"]
    assert report["chunk_periods"] == interp.plan.message_slack == 1
    assert "send -> recv" in report["limited_by"]
    assert np.array_equal(out, scalar)
    assert named(app, "recv").log == named(scalar_app, "recv").log != []


@pytest.mark.parametrize("upstream", [True, False])
def test_best_effort_runs_one_period_per_pass(upstream):
    build = sender_graph(SendBestEffort, upstream)
    sender = named(build(), "send")
    assert [s.latency for s in send_sites(sender)] == [None]
    [diag] = analyze_filter(sender).diagnostics.by_code("SL307")
    assert "best-effort" in diag.message
    scalar, _, scalar_app = run(build, "scalar", [40])
    out, interp, app = run(build, "batched", [40])
    assert interp.plan.message_slack == 1
    assert "best-effort" in interp.engine_report()["messaging"]["limited_by"]
    assert np.array_equal(out, scalar)
    assert named(app, "recv").log == named(scalar_app, "recv").log != []


def test_shipped_radios_resolve():
    for filt in freqhop.build_teleport().filters():
        assert all(s.latency == 6 for s in send_sites(filt))
    full = freqhop.build()
    assert {s.latency for s in send_sites(named(full, "quality"))} == {None}
    # As shipped (no noise): 6 periods a pass, the best-effort radio 1.
    for build, chunk in ((freqhop.build_teleport, 6), (freqhop.build, 1)):
        scalar, _, _ = run(build, "scalar", [600])
        out, interp, _ = run(build, "batched", [600], trace=True)
        assert interp.engine_used == "codegen"  # "batched" names the same engine
        assert interp.engine_report()["messaging"]["chunk_periods"] == chunk
        assert np.array_equal(out, scalar)
        records = interp.tracer.meta["teleports"]
        delivered = [r for r in records if r["delivered_n"] is not None]
        assert delivered and all(r["sdep_ok"] for r in delivered)


# -- (e) a latency lowered behind the schedule's back -------------------------


def test_lowering_a_latency_after_the_first_chunk_trips_the_guard():
    app = freqhop.build_teleport()
    interp = Interpreter(app, check=False, engine="batched")
    interp.run(12)
    assert interp.plan.message_slack == 6
    for filt in app.filters():
        if isinstance(filt, freqhop.HopDetector):
            filt.latency = 1
    with pytest.raises(MessagingError) as caught:
        interp.run_steady(600)
    text = str(caught.value)
    assert "-> rf2if.setf with latency 1" in text and "slack of 6" in text
    assert interp.plan.scale_in_flight == 1


# -- satellite: a raising work() leaves no stale sender ----------------------


class RaisesOnce(Filter):
    def __init__(self, portal):
        super().__init__(pop=1, push=1)
        self.portal = portal
        self.raised = False

    def work(self):
        if not self.raised:
            self.raised = True
            raise RuntimeError("once")
        self.push(self.pop())


@pytest.mark.parametrize("engine", ["scalar", "batched"])
@pytest.mark.parametrize("trace", [None, True])
def test_send_outside_work_is_refused_after_a_raising_work(engine, trace):
    portal = Portal()
    receiver = Retuned()
    portal.register(receiver)
    app = Pipeline(ArraySource([1.0]), receiver, RaisesOnce(portal), CollectSink())
    interp = Interpreter(app, check=False, engine=engine, trace=trace)
    with pytest.raises(RuntimeError, match="once"):
        interp.run(1)
    with pytest.raises(MessagingError, match="inside work"):
        portal.retune(2.0, interval=TimeInterval(max_time=1))
    assert receiver.log == []


# -- (f) the engine explains itself ------------------------------------------


def test_engine_report_names_the_binding_constraint():
    app = freqhop.build_teleport()
    interp = Interpreter(app, check=False, engine="batched")
    interp.run(2)  # init + one two-period call: the slack is derived
    report = interp.engine_report()["messaging"]
    assert report["chunk_periods"] == 6
    assert len(report["constraints"]) == 4
    assert report["limited_by"] == report["constraints"][0] == {
        "sender": "cfh_d0",
        "receiver": "rf2if",
        "portal": "freqHop",
        "method": "setf",
        "direction": "upstream",
        "latency": 6,
        "slack_periods": 6,
    }
    interp.plan.chunk_periods = 4  # the cap can lower the chunk, never raise it
    assert interp.engine_report()["messaging"]["chunk_periods"] == 4
    assert "chunk_periods" in interp.engine_report()["messaging"]["limited_by"]
    interp.plan.chunk_periods = 1000
    assert interp.engine_report()["messaging"]["chunk_periods"] == 6


def test_one_period_calls_never_derive_the_slack():
    app = freqhop.build_teleport()
    interp = Interpreter(app, check=False, engine="batched")
    interp.run(1)
    interp.run_steady(1)
    assert interp.engine_report()["messaging"] is None
    assert "messaging" not in Interpreter(
        Pipeline(ArraySource([1.0]), Gain(2.0), CollectSink()), engine="batched"
    ).engine_report()


def test_traced_spans_carry_the_real_scale():
    app = freqhop.build_teleport()
    interp = Interpreter(app, check=False, engine="batched", trace=True)
    interp.run(0)
    interp.run_steady(14)  # passes of 6, 6 and 2 periods
    [derived] = [e for e in interp.tracer.events if e["name"] == "plan.message_slack"]
    assert derived["args"] == {"constraints": 4}
    per_period = {node.name: reps for node, reps in interp.program.reps.items()}
    for name in ("rf2if", "cfh_d0", "check_freq_hop.split"):
        spans = [e for e in interp.tracer.events if e.get("name") == name and "dur" in e]
        assert [s["args"]["firings"] for s in spans] == [
            per_period[name] * scale for scale in (6, 6, 2)
        ]
