"""Cross-cutting property-based tests on the core invariants."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import EngineDowngradeWarning
from repro.graph import (
    ArraySource,
    CollectSink,
    Decimator,
    Expander,
    Identity,
    Pipeline,
    SplitJoin,
    duplicate,
    flatten,
    joiner_roundrobin,
    roundrobin,
)
from repro.graph.base import Filter
from repro.graph.composites import FeedbackLoop
from repro.linear import LinearRep, combine_pipeline, extract_linear, fir_rep
from repro.runtime import Channel, Interpreter
from repro.runtime.messaging import Portal, TimeInterval
from repro.scheduling import build_schedule, repetitions
from repro.graph.splitjoin import combine
from tests.helpers import (
    FIR,
    Accumulator,
    Fold,
    Gain,
    Peek3,
    feedback_app,
    run_calls,
    run_pipeline,
)

rng = np.random.default_rng(7)

finite_floats = st.floats(min_value=-100, max_value=100, allow_nan=False)


class TestChannelProperties:
    @settings(max_examples=50, deadline=None)
    @given(items=st.lists(finite_floats, max_size=60))
    def test_fifo_order_preserved(self, items):
        ch = Channel()
        for v in items:
            ch.push(v)
        assert [ch.pop() for _ in items] == items

    @settings(max_examples=50, deadline=None)
    @given(
        ops=st.lists(
            st.one_of(st.just("push"), st.just("pop")), min_size=1, max_size=200
        )
    )
    def test_counters_invariant(self, ops):
        """pushed - popped == occupancy, always."""
        ch = Channel()
        for op in ops:
            if op == "push":
                ch.push(1.0)
            elif ch.occupancy:
                ch.pop()
        assert ch.pushed_count - ch.popped_count == ch.occupancy
        assert ch.occupancy >= 0


class TestSchedulingProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        up=st.integers(min_value=1, max_value=6),
        down=st.integers(min_value=1, max_value=6),
    )
    def test_rate_conversion_volume(self, up, down):
        """A steady period of up(u)/down(d) moves exactly lcm-scaled items."""
        from math import lcm

        from repro.graph import NullSink

        graph = flatten(
            Pipeline(ArraySource([1.0]), Expander(up), Decimator(down), NullSink())
        )
        reps = repetitions(graph)
        expander = next(n for n in graph.nodes if "Expander" in n.name)
        decimator = next(n for n in graph.nodes if "Decimator" in n.name)
        assert reps[expander] * up == reps[decimator] * down == lcm(up, down)

    @settings(max_examples=25, deadline=None)
    @given(
        branches=st.integers(min_value=2, max_value=5),
        periods=st.integers(min_value=1, max_value=4),
    )
    def test_duplicate_fanout_volume(self, branches, periods):
        """A duplicate split-join of identities emits n copies per input."""
        sj = SplitJoin(
            duplicate(),
            [Identity() for _ in range(branches)],
            joiner_roundrobin(),
        )
        out = run_pipeline(sj, data=[1.0, 2.0], periods=periods * 2)
        assert len(out) == periods * 2 * branches

    @settings(max_examples=25, deadline=None)
    @given(taps=st.integers(min_value=2, max_value=12))
    def test_peek_priming_exact(self, taps):
        """Init schedule supplies exactly taps-1 extra source firings."""
        from repro.graph import NullSink

        graph = flatten(Pipeline(ArraySource([1.0]), FIR([1.0] * taps), NullSink()))
        prog = build_schedule(graph)
        assert prog.init.total_firings == taps - 1


class TestLinearAlgebraProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        taps1=st.integers(min_value=1, max_value=5),
        taps2=st.integers(min_value=1, max_value=5),
        taps3=st.integers(min_value=1, max_value=5),
    )
    def test_combination_associative(self, taps1, taps2, taps3):
        """(f;g);h == f;(g;h) for FIR cascades."""
        f = fir_rep(rng.normal(size=taps1))
        g = fir_rep(rng.normal(size=taps2))
        h = fir_rep(rng.normal(size=taps3))
        left = combine_pipeline(combine_pipeline(f, g), h)
        right = combine_pipeline(f, combine_pipeline(g, h))
        assert left.equivalent(right)

    @settings(max_examples=30, deadline=None)
    @given(taps=st.integers(min_value=1, max_value=6))
    def test_identity_is_neutral(self, taps):
        f = fir_rep(rng.normal(size=taps))
        ident = fir_rep([1.0])
        assert combine_pipeline(f, ident).equivalent(f)
        assert combine_pipeline(ident, f).equivalent(f)

    @settings(max_examples=30, deadline=None)
    @given(
        k1=st.integers(min_value=1, max_value=4),
        k2=st.integers(min_value=1, max_value=4),
    )
    def test_expansion_composes(self, k1, k2):
        """expand(k1).expand(k2) == expand(k1*k2)."""
        rep = LinearRep(rng.normal(size=(2, 3)), rng.normal(size=2), pop=2)
        assert rep.expand(k1).expand(k2).equivalent(rep.expand(k1 * k2))

    @settings(max_examples=20, deadline=None)
    @given(
        gains=st.lists(
            st.floats(min_value=-4, max_value=4, allow_nan=False),
            min_size=2,
            max_size=5,
        )
    )
    def test_gain_chain_multiplies(self, gains):
        """Extracted chained gains combine to the product gain."""
        reps = [fir_rep([g]) for g in gains]
        combined = reps[0]
        for rep in reps[1:]:
            combined = combine_pipeline(combined, rep)
        assert np.isclose(combined.A[0, 0], float(np.prod(gains)))


class TestEndToEndProperties:
    @settings(max_examples=15, deadline=None)
    @given(
        taps=st.lists(
            st.floats(min_value=-2, max_value=2, allow_nan=False),
            min_size=1,
            max_size=8,
        ),
        periods=st.integers(min_value=4, max_value=24),
    )
    def test_optimization_equivalence(self, taps, periods):
        """apply_combination never changes a program's output stream."""
        from repro.linear import apply_combination
        from tests.helpers import run_stream

        data = [1.0, -1.0, 2.0, 0.5]

        def build():
            return Pipeline(ArraySource(data), FIR(taps), CollectSink())

        base = run_stream(build(), periods)
        opt, _ = apply_combination(build())
        got = run_stream(opt, periods)
        assert np.allclose(base, got[: len(base)])

    @settings(max_examples=10, deadline=None)
    @given(k=st.integers(min_value=2, max_value=4), taps=st.integers(min_value=2, max_value=5))
    def test_fission_equivalence(self, k, taps):
        """Fission never changes a program's output stream."""
        from repro.transforms import fiss

        data = [1.0, -1.0, 2.0, 0.5, 3.0, -2.0]
        coeffs = list(rng.normal(size=taps))
        base = run_pipeline(FIR(coeffs), data=data, periods=4 * k)
        got = run_pipeline(fiss(FIR(coeffs), k), data=data, periods=4)
        m = min(len(base), len(got))
        assert m > 0 and np.allclose(base[:m], got[:m])


# ---------------------------------------------------------------------------
# Differential fuzzing: random graphs, scalar vs batched, bit-exact
# ---------------------------------------------------------------------------


class _FuzzMap(Filter):
    """Stateless elementwise map (exercises the generic vector lift)."""

    def __init__(self, a: float, b: float, mode: int) -> None:
        super().__init__(pop=1, push=1)
        self.a = a
        self.b = b
        self.mode = mode

    def work(self) -> None:
        x = self.pop()
        if self.mode == 0:
            y = self.a * x + self.b
        elif self.mode == 1:
            y = math.sin(x) * self.a
        else:
            y = x * x - self.b
        self.push(y)


class _FuzzPeek(Filter):
    """Stateless peeking weighted sum (exercises the sliding-window lift)."""

    def __init__(self, taps) -> None:
        super().__init__(peek=len(taps), pop=1, push=1)
        self.taps = tuple(taps)

    def work(self) -> None:
        total = 0.0
        for i in range(len(self.taps)):
            total += self.peek(i) * self.taps[i]
        self.pop()
        self.push(total)


class _FuzzRate(Filter):
    """Stateless multi-rate (pop p, push q) reducer/expander."""

    def __init__(self, p: int, q: int) -> None:
        super().__init__(pop=p, push=q)

    def work(self) -> None:
        total = 0.0
        for _ in range(self.rate.pop):
            total += self.pop()
        for j in range(self.rate.push):
            self.push(total * (j + 1))


class _FuzzPairSort(Filter):
    """Stateless compare-exchange lane (pop 2, push 2)."""

    def __init__(self, ascending: bool) -> None:
        super().__init__(pop=2, push=2)
        self.ascending = ascending

    def work(self) -> None:
        a = self.pop()
        b = self.pop()
        if (a <= b) == self.ascending:
            self.push(a)
            self.push(b)
        else:
            self.push(b)
            self.push(a)


class _FuzzLookup(Filter):
    """Stateless table lookup (data-dependent index: never vector-lifted)."""

    def __init__(self, table) -> None:
        super().__init__(pop=1, push=1)
        self.table = tuple(table)

    def work(self) -> None:
        self.push(self.table[int(abs(self.pop()) * 3.0) % len(self.table)])


class _FuzzStateful(Filter):
    """Serial recurrence (the trial demotes this to the hoisted loop path)."""

    def __init__(self) -> None:
        super().__init__(pop=1, push=1)
        self.acc = 0.0

    def init(self) -> None:
        self.acc = 0.0

    def work(self) -> None:
        self.acc = self.acc * 0.5 + self.pop()
        self.push(self.acc)


class _FuzzShaper(Filter):
    """Feedback-loop body: merges the input with the fed-back item."""

    def __init__(self, leak: float) -> None:
        super().__init__(pop=2, push=2)
        self.leak = leak

    def work(self) -> None:
        x = self.pop()
        fed = self.pop()
        y = x - self.leak * fed
        self.push(y)
        self.push(y * 0.5)


class _FuzzGain(Filter):
    """Teleport receiver: gain retuned by ``set_gain`` messages."""

    def __init__(self) -> None:
        super().__init__(pop=1, push=1)
        self.gain = 1.0

    def init(self) -> None:
        self.gain = 1.0

    def set_gain(self, gain: float) -> None:
        self.gain = gain

    def work(self) -> None:
        self.push(self.pop() * self.gain)


class _FuzzSender(Filter):
    """Teleport sender: messages the portal on a threshold crossing."""

    def __init__(self, portal: Portal, threshold: float, latency: int) -> None:
        super().__init__(pop=1, push=1)
        self.portal = portal
        self.threshold = threshold
        self.latency = latency
        self._quiet = 0

    def init(self) -> None:
        self._quiet = 0

    def work(self) -> None:
        value = self.pop()
        if self._quiet > 0:
            self._quiet -= 1
        elif value > self.threshold:
            self.portal.set_gain(
                2.0 + (value - self.threshold) % 1.0,
                interval=TimeInterval(max_time=self.latency),
            )
            self._quiet = 3
        self.push(value)


def _random_stage(gen):
    kind = int(gen.integers(0, 5))
    if kind == 0:
        return _FuzzMap(
            float(gen.uniform(-2, 2)), float(gen.uniform(-1, 1)), int(gen.integers(0, 3))
        )
    if kind == 1:
        return _FuzzPeek([float(v) for v in gen.uniform(-1, 1, size=int(gen.integers(2, 6)))])
    if kind == 2:
        return _FuzzRate(int(gen.integers(1, 4)), int(gen.integers(1, 4)))
    if kind == 3:
        return _FuzzStateful()
    branches = int(gen.integers(2, 4))
    children = [
        Pipeline(_FuzzMap(float(gen.uniform(-2, 2)), 0.0, 0), Identity())
        if gen.integers(0, 2)
        else _FuzzStateful()
        for _ in range(branches)
    ]
    if gen.integers(0, 2):
        return SplitJoin(duplicate(), children, joiner_roundrobin())
    return SplitJoin(
        roundrobin(*([1] * branches)), children, joiner_roundrobin(*([1] * branches))
    )


def _random_flat_splitjoin(gen):
    """A flat splitjoin of pure rate-preserving lanes with random (balanced)
    weights — the shape region lowering consumes.  Draws identical lanes
    (collapse), Identity shuffles (permute) and mixed lanes (columns),
    behind roundrobin or duplicate splitters."""
    branches = int(gen.integers(2, 5))
    table = [float(v) for v in gen.uniform(-3, 3, size=4)]
    a, b = float(gen.uniform(-2, 2)), float(gen.uniform(-1, 1))
    up = bool(gen.integers(0, 2))
    makers = [
        Identity,
        lambda: _FuzzMap(a, b, 0),
        lambda: _FuzzPairSort(up),
        lambda: _FuzzLookup(table),
    ]
    flavour = int(gen.integers(0, 3))
    if flavour == 0:  # identical lanes, now and then with one odd one out
        lanes = [makers[int(gen.integers(1, 4))]] * branches
        children = [make() for make in lanes]
        if gen.integers(0, 3) == 0:
            children[-1] = _FuzzMap(a + 1.0, b, 0)
    elif flavour == 1:
        children = [Identity() for _ in range(branches)]
    else:
        children = [makers[int(gen.integers(0, 4))]() for _ in range(branches)]
    unit = [child.rate.pop for child in children]  # push == pop on every lane
    if gen.integers(0, 4) == 0:
        width = int(gen.integers(1, 4))
        return SplitJoin(
            duplicate(), children, joiner_roundrobin(*([width] * branches))
        )
    same = flavour == 0 and gen.integers(0, 2)
    reps = [1 if same else int(gen.integers(1, 3)) for _ in children]
    m_split, m_join = int(gen.integers(1, 4)), int(gen.integers(1, 4))
    if same:
        m_join = m_split
    return SplitJoin(
        roundrobin(*(u * r * m_split for u, r in zip(unit, reps))),
        children,
        joiner_roundrobin(*(u * r * m_join for u, r in zip(unit, reps))),
    )


def _mix(items):
    return items[0] - 0.25 * items[1]


#: Loop stages by what they make the inlined core do: literal peeks stay
#: forwardable, a stored-and-read attribute must not be hoisted, pushes under
#: an ``if`` and peeks in a ``for`` must stay taped, a COMBINE joiner calls
#: its reducer.  All are rate 1:1.
_LOOP_STAGES = {
    "peek3": lambda g: Peek3(*(float(v) for v in g.uniform(-0.5, 0.5, size=3))),
    "fir": lambda g: FIR([float(v) for v in g.uniform(-0.5, 0.5, size=3)]),
    "acc": lambda g: Accumulator(),
    "fold": lambda g: Fold(float(g.uniform(-0.5, 0.5))),
    "gain": lambda g: Gain(float(g.uniform(-0.9, 0.9))),
    "dup": lambda g: SplitJoin(
        duplicate(), [Gain(float(g.uniform(-0.9, 0.9))), Accumulator()], combine(_mix)
    ),
}
_PEEKING = ("peek3", "fir")


def _random_loop_stages(gen, delay):
    """``(body, loopback)`` stage kinds a loop with ``delay`` primed items
    can schedule: a two-item peek residue needs delay >= 2 on the body and
    3 on the way back, and the delays drawn here cover only one of them."""
    plain = [k for k in _LOOP_STAGES if k not in _PEEKING]
    body = [str(k) for k in gen.choice(plain, size=int(gen.integers(0, 3)))]
    loopback = [str(k) for k in gen.choice(plain, size=int(gen.integers(0, 2)))]
    where = int(gen.integers(0, 3))
    if where == 1 and delay >= 2:
        body.insert(int(gen.integers(0, len(body) + 1)), str(gen.choice(_PEEKING)))
    elif where == 2 and delay >= 3:
        loopback.append(str(gen.choice(_PEEKING)))
    return body, loopback


def _run_engine(build, engine, periods, chunk_periods=None, **engine_opts):
    app = build()
    sink = next(f for f in app.filters() if isinstance(f, CollectSink))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EngineDowngradeWarning)
        interp = Interpreter(app, check=False, engine=engine, **engine_opts)
        if chunk_periods is not None:
            # Superbatch and segmented plans both read this at run time.
            interp.plan.chunk_periods = chunk_periods
        try:
            interp.run(periods=periods)
        finally:
            interp.close()
    return list(sink.collected), interp


@pytest.fixture(scope="module", autouse=True)
def _isolated_codegen_cache():
    """Keep fuzz-generated codegen modules out of the repo's cache dir."""
    import os
    import tempfile

    from repro.runtime import clear_codegen_cache

    old = os.environ.get("REPRO_CODEGEN_CACHE")
    with tempfile.TemporaryDirectory() as tmp:
        os.environ["REPRO_CODEGEN_CACHE"] = tmp
        clear_codegen_cache()
        yield
    if old is None:
        os.environ.pop("REPRO_CODEGEN_CACHE", None)
    else:
        os.environ["REPRO_CODEGEN_CACHE"] = old
    clear_codegen_cache()


class TestBatchedEngineDifferential:
    """Randomized engine-differential tests: every generated graph must
    produce bit-identical outputs on the scalar, batched, and codegen
    engines (a three-way matrix — the codegen module splices the same
    kernels the batched plan runs, so it inherits the same contract).
    The pipeline and feedback tests rerun both compiled engines with
    ``plan.chunk_periods`` in {1, 2, 3}, so the run really splits into
    several chunks."""

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_random_pipelines_bit_exact(self, seed):
        gen = np.random.default_rng(seed)
        data = [float(v) for v in gen.uniform(-4, 4, size=8)]
        n_stages = int(gen.integers(1, 4))
        spec_seed = int(gen.integers(0, 2**32))
        chunk = int(gen.integers(1, 4))

        def build():
            g = np.random.default_rng(spec_seed)
            return Pipeline(
                ArraySource(data),
                *[_random_stage(g) for _ in range(n_stages)],
                CollectSink(),
            )

        scalar, _ = _run_engine(build, "scalar", 5)
        batched, interp = _run_engine(build, "batched", 5)
        assert interp.engine_used == "batched"
        assert batched == scalar
        generated, cg_interp = _run_engine(build, "codegen", 5)
        assert cg_interp.engine_used == "codegen"
        assert generated == scalar
        # The chunk-split arms: 5 periods in chunks of 1-3 must give the
        # same bits — chunking must never change semantics.
        for engine in ("batched", "codegen"):
            split, split_interp = _run_engine(build, engine, 5, chunk_periods=chunk)
            assert split_interp.engine_used == engine
            assert split == scalar

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_random_flat_splitjoins_bit_exact(self, seed):
        """The region-lowering arm: whatever tier each random splitjoin
        takes (or is refused), all three engines agree bit for bit, in one
        chunk and in chunks of 1-3 periods."""
        gen = np.random.default_rng(seed)
        data = [float(v) for v in gen.uniform(-4, 4, size=12)]
        n_regions = int(gen.integers(1, 3))
        spec_seed = int(gen.integers(0, 2**32))
        chunk = int(gen.integers(1, 4))

        def build():
            g = np.random.default_rng(spec_seed)
            return Pipeline(
                ArraySource(data),
                *[_random_flat_splitjoin(g) for _ in range(n_regions)],
                CollectSink(),
            )

        scalar, _ = _run_engine(build, "scalar", 5)
        for engine in ("batched", "codegen"):
            whole, interp = _run_engine(build, engine, 5)
            assert interp.engine_used == engine
            assert whole == scalar
            rows = interp.engine_report()["regions"]
            assert len(rows) == n_regions and all(r["tier"] for r in rows), rows
            split, _ = _run_engine(build, engine, 5, chunk_periods=chunk)
            assert split == scalar

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        delay=st.integers(min_value=1, max_value=4),
    )
    def test_random_feedback_loops_bit_exact(self, seed, delay):
        gen = np.random.default_rng(seed)
        data = [float(v) for v in gen.uniform(-2, 2, size=6)]
        leak = float(gen.uniform(0.1, 0.9))
        taps = [float(v) for v in gen.uniform(-1, 1, size=4)]
        chunk = int(gen.integers(1, 4))

        def build():
            loop = FeedbackLoop(
                joiner_roundrobin(1, 1),
                _FuzzShaper(leak),
                roundrobin(1, 1),
                Identity(),
                delay=delay,
                init_path=lambda i: 0.0,
            )
            return Pipeline(
                ArraySource(data), _FuzzPeek(taps), loop, _FuzzMap(0.5, 1.0, 0), CollectSink()
            )

        scalar, _ = _run_engine(build, "scalar", 6)
        batched, interp = _run_engine(build, "batched", 6)
        assert interp.engine_used == "batched"
        assert [b.kind for b in interp.plan.blocks].count("core") == 1
        assert batched == scalar
        generated, cg_interp = _run_engine(build, "codegen", 6)
        assert cg_interp.engine_used == "codegen"
        assert generated == scalar
        for engine in ("batched", "codegen"):
            split, split_interp = _run_engine(build, engine, 6, chunk_periods=chunk)
            assert split_interp.engine_used == engine
            assert [b.kind for b in split_interp.plan.blocks].count("core") == 1
            assert split == scalar

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        delay=st.sampled_from([1, 2, 3]),
        rounds=st.sampled_from([1, 2, 9, 11]),
    )
    def test_random_feedback_bodies_bit_exact(self, seed, delay, rounds):
        """The inlined core keeps some tapes in locals and some on lists,
        by what the loop's filters do; whatever mix a random loop gets, the
        engines agree bit for bit however the run is chopped, and a
        codegen run handed to the interpreted core runner mid-session
        carries on from the state the forwarded tapes left behind."""
        gen = np.random.default_rng(seed)
        data = [float(v) for v in gen.uniform(-2, 2, size=7)]
        body, loopback = _random_loop_stages(gen, delay)
        spec_seed = int(gen.integers(0, 2**32))
        total = 10
        first = int(gen.integers(1, total))

        def build():
            g = np.random.default_rng(spec_seed)
            return feedback_app(
                data,
                [_LOOP_STAGES[k](g) for k in body],
                [_LOOP_STAGES[k](g) for k in loopback],
                delay=delay,
                rounds=rounds,  # > 8: the core's round is emitted once, in a loop
                leak=float(g.uniform(0.1, 0.9)),
            )

        scalar, _ = run_calls(build, "scalar", (total,))
        assert len(scalar) == total * rounds
        choppings = ((total,), (1,) * total, (first, total - first))
        for engine in ("batched", "codegen"):
            for calls in choppings:
                got, interp = run_calls(build, engine, calls)
                assert interp.engine_used == engine
                assert got == scalar, (engine, calls)
        (core,) = [
            b for b in interp.engine_report()["codegen"]["blocks"] if b["kind"] == "core"
        ]
        assert core["mode"] == "inline"
        kinds = body + loopback
        if "fold" in kinds:  # its pushes sit under an ``if``
            assert any(name.startswith("Fold_") for name in core["taped"])
        if "fir" in kinds:  # its peeks sit in a ``for``
            assert any("->FIR_" in name for name in core["taped"])
        assert not any(name.endswith(".total") for name in core["hoisted"])
        assert any(name.endswith(".leak") for name in core["hoisted"])
        got, interp = run_calls(build, "codegen", (first, total - first), downgrade_before=1)
        assert interp.engine_used == "batched"
        assert got == scalar

    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        latency=st.integers(min_value=1, max_value=12),
        upstream=st.booleans(),
    )
    def test_random_portal_messaging_bit_exact(self, seed, latency, upstream):
        gen = np.random.default_rng(seed)
        data = [float(v) for v in gen.uniform(-4, 4, size=8)]
        threshold = float(gen.uniform(0.0, 2.0))

        def build():
            portal = Portal()
            receiver = _FuzzGain()
            portal.register(receiver)
            sender = _FuzzSender(portal, threshold, latency)
            stages = (
                [receiver, _FuzzMap(1.5, 0.0, 0), sender]
                if upstream
                else [sender, _FuzzMap(1.5, 0.0, 0), receiver]
            )
            return Pipeline(ArraySource(data), *stages, CollectSink())

        # 24 periods: an upstream receiver runs ``latency`` periods per pass
        # (tests/test_teleport_chunks.py), so the run spans several passes.
        scalar, scalar_interp = _run_engine(build, "scalar", 24)
        batched, interp = _run_engine(build, "batched", 24)
        assert scalar_interp.has_messaging
        assert interp.engine_used == "batched"
        assert batched == scalar
        if upstream:
            assert interp.plan.message_slack == latency
        # Teleport messaging disables codegen for the whole plan (SL305):
        # the request must still run, batched, with identical output.
        generated, cg_interp = _run_engine(build, "codegen", 24)
        assert cg_interp.engine_used in ("batched", "scalar")
        assert generated == scalar

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_certified_filters_take_trusted_path_bit_exact(self, seed):
        """Differential guard on the static vectorization proof.

        Any filter the analyzer certifies (SL300) must actually run on the
        trusted lifted path — no trial clones, and never a runtime
        demotion to loop mode (a demotion would mean the proof was
        unsound) — while the whole graph stays bit-exact vs scalar.
        """
        from repro.analysis import analyze_filter

        gen = np.random.default_rng(seed)
        data = [float(v) for v in gen.uniform(-4, 4, size=8)]
        n_stages = int(gen.integers(1, 4))
        spec_seed = int(gen.integers(0, 2**32))

        def build():
            g = np.random.default_rng(spec_seed)
            return Pipeline(
                ArraySource(data),
                *[_random_stage(g) for _ in range(n_stages)],
                CollectSink(),
            )

        scalar, _ = _run_engine(build, "scalar", 5)
        batched, interp = _run_engine(build, "batched", 5)
        assert batched == scalar
        report = interp.plan.vectorization_report()
        certified = 0
        for node in interp.graph.filter_nodes():
            analysis = analyze_filter(node.filter)
            info = report.get(node.name)
            if info is None or info["kind"] == "work_batch":
                continue
            if analysis.certified:
                certified += 1
                assert info["kind"] != "loop", (
                    f"{node.name}: certified filter was demoted to loop "
                    f"mode ({info['code']}: {info['reason']}) — unsound proof"
                )
                if info["kind"] == "lifted":
                    assert info["trusted"], (
                        f"{node.name}: certified filter took the trial path"
                    )
            elif info["kind"] == "lifted":
                # Uncertified filters may still lift, but only through the
                # audited trial path, never on trust.
                assert not info["trusted"], node.name
        # The generator always emits at least one certifiable stage kind in
        # most draws; the guard is vacuous only if nothing certified.
        stateless = [
            n for n in interp.graph.filter_nodes()
            if type(n.filter).__name__ in ("_FuzzMap", "_FuzzPeek", "_FuzzRate")
        ]
        if stateless:
            assert certified > 0

    def test_fused_chain_bit_exact(self):
        """A deterministic all-SISO pipeline must fuse and stay bit-exact."""

        def build():
            return Pipeline(
                ArraySource([1.0, -2.0, 3.5, 0.25]),
                _FuzzMap(1.25, -0.5, 0),
                _FuzzMap(0.75, 0.25, 2),
                _FuzzRate(2, 3),
                _FuzzMap(-1.5, 0.0, 1),
                CollectSink(),
            )

        scalar, _ = _run_engine(build, "scalar", 7)
        batched, interp = _run_engine(build, "batched", 7)
        assert interp.plan.fused_chains, "expected at least one fused chain"
        assert batched == scalar
        generated, cg_interp = _run_engine(build, "codegen", 7)
        assert cg_interp.engine_used == "codegen"
        assert generated == scalar


class TestParallelEngineDifferential:
    """The parallel engine must be bit-exact against scalar and batched.

    Random pipelines from the fuzz generator are run under every mapping
    strategy at ``cores=2``.  Strategies that cannot split the graph (or
    graphs the parallel engine refuses) downgrade to batched with SL304 —
    that structured fallback is accepted; a parallel run with *different
    output* is not.
    """

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_parallel_matches_scalar_and_batched(self, seed):
        from repro.mapping.strategies import STRATEGIES

        gen = np.random.default_rng(seed)
        data = [float(v) for v in gen.uniform(-4, 4, size=8)]
        n_stages = int(gen.integers(1, 4))
        spec_seed = int(gen.integers(0, 2**32))

        def build():
            g = np.random.default_rng(spec_seed)
            return Pipeline(
                ArraySource(data),
                *[_random_stage(g) for _ in range(n_stages)],
                CollectSink(),
            )

        scalar, _ = _run_engine(build, "scalar", 5)
        batched, _ = _run_engine(build, "batched", 5)
        assert batched == scalar
        ran_parallel = []
        for strategy in STRATEGIES:
            out, interp = _run_engine(
                build, "parallel", 5, strategy=strategy, cores=2
            )
            if interp.engine_used != "parallel":
                # Structured downgrade (SL304) — output must still match.
                assert out == scalar, f"{strategy}: downgraded run diverged"
                continue
            ran_parallel.append(strategy)
            assert out == scalar, f"{strategy}: parallel output diverged"


# ---------------------------------------------------------------------------
# Differential fuzzing: whole-graph analysis artifacts (fusion regions and
# ring-capacity proofs) on random splitjoin graphs
# ---------------------------------------------------------------------------


def _random_pure_stage(g):
    """A filter the analyzer can certify: pure, exact rates."""
    if g.integers(0, 2):
        return _FuzzMap(
            float(g.uniform(-2, 2)), float(g.uniform(-1, 1)), int(g.integers(0, 3))
        )
    return _FuzzPeek(
        [float(v) for v in g.uniform(-1, 1, size=int(g.integers(2, 5)))]
    )


def _random_certifiable_splitjoin(g):
    """A splitjoin whose branches are chains of pure SISO filters —
    exactly the shape ``certified_fusion_regions`` must accept."""
    branches = int(g.integers(2, 5))
    children = []
    for _ in range(branches):
        stages = [_random_pure_stage(g) for _ in range(int(g.integers(1, 3)))]
        children.append(Pipeline(*stages) if len(stages) > 1 else stages[0])
    if g.integers(0, 2):
        return SplitJoin(duplicate(), children, joiner_roundrobin())
    return SplitJoin(
        roundrobin(*([1] * branches)), children, joiner_roundrobin(*([1] * branches))
    )


class TestGraphAnalysisDifferential:
    """Randomized guards on the whole-graph analysis artifacts.

    Every random splitjoin built from pure branches must yield a certified
    fusion region; codegen must stay bit-exact vs scalar on it; and
    the parallel engine must run stall-free at the statically-proved
    minimal ring capacities (``RING_SLACK_BATCHES = 0``) with identical output.
    """

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_certified_regions_fuse_bit_exact(self, seed):
        from repro.analysis.graph import certified_fusion_regions
        from repro.graph.flatgraph import flatten

        gen = np.random.default_rng(seed)
        data = [float(v) for v in gen.uniform(-4, 4, size=8)]
        spec_seed = int(gen.integers(0, 2**32))

        def build():
            g = np.random.default_rng(spec_seed)
            stages = [_random_certifiable_splitjoin(g)]
            if g.integers(0, 2):
                stages.append(_random_pure_stage(g))
            return Pipeline(ArraySource(data), *stages, CollectSink())

        regions = certified_fusion_regions(flatten(build()))
        assert regions, "pure-branch splitjoin must certify a region"

        scalar, _ = _run_engine(build, "scalar", 5)
        generated, _ = _run_engine(build, "codegen", 5)
        assert generated == scalar

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_parallel_stall_free_at_proved_capacity(self, seed):
        gen = np.random.default_rng(seed)
        data = [float(v) for v in gen.uniform(-4, 4, size=8)]
        spec_seed = int(gen.integers(0, 2**32))

        def build():
            g = np.random.default_rng(spec_seed)
            return Pipeline(
                ArraySource(data),
                _random_certifiable_splitjoin(g),
                _random_pure_stage(g),
                CollectSink(),
            )

        scalar, _ = _run_engine(build, "scalar", 5)
        with pytest.MonkeyPatch.context() as patch:  # per Hypothesis example
            patch.setattr("repro.runtime.parallel.RING_SLACK_BATCHES", 0)
            out, interp = _run_engine(
                build, "parallel", 5, strategy="softpipe", cores=2
            )
        assert out == scalar
        if interp.engine_used == "parallel":
            session = interp.parallel
            proofs = session.ring_proofs
            assert all(p.proved for p in proofs.values())
            for edge in session.ring_edges:
                assert session.channels[edge].capacity == proofs[edge].capacity
