"""Tests for SDF rate solving and schedule construction."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import ALL_APPS
from repro.errors import SchedulingError
from repro.graph import (
    ArraySource,
    CollectSink,
    FeedbackLoop,
    Identity,
    NullSink,
    Pipeline,
    SplitJoin,
    duplicate,
    flatten,
    joiner_roundrobin,
    roundrobin,
)
from repro.scheduling import build_schedule, repetitions, steady_state_items
from tests.helpers import FIR, Downsample2, Gain, PeekAverage, Upsample3, run_pipeline


class TestRepetitions:
    def test_unit_chain(self):
        graph = flatten(Pipeline(ArraySource([1.0]), Gain(1.0), NullSink()))
        reps = repetitions(graph)
        assert all(r == 1 for r in reps.values())

    def test_rate_changers(self):
        graph = flatten(
            Pipeline(ArraySource([1.0]), Upsample3(), Downsample2(), NullSink())
        )
        reps = {n.name.split("_")[0]: r for n, r in repetitions(graph).items()}
        # up 3x then down 2x: source*2 -> up fires 2 -> 6 items -> down 3 -> 3 out
        by_node = list(repetitions(graph).values())
        graph2 = flatten(
            Pipeline(ArraySource([1.0]), Upsample3(), Downsample2(), NullSink())
        )
        reps2 = repetitions(graph2)
        counts = sorted(reps2.values())
        assert counts == [2, 2, 3, 3]

    def test_balance_equation_holds(self):
        from repro.apps import ALL_APPS

        for name, builder in ALL_APPS.items():
            graph = flatten(builder())
            reps = repetitions(graph)
            for e in graph.edges:
                assert reps[e.src] * e.push_rate == reps[e.dst] * e.pop_rate, name

    def test_minimality(self):
        from math import gcd

        from repro.apps import fft

        graph = flatten(fft.build(n=8))
        values = list(repetitions(graph).values())
        assert gcd(*values) == 1

    def test_splitjoin_weights(self):
        app = Pipeline(
            ArraySource([1.0]),
            SplitJoin(
                roundrobin(1, 2),
                [Identity(), Identity()],
                joiner_roundrobin(1, 2),
            ),
            NullSink(),
        )
        graph = flatten(app)
        reps = repetitions(graph)
        ids = sorted(
            reps[n] for n in graph.nodes if n.kind == "filter" and "Identity" in n.name
        )
        assert ids == [1, 2]

    def test_steady_state_items(self):
        graph = flatten(Pipeline(ArraySource([1.0]), Upsample3(), NullSink()))
        reps = repetitions(graph)
        items = steady_state_items(graph, reps)
        assert sorted(items.values()) == [1, 3]


class TestSchedules:
    def test_init_primes_peeking(self):
        graph = flatten(Pipeline(ArraySource([1.0]), FIR([1.0] * 5), NullSink()))
        prog = build_schedule(graph)
        # The source must run 4 extra firings before the steady state.
        src = next(n for n in graph.nodes if not n.in_edges)
        assert prog.init.counts().get(src, 0) == 4

    def test_no_init_without_peeking(self):
        graph = flatten(Pipeline(ArraySource([1.0]), Gain(1.0), NullSink()))
        prog = build_schedule(graph)
        assert prog.init.total_firings == 0

    def test_steady_counts_match_repetitions(self):
        from repro.apps import filterbank

        graph = flatten(filterbank.build())
        prog = build_schedule(graph)
        assert prog.steady.counts() == {
            n: r for n, r in prog.reps.items() if r > 0
        }

    def test_feedback_interleaving(self):
        # delay 1 forces the steady schedule to alternate around the loop.
        loop = FeedbackLoop(
            joiner_roundrobin(1, 1), Identity(), roundrobin(1, 1), Identity(), delay=1
        )
        graph = flatten(Pipeline(ArraySource([1.0]), loop, NullSink()))
        prog = build_schedule(graph)
        joiner = next(n for n in graph.nodes if n.kind == "joiner")
        assert prog.steady.counts()[joiner] >= 1

    def test_buffer_bounds_cover_execution(self):
        from repro.apps import tde

        graph = flatten(tde.build())
        prog = build_schedule(graph)
        for edge, bound in prog.buffer_bounds.items():
            assert bound >= len(edge.initial)
            assert bound >= 0

    def test_all_apps_schedule(self):
        from repro.apps import ALL_APPS

        for name, builder in ALL_APPS.items():
            graph = flatten(builder())
            prog = build_schedule(graph)
            assert prog.steady.total_firings > 0, name


class TestScheduleProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        up=st.integers(min_value=1, max_value=5),
        down=st.integers(min_value=1, max_value=5),
        taps=st.integers(min_value=1, max_value=9),
    )
    def test_random_rate_chain_schedules(self, up, down, taps):
        """Any up/FIR/down chain has a feasible periodic schedule whose
        per-period item counts balance on every channel."""

        class Up(type("U", (), {})):
            pass

        from repro.graph import Expander, Decimator

        graph = flatten(
            Pipeline(
                ArraySource([1.0, 2.0]),
                Expander(up),
                FIR([1.0] * taps),
                Decimator(down),
                NullSink(),
            )
        )
        prog = build_schedule(graph)
        for e in graph.edges:
            assert prog.reps[e.src] * e.push_rate == prog.reps[e.dst] * e.pop_rate

    @settings(max_examples=30, deadline=None)
    @given(periods=st.integers(min_value=1, max_value=7))
    def test_output_volume_scales_with_periods(self, periods):
        out = run_pipeline(PeekAverage(), data=[1.0, 2.0, 3.0, 4.0], periods=periods)
        assert len(out) == periods


# -- integer balance equations against the rational solver they replaced -----


def _fraction_repetitions(graph):
    """The balance equations over ``fractions.Fraction`` rates (the solver
    ``repetitions`` replaced with gcd-reduced integer pairs)."""
    from fractions import Fraction
    from math import gcd, lcm

    rate, components = {}, []
    for start in graph.nodes:
        if start in rate:
            continue
        rate[start] = Fraction(1)
        component, stack = [start], [start]
        while stack:
            node = stack.pop()
            for edge in node.in_edges + node.out_edges:
                if edge.push_rate == 0 or edge.pop_rate == 0:
                    continue
                if edge.src is node:
                    other, implied = edge.dst, rate[node] * edge.push_rate / edge.pop_rate
                else:
                    other, implied = edge.src, rate[node] * edge.pop_rate / edge.push_rate
                if other in rate:
                    if rate[other] != implied:
                        raise SchedulingError(
                            f"inconsistent stream rates at {edge.src.name} -> "
                            f"{edge.dst.name}: no periodic schedule exists "
                            f"(expected rate {implied}, got {rate[other]})"
                        )
                else:
                    rate[other] = implied
                    component.append(other)
                    stack.append(other)
        components.append(component)
    result = {}
    for component in components:
        denom = lcm(*(rate[n].denominator for n in component))
        ints = [int(rate[n] * denom) for n in component]
        g = gcd(*ints) if len(ints) > 1 else ints[0]
        result.update((node, value // g) for node, value in zip(component, ints))
    return result


def _solve(solver, graph):
    try:
        return solver(graph)
    except SchedulingError as exc:
        return str(exc)


@pytest.mark.parametrize("name", sorted(ALL_APPS))
def test_integer_rates_match_the_rational_solver_on_every_app(name):
    graph = flatten(ALL_APPS[name]())
    assert repetitions(graph) == _fraction_repetitions(graph)


@settings(max_examples=80, deadline=None)
@given(
    rates=st.lists(
        st.tuples(st.integers(1, 6), st.integers(1, 6)), min_size=1, max_size=4
    ),
    weights=st.tuples(*[st.integers(0, 4)] * 4),
)
def test_integer_rates_match_the_rational_solver(rates, weights):
    """Rate-changing chains and splitjoins whose weights may not balance:
    the same vector, or the same SchedulingError text."""
    from repro.graph import Decimator, Expander

    def changer(up, down):
        return Pipeline(Expander(up), Decimator(down))

    w1, w2, v1, v2 = weights
    sj = SplitJoin(
        roundrobin(max(w1, 1), w2),
        [changer(*rates[0]), changer(*rates[-1])],
        joiner_roundrobin(v1, max(v2, 1)),
    )
    stages = [changer(up, down) for up, down in rates[1:-1]]
    graph = flatten(Pipeline(ArraySource([1.0]), *stages, sj, NullSink()))
    assert _solve(repetitions, graph) == _solve(_fraction_repetitions, graph)
