"""Tests for information wavefronts: closed forms vs. the oracle."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SchedulingError
from repro.graph import (
    ArraySource,
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
from repro.scheduling import (
    WavefrontOracle,
    filter_tf,
    identity_tf,
    joiner_branch_tf,
    pipeline_tf,
    splitter_branch_tf,
)
from tests.helpers import FIR, Downsample2, Gain, PeekAverage, Upsample3
from tests.test_teleport_chunks import random_portal_graph


class MultiRate:
    """Factory for a pop=2 push=3 peek=4 filter defined in helpers-like way."""


class TestClosedForms:
    def test_filter_max_formula(self):
        tf = filter_tf(peek=4, pop=2, push=3)
        # x < peek-pop -> 0 firings possible
        assert tf.max(1) == 0
        # n = floor((x - 2) / 2) firings, each pushing 3
        assert tf.max(2) == 0
        assert tf.max(4) == 3
        assert tf.max(6) == 6
        assert tf.max(7) == 6

    def test_filter_min_formula(self):
        tf = filter_tf(peek=4, pop=2, push=3)
        # ceil(x/3)*2 + 2
        assert tf.min(0) == 0  # operational reading at x=0
        assert tf.min(1) == 4
        assert tf.min(3) == 4
        assert tf.min(4) == 6

    def test_min_max_adjoint(self):
        """min(x) is the least y with max(y) >= x (Galois connection)."""
        tf = filter_tf(peek=5, pop=3, push=2)
        for x in range(1, 30):
            y = tf.min(x)
            assert tf.max(y) >= x
            assert y == 0 or tf.max(y - 1) < x

    def test_identity_composition(self):
        tf = filter_tf(peek=3, pop=1, push=1).then(identity_tf())
        assert tf.max(10) == 8
        assert tf.min(5) == 7

    def test_pipeline_composition_order(self):
        up = filter_tf(peek=1, pop=1, push=2)
        down = filter_tf(peek=3, pop=3, push=1)
        tf = pipeline_tf([up, down])
        # 6 inputs -> 12 intermediates -> 4 outputs
        assert tf.max(6) == 4
        # 1 output needs 3 intermediates needs 2 inputs
        assert tf.min(1) == 2

    def test_splitter_forms(self):
        tf0 = splitter_branch_tf((2, 1), 0)
        assert tf0.max(3) == 2
        assert tf0.max(5) == 2
        assert tf0.min(3) == 6
        dup = splitter_branch_tf((1, 1), 0, duplicate=True)
        assert dup.max(7) == 7 and dup.min(7) == 7

    def test_joiner_forms(self):
        tf0 = joiner_branch_tf((2, 1), 0)
        assert tf0.min(3) == 2
        assert tf0.max(4) == 6

    @settings(max_examples=60, deadline=None)
    @given(
        peek_extra=st.integers(min_value=0, max_value=4),
        pop=st.integers(min_value=1, max_value=4),
        push=st.integers(min_value=1, max_value=4),
        x=st.integers(min_value=0, max_value=60),
    )
    def test_filter_tf_monotone(self, peek_extra, pop, push, x):
        tf = filter_tf(peek=pop + peek_extra, pop=pop, push=push)
        assert tf.max(x) <= tf.max(x + 1)
        assert tf.min(x) <= tf.min(x + 1)


def two_filter_app(up, down):
    return Pipeline(ArraySource([1.0]), up, down, NullSink())


class TestOracle:
    def _graph_and_oracle(self, *stages):
        graph = flatten(Pipeline(ArraySource([1.0]), *stages, NullSink()))
        return graph, WavefrontOracle(graph)

    def test_matches_filter_closed_form(self):
        fir = FIR([1.0, 2.0, 3.0])
        graph, oracle = self._graph_and_oracle(fir, Gain(1.0))
        node = graph.node_for(fir)
        a, b = node.in_edges[0], node.out_edges[0]
        tf = filter_tf(3, 1, 1)
        for x in range(0, 25):
            assert oracle.max_items(a, b, x) == tf.max(x)
        for x in range(1, 25):
            assert oracle.min_items(a, b, x) == tf.min(x)

    def test_matches_pipeline_composition(self):
        up, down = Upsample3(), PeekAverage()
        graph, oracle = self._graph_and_oracle(up, down)
        a = graph.node_for(up).in_edges[0]
        b = graph.node_for(down).out_edges[0]
        tf = pipeline_tf([filter_tf(1, 1, 3), filter_tf(4, 2, 1)])
        for x in range(0, 20):
            assert oracle.max_items(a, b, x) == tf.max(x)
        for x in range(1, 20):
            assert oracle.min_items(a, b, x) == tf.min(x)

    def test_periodic_extrapolation_consistent(self):
        """Large-x queries (cached affine extrapolation) agree with the
        closed form."""
        fir = FIR([0.5] * 4)
        graph, oracle = self._graph_and_oracle(fir, Downsample2())
        a = graph.node_for(fir).in_edges[0]
        b = graph.node_for(fir).out_edges[0]
        tf = filter_tf(4, 1, 1)
        for x in (100, 1000, 12345):
            assert oracle.max_items(a, b, x) == tf.max(x)
            assert oracle.min_items(a, b, x) == tf.min(x)

    def test_not_upstream_raises(self):
        up, down = Gain(1.0), Gain(2.0)
        graph, oracle = self._graph_and_oracle(up, down)
        a = graph.node_for(up).in_edges[0]
        b = graph.node_for(down).out_edges[0]
        with pytest.raises(SchedulingError):
            oracle.max_items(b, a, 5)

    def test_duplicate_splitjoin_wavefront(self):
        sj = SplitJoin(duplicate(), [Identity(), Gain(2.0)], joiner_roundrobin())
        app = Pipeline(ArraySource([1.0]), sj, NullSink())
        graph = flatten(app)
        oracle = WavefrontOracle(graph)
        splitter = next(n for n in graph.nodes if n.kind == "splitter")
        joiner = next(n for n in graph.nodes if n.kind == "joiner")
        a = splitter.in_edges[0]
        b = joiner.out_edges[0]
        # Each input item yields two joined outputs (one per branch).
        assert oracle.max_items(a, b, 5) == 10
        assert oracle.min_items(a, b, 10) == 5

    def test_weighted_roundrobin_wavefront(self):
        """The case the paper leaves open: weighted round-robin nodes."""
        sj = SplitJoin(
            roundrobin(2, 1),
            [Identity(), Identity()],
            joiner_roundrobin(2, 1),
        )
        graph = flatten(Pipeline(ArraySource([1.0]), sj, NullSink()))
        oracle = WavefrontOracle(graph)
        splitter = next(n for n in graph.nodes if n.kind == "splitter")
        joiner = next(n for n in graph.nodes if n.kind == "joiner")
        a, b = splitter.in_edges[0], joiner.out_edges[0]
        assert oracle.max_items(a, b, 6) == 6
        assert oracle.max_items(a, b, 5) == 3  # partial cycle can't join

    def test_feedback_loop_wavefront_includes_delay(self):
        loop = FeedbackLoop(
            joiner_roundrobin(1, 1), Identity(), roundrobin(1, 1), Identity(), delay=2
        )
        graph = flatten(Pipeline(ArraySource([1.0]), loop, NullSink()))
        oracle = WavefrontOracle(graph)
        joiner = next(n for n in graph.nodes if n.kind == "joiner")
        o_fj = joiner.out_edges[0]
        i2 = joiner.in_edges[1]
        # Items on the loopback tape include the 2 delay items.
        around = oracle.max_items(o_fj, i2, 4)
        assert around == 2 + 2  # delay + floor(4/2) routed around

    @settings(max_examples=25, deadline=None)
    @given(
        taps=st.integers(min_value=1, max_value=6),
        x=st.integers(min_value=1, max_value=40),
    )
    def test_oracle_galois_property(self, taps, x):
        """min and max form a Galois connection on any pipeline."""
        fir = FIR([1.0] * taps)
        graph = flatten(Pipeline(ArraySource([1.0]), fir, Downsample2(), NullSink()))
        oracle = WavefrontOracle(graph)
        a = graph.node_for(fir).in_edges[0]
        b = graph.edges[-1]
        y = oracle.min_items(a, b, x)
        assert oracle.max_items(a, b, y) >= x
        if y > 0:
            assert oracle.max_items(a, b, y - 1) < x


# -- the tabulated oracle against the probing one it replaced -----------------


class _ProbingOracle(WavefrontOracle):
    """``max`` as one fresh simulation per probe (below the transient) and
    ``min`` as an exponential + binary search over it: the oracle before
    ``max[a->b]`` was tabulated once per pair."""

    def max_items(self, a, b, x):
        if a is b:
            return x
        p_a, p_b = self._period_items(a), self._period_items(b)
        transient = 8 * p_a + len(a.initial) + 64
        if x > transient:
            periods = (x - transient + p_a - 1) // p_a
            return self.max_items(a, b, x - periods * p_a) + periods * p_b
        return self._max_items_direct(a, b, x)

    def min_items(self, a, b, x):
        if a is b:
            return x
        if x <= len(b.initial):
            return 0
        p_a, p_b = self._period_items(a), self._period_items(b)
        transient = 8 * p_b + len(b.initial) + 64
        if x > transient:
            periods = (x - transient + p_b - 1) // p_b
            return self.min_items(a, b, x - periods * p_b) + periods * p_a
        lo, hi = 0, max(1, len(a.initial))
        while self.max_items(a, b, hi) < x:
            hi *= 2
        while lo < hi:
            mid = (lo + hi) // 2
            if self.max_items(a, b, mid) >= x:
                hi = mid
            else:
                lo = mid + 1
        return lo


def _portal_pairs(app):
    """``(upstream tape, downstream tape)`` of every sender and receiver."""
    from repro.runtime.messaging import Portal

    graph = flatten(app)
    nodes = {node.filter: node for node in graph.filter_nodes()}
    pairs = []
    for node in graph.filter_nodes():
        for value in vars(node.filter).values():
            if isinstance(value, Portal):
                for receiver in value.receivers:
                    tapes = (node.out_edges[0], nodes[receiver].out_edges[0])
                    pairs.append(tapes)
                    pairs.append(tapes[::-1])
    return graph, pairs


def _same_answers(app, xs):
    graph, pairs = _portal_pairs(app)
    tabled, probing = WavefrontOracle(graph), _ProbingOracle(graph)
    checked = 0
    for a, b in pairs:
        if not tabled.is_upstream(a, b):
            continue
        for x in xs:
            assert tabled.max_items(a, b, x) == probing.max_items(a, b, x), (a, b, x)
            assert tabled.min_items(a, b, x) == probing.min_items(a, b, x), (a, b, x)
        checked += 1
    return checked


def test_tabulated_oracle_answers_freqhop_as_the_probing_one():
    from repro.apps import freqhop

    for build in (freqhop.build_teleport, freqhop.build):
        assert _same_answers(build(), [-1] + list(range(0, 240, 8)) + [1000, 4321])


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=100_000))
def test_tabulated_oracle_answers_portal_fuzz_graphs_as_the_probing_one(seed):
    assert _same_answers(random_portal_graph(seed)(), list(range(-1, 120)) + [777, 5001])
