"""Tests for whole-program optimization: combination, frequency, selection."""

import numpy as np
import pytest

from repro.graph import (
    ArraySource,
    CollectSink,
    Identity,
    Pipeline,
    SplitJoin,
    duplicate,
    joiner_roundrobin,
)
from repro.linear import (
    FrequencyFilter,
    LinearFilter,
    apply_combination,
    apply_frequency,
    apply_selection,
    collapse_linear,
    subtree_cost_per_item,
)
from repro.runtime import Interpreter
from tests.helpers import FIR, Gain, Square, run_stream

DATA = [1.0, -2.0, 0.5, 3.0, -1.5, 2.5, 0.25, -0.75]
C1 = [0.5, -0.25, 1.0, 0.125]
C2 = [1.5, 0.75]


def linear_app():
    return Pipeline(
        ArraySource(DATA), FIR(C1, name="f1"), Gain(0.5), FIR(C2, name="f2"), CollectSink()
    )


def mixed_app():
    return Pipeline(
        ArraySource(DATA),
        FIR(C1, name="f1"),
        Square(),
        FIR(C2, name="f2"),
        Gain(2.0),
        CollectSink(),
    )


def reference_output(builder, periods):
    return run_stream(builder(), periods)


class TestCollapse:
    def test_pipeline_collapse(self):
        rep = collapse_linear(Pipeline(FIR(C1), Gain(2.0)))
        assert rep is not None and rep.peek == len(C1)

    def test_nonlinear_blocks_collapse(self):
        assert collapse_linear(Pipeline(FIR(C1), Square())) is None

    def test_splitjoin_collapse(self):
        sj = SplitJoin(duplicate(), [FIR(C2), Identity()], joiner_roundrobin())
        rep = collapse_linear(sj)
        assert rep is not None and rep.push == 2

    def test_existing_linear_filter_reused(self):
        from repro.linear import fir_rep

        lf = LinearFilter(fir_rep(C2))
        assert collapse_linear(lf) is lf.rep

    def test_frequency_filter_expands(self):
        from repro.linear import fir_rep

        ff = FrequencyFilter(fir_rep(C2), block=4)
        rep = collapse_linear(ff)
        assert rep.pop == 4


class TestRewriters:
    @pytest.mark.parametrize(
        "optimize", [apply_combination, apply_frequency, apply_selection]
    )
    def test_semantics_preserved_linear_app(self, optimize):
        base = reference_output(linear_app, periods=64)
        opt, report = optimize(linear_app())
        got = run_stream(opt, periods=64)
        m = min(len(base), len(got))
        assert m >= 48
        assert np.allclose(base[:m], got[:m])

    @pytest.mark.parametrize(
        "optimize", [apply_combination, apply_frequency, apply_selection]
    )
    def test_semantics_preserved_mixed_app(self, optimize):
        base = reference_output(mixed_app, periods=64)
        opt, report = optimize(mixed_app())
        got = run_stream(opt, periods=64)
        m = min(len(base), len(got))
        assert m >= 48
        assert np.allclose(base[:m], got[:m])

    def test_combination_merges_linear_run(self):
        opt, report = apply_combination(linear_app())
        linear_filters = [f for f in opt.filters() if isinstance(f, LinearFilter)]
        assert len(linear_filters) == 1  # the full f1+gain+f2 run
        assert linear_filters[0].rep.peek == len(C1) + len(C2) - 1

    def test_combination_stops_at_nonlinear(self):
        opt, report = apply_combination(mixed_app())
        names = [type(f).__name__ for f in opt.filters()]
        assert names.count("LinearFilter") == 2
        assert "Square" in names

    def test_frequency_mode_uses_fft_filters(self):
        opt, report = apply_frequency(linear_app())
        assert any(isinstance(f, FrequencyFilter) for f in opt.filters())

    def test_original_untouched(self):
        app = linear_app()
        filters_before = list(app.filters())
        apply_combination(app)
        assert list(app.filters()) == filters_before
        # The original still runs.
        out = run_stream(app, periods=8)
        assert len(out) == 8

    def test_splitjoin_whole_collapse(self):
        sj = SplitJoin(duplicate(), [FIR(C2), FIR(list(reversed(C2)))], joiner_roundrobin())
        app = Pipeline(ArraySource(DATA), sj, CollectSink())
        base = run_stream(app, periods=32)
        sj2 = SplitJoin(duplicate(), [FIR(C2), FIR(list(reversed(C2)))], joiner_roundrobin())
        opt, _ = apply_combination(Pipeline(ArraySource(DATA), sj2, CollectSink()))
        got = run_stream(opt, periods=32)
        m = min(len(base), len(got))
        assert np.allclose(base[:m], got[:m])
        assert not any(isinstance(s, SplitJoin) for s in opt.streams())


class TestSelectionChoices:
    def test_selection_prefers_freq_for_long_fir(self):
        app = Pipeline(ArraySource(DATA), FIR([0.01] * 128), CollectSink())
        opt, report = apply_selection(app)
        assert any(isinstance(f, FrequencyFilter) for f in opt.filters())

    def test_selection_prefers_direct_for_short_fir(self):
        app = Pipeline(ArraySource(DATA), FIR([1.0, 2.0]), CollectSink())
        opt, report = apply_selection(app)
        assert not any(isinstance(f, FrequencyFilter) for f in opt.filters())

    def test_selection_reduces_model_cost(self):
        app = linear_app()
        base_cost = sum(
            subtree_cost_per_item(c)
            for c in app.children()
            if not (c.rate.pop == 0 or c.rate.push == 0)
        )
        opt, _ = apply_selection(linear_app())
        opt_cost = sum(
            subtree_cost_per_item(c)
            for c in opt.children()
            if not (hasattr(c, "rate") and (c.rate.pop == 0 or c.rate.push == 0))
        )
        assert opt_cost <= base_cost


class TestLoopSafety:
    def test_loops_not_block_expanded(self):
        """Optimizing an app with a feedback loop must keep it schedulable
        (rate changes inside loops would outgrow the declared delay)."""
        from repro.apps import dtoa

        for optimize in (apply_combination, apply_frequency, apply_selection):
            opt, _ = optimize(dtoa.build())
            base = run_stream(dtoa.build(), periods=16)
            got = run_stream(opt, periods=16)
            m = min(len(base), len(got))
            assert m > 8 and np.allclose(base[:m], got[:m])

    @staticmethod
    def _shape(stream):
        """Class, name and (for filters) rates and plain attributes, recursively."""
        from repro.graph import Filter

        if isinstance(stream, Filter):
            plain = {
                k: v for k, v in vars(stream).items()
                if isinstance(v, (int, float, tuple, str)) and not k.startswith("_")
            }
            return (type(stream), stream.name, stream.rate, plain)
        return (type(stream), stream.name, [TestLoopSafety._shape(c) for c in stream.children()])

    @pytest.mark.parametrize(
        "optimize", [apply_combination, apply_frequency, apply_selection]
    )
    def test_nothing_inside_a_loop_is_replaced(self, optimize):
        """A loop's rates are fixed by its delay, so only a lone filter could
        be swapped for its own LinearFilter — which combines nothing and
        trades inlinable scalar flops for a per-firing GEMV."""
        from repro.graph import FeedbackLoop, roundrobin
        from repro.apps import dtoa

        def nested():
            loop = FeedbackLoop(
                joiner_roundrobin(1, 1),
                Pipeline(dtoa.ErrorShaper(name="shape"), Gain(2.0), Gain(0.5), name="body"),
                roundrobin(1, 1),
                Pipeline(Gain(1.0), Identity(), name="back"),
                delay=1,
                name="loop",
            )
            return Pipeline(
                ArraySource(DATA), FIR(C1, name="pre"), Gain(0.5), loop, CollectSink()
            )

        for build in (dtoa.build, nested):
            original = build()
            loop = next(s for s in original.streams() if isinstance(s, FeedbackLoop))
            opt, report = optimize(original)  # the input tree is never mutated
            [kept] = [s for s in opt.streams() if isinstance(s, FeedbackLoop)]
            assert kept is not loop and kept.delay == loop.delay
            assert self._shape(kept.body) == self._shape(loop.body)
            assert self._shape(kept.loopback) == self._shape(loop.loopback)
            assert not any("in loop" in note for note in report.replacements)
            # ... while everything outside the loop is still optimised.
            assert any(
                isinstance(f, (LinearFilter, FrequencyFilter)) for f in opt.filters()
            )

    def test_selected_dtoa_keeps_its_core_inline_under_codegen(self, tmp_path, monkeypatch):
        import warnings

        from repro.apps import dtoa

        monkeypatch.setenv("REPRO_CODEGEN_CACHE", str(tmp_path / "cgc"))
        opt, _ = apply_selection(dtoa.build())
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no SL305 fallback warning either
            with Interpreter(opt, check=False, engine="codegen", strict=True) as interp:
                interp.run(8)
                assert interp.engine_used == "codegen"
                blocks = interp.engine_report()["codegen"]["blocks"]
        cores = [b for b in blocks if b["kind"] == "core"]
        assert [b["mode"] for b in cores] == ["inline"]
