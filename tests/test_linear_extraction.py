"""Tests for linear extraction (the paper's linear dataflow analysis)."""

import ast
import inspect
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.effects import CHANNEL_ATTRS, CHANNEL_METHODS, method_ast
from repro.analysis.rates import value_fingerprint
from repro.apps import ALL_APPS
from repro.errors import ExtractionError
from repro.graph import Expander, Filter, Identity
from repro.linear import extract_linear, is_stateful, try_extract
from repro.runtime.channel import Channel
from tests.helpers import (
    FIR,
    Accumulator,
    Butterfly2,
    Downsample2,
    Gain,
    Offset,
    PeekAverage,
    Square,
    Upsample3,
)

# --- analyzable fixture filters (module scope so getsource works) ----------


class ConditionalConst(Filter):
    """Constant-condition branch: analyzable."""

    def __init__(self, flag):
        super().__init__(pop=1, push=1)
        self.flag = flag

    def work(self):
        x = self.pop()
        if self.flag:
            self.push(2.0 * x)
        else:
            self.push(-x)


class DataDependentBranch(Filter):
    def __init__(self):
        super().__init__(pop=1, push=1)

    def work(self):
        x = self.pop()
        if x > 0:
            self.push(x)
        else:
            self.push(-x)


class WhileLoop(Filter):
    """Constant-bounded while loop: analyzable."""

    def __init__(self):
        super().__init__(pop=1, push=1)

    def work(self):
        x = self.pop()
        total = 0.0
        i = 0
        while i < 4:
            total = total + x
            i = i + 1
        self.push(total)


class LocalListFilter(Filter):
    """Stores affine values in a local list (FFT-butterfly idiom)."""

    def __init__(self):
        super().__init__(pop=2, push=2)

    def work(self):
        vals = [0.0, 0.0]
        vals[0] = self.pop()
        vals[1] = self.pop()
        self.push(vals[0] + vals[1])
        self.push(vals[0] - vals[1])


class ChannelSpelling(Filter):
    """Uses self.input/self.output explicitly like the paper's code."""

    def __init__(self):
        super().__init__(pop=1, push=1)

    def work(self):
        self.output.push(self.input.pop() * 3.0)


class DividesByInput(Filter):
    def __init__(self):
        super().__init__(pop=2, push=1)

    def work(self):
        a = self.pop()
        b = self.pop()
        self.push(a / b)


class NumpyCoeffs(Filter):
    """Coefficients held in a numpy array attribute."""

    def __init__(self):
        super().__init__(pop=2, push=1)
        self.h = np.array([2.0, -1.0])

    def work(self):
        total = 0.0
        for i in range(2):
            total += self.peek(i) * self.h[i]
        self.pop()
        self.pop()
        self.push(total)


class RateCheat(Filter):
    """Pops more than declared: a rate-contract violation."""

    def __init__(self):
        super().__init__(pop=1, push=1)

    def work(self):
        self.pop()
        self.pop()
        self.push(0.0)


class AssertsOnInput(Filter):
    """A sanity check on stream data: no stream semantics."""

    def __init__(self):
        super().__init__(pop=1, push=1)

    def work(self):
        x = self.pop()
        assert x >= 0.0
        self.push(2.0 * x)


class ScalesThroughHelper(Filter):
    """The arithmetic lives in a helper method and a sliced coefficient list."""

    def __init__(self):
        super().__init__(pop=2, push=1)
        self.k = [3.0, -1.0, 9.0]

    def mix(self, a, b):
        k = self.k[:2]
        return a * k[0] + b * k[1]

    def work(self):
        a = self.pop()
        self.push(self.mix(a, self.pop()) + 1.0)


class TupleAssign(Filter):
    def __init__(self):
        super().__init__(pop=2, push=2)

    def work(self):
        a, b = self.pop(), self.pop()
        self.push(b)
        self.push(a)


class TestExtraction:
    def test_fir(self):
        rep = extract_linear(FIR([1.0, 2.0, 3.0]))
        assert rep is not None
        assert np.allclose(rep.A, [[1.0, 2.0, 3.0]])
        assert rep.pop == 1

    def test_gain_and_offset(self):
        rep = extract_linear(Gain(4.0))
        assert np.allclose(rep.A, [[4.0]]) and rep.b[0] == 0.0
        rep = extract_linear(Offset(7.0))
        assert np.allclose(rep.A, [[1.0]]) and rep.b[0] == 7.0

    def test_identity(self):
        rep = extract_linear(Identity())
        assert np.allclose(rep.A, [[1.0]])

    def test_butterfly(self):
        rep = extract_linear(Butterfly2())
        assert np.allclose(rep.A, [[1.0, 1.0], [1.0, -1.0]])

    def test_expander_and_decimator(self):
        rep = extract_linear(Expander(3))
        assert rep.push == 3 and np.allclose(rep.A[:, 0], [1.0, 0.0, 0.0])
        rep = extract_linear(Downsample2())
        assert rep.pop == 2 and np.allclose(rep.A, [[1.0, 0.0]])

    def test_peeking_window(self):
        rep = extract_linear(PeekAverage())
        assert rep.peek == 4 and rep.pop == 2
        assert np.allclose(rep.A, [[0.25] * 4])

    def test_constant_branch_taken(self):
        assert np.allclose(extract_linear(ConditionalConst(True)).A, [[2.0]])
        assert np.allclose(extract_linear(ConditionalConst(False)).A, [[-1.0]])

    def test_while_loop_unrolled(self):
        assert np.allclose(extract_linear(WhileLoop()).A, [[4.0]])

    def test_local_list_stores(self):
        rep = extract_linear(LocalListFilter())
        assert np.allclose(rep.A, [[1.0, 1.0], [1.0, -1.0]])

    def test_channel_attribute_spelling(self):
        assert np.allclose(extract_linear(ChannelSpelling()).A, [[3.0]])

    def test_numpy_coefficients(self):
        assert np.allclose(extract_linear(NumpyCoeffs()).A, [[2.0, -1.0]])

    def test_tuple_assignment(self):
        rep = extract_linear(TupleAssign())
        assert np.allclose(rep.A, [[0.0, 1.0], [1.0, 0.0]])

    def test_upsampler(self):
        rep = extract_linear(Upsample3())
        assert rep.push == 3

    def test_assertion_on_stream_data_is_ignored(self):
        assert np.allclose(extract_linear(AssertsOnInput()).A, [[2.0]])

    def test_helper_methods_are_inlined(self):
        rep = extract_linear(ScalesThroughHelper())
        assert np.array_equal(rep.A, [[3.0, -1.0]]) and np.array_equal(rep.b, [1.0])


class TestNonLinear:
    def test_square_rejected(self):
        result = try_extract(Square())
        assert not result.linear and not result.stateful
        assert "product" in result.reason

    def test_data_dependent_branch_rejected(self):
        result = try_extract(DataDependentBranch())
        assert not result.linear
        assert "data-dependent" in result.reason

    def test_division_by_input_rejected(self):
        assert not try_extract(DividesByInput()).linear

    def test_stateful_rejected_with_flag(self):
        result = try_extract(Accumulator())
        assert result.stateful and not result.linear

    def test_sources_and_sinks_not_linear(self):
        from repro.graph import ArraySource, NullSink

        assert not try_extract(ArraySource([1.0])).linear
        assert not try_extract(NullSink()).linear


class TestRateContract:
    def test_over_popping_raises(self):
        with pytest.raises(ExtractionError):
            try_extract(RateCheat())


class TestStatefulness:
    def test_stateless_filters(self):
        for f in (FIR([1.0]), Gain(1.0), Square(), Butterfly2(), PeekAverage()):
            assert not is_stateful(f)

    def test_stateful_filters(self):
        assert is_stateful(Accumulator())

    def test_app_state_classification(self):
        from repro.apps.radar import BeamFirFilter, MagnitudeDetector
        from repro.apps.vocoder import PhaseUnwrap
        from repro.apps.freqhop import RFtoIF

        assert is_stateful(BeamFirFilter([1.0, 2.0], 1))
        assert is_stateful(MagnitudeDetector())
        assert is_stateful(PhaseUnwrap(1.0))
        assert is_stateful(RFtoIF(8.0))

    def test_apps_stateless_filters(self):
        from repro.apps.fft import CombineDFT, FFTReorderSimple
        from repro.apps.des import SBox, KeyXor

        assert not is_stateful(CombineDFT(4))
        assert not is_stateful(FFTReorderSimple(8))
        assert not is_stateful(SBox(0))
        assert not is_stateful(KeyXor([1, 0, 1]))


class TestExtractionAgainstExecution:
    @settings(max_examples=20, deadline=None)
    @given(
        coeffs=st.lists(
            st.floats(min_value=-3, max_value=3, allow_nan=False), min_size=1, max_size=6
        )
    )
    def test_fir_rep_matches_runtime(self, coeffs):
        """The extracted rep computes exactly what the interpreter does."""
        from tests.helpers import run_pipeline

        rep = extract_linear(FIR(coeffs))
        data = [1.0, -2.0, 0.5, 3.0, -1.0, 2.0, 0.25, -0.75]
        periods = 6
        out = run_pipeline(FIR(coeffs), data=data, periods=periods)
        stream = [data[i % len(data)] for i in range(periods + len(coeffs) - 1)]
        expected = rep.apply_stream(stream)
        assert np.allclose(out, expected[: len(out)])


def _named_attributes(cls):
    """Every ``self.<name>`` in ``work()`` and the helpers it calls, but
    the channel operations."""
    names, todo, walked = set(), ["work"], set()
    while todo:
        method = todo.pop()
        if method in walked | CHANNEL_METHODS or not inspect.isfunction(getattr(cls, method, None)):
            continue
        walked.add(method)
        for node in ast.walk(method_ast(cls, method)):
            if isinstance(node, ast.Attribute) and ast.unparse(node.value) == "self":
                names.add(node.attr)
                todo.append(node.attr)
    return names - CHANNEL_ATTRS - CHANNEL_METHODS


def _shipped_linear_filters():
    """One filter per distinct (class, fingerprint of the attributes its
    ``work()`` names) over every app, keeping those extraction calls linear."""
    seen, cases = set(), []
    for app, build in sorted(ALL_APPS.items()):
        for filt in build().filters():
            reads = sorted(_named_attributes(type(filt)))
            key = (type(filt), tuple(value_fingerprint(getattr(filt, a, None)) for a in reads))
            if key in seen or not (filt.rate.pop and filt.rate.push):
                continue
            seen.add(key)
            if try_extract(filt).linear:
                cases.append(pytest.param(filt, id=f"{app}:{filt.name}"))
    return cases


@pytest.mark.parametrize("filt", _shipped_linear_filters())
def test_shipped_rep_equals_one_scalar_firing(filt):
    """The oracle for every rep the apps ship: ``A @ window + b`` is what one
    scalar ``work()`` firing pushes."""
    rep = try_extract(filt).rep
    window = np.random.default_rng(len(filt.name) + rep.peek).uniform(-2.0, 2.0, rep.peek)
    filt.input, filt.output = Channel("in", window.tolist()), Channel("out")
    try:
        filt.work()
        pushed = filt.output.snapshot()
        assert filt.input.popped_count == rep.pop
    finally:
        filt.input = filt.output = None
    assert len(pushed) == rep.push
    assert np.abs(rep.A @ window + rep.b - np.asarray(pushed)).max() <= 1e-12


class TestOneReaderOfWork:
    """The fork cannot come back: ``work()`` has one symbolic executor."""

    SRC = Path(__file__).resolve().parents[1] / "src"

    def test_one_module_defines_exec_stmt(self):
        hits = [
            str(p.relative_to(self.SRC))
            for p in self.SRC.rglob("*.py")
            if re.search(r"^\s*def exec_stmt\b", p.read_text(), re.M)
        ]
        assert hits == ["repro/analysis/rates.py"]

    def test_linear_package_walks_no_ast(self):
        for path in (self.SRC / "repro" / "linear").glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ClassDef):
                    bases = {ast.unparse(b) for b in node.bases}
                    assert not bases & {"ast.NodeVisitor", "NodeVisitor"}, (path.name, node.name)

    def test_one_analysis_module_dispatches_on_statements(self):
        hits = sorted(
            path.name
            for path in (self.SRC / "repro" / "analysis").glob("*.py")
            if re.search(r"\bast\.(Assign|AugAssign|For)\b", path.read_text())
        )
        assert hits == ["rates.py"]

    def test_effects_defines_no_statement_methods(self):
        tree = ast.parse((self.SRC / "repro" / "analysis" / "effects.py").read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                methods = {f.name for f in node.body if isinstance(f, ast.FunctionDef)}
                walkers = {"stmt", "body", "expr", "target", "exec_stmt", "exec_body", "generic_visit"}
                assert not methods & walkers, (node.name, methods & walkers)
                assert not any(m.startswith("visit_") for m in methods), node.name

    def test_the_effects_scanner_is_gone(self):
        import repro.analysis as analysis
        from repro.analysis import effects

        for name in ("work_effects", "WorkEffects", "_Scanner", "CallSite", "_site_latency"):
            assert not hasattr(effects, name) and not hasattr(analysis, name), name
