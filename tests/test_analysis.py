"""Tests for the static work()-function analysis framework (repro.analysis).

Filters are defined at module level (not in test bodies) so that
``inspect.getsource`` — which every pass relies on — sees real source.
The adversarial section exercises the cases the passes must not be
fooled by: pushes inside ``while`` loops, state writes via ``setattr``,
and ``self`` aliased through helper methods.
"""

from __future__ import annotations

import ast
import gc
import json
import sys
import textwrap
import warnings
import weakref

import numpy as np
import pytest

from repro.analysis import (
    CODES,
    Severity,
    affine_prescreen,
    analyze_filter,
    analyze_stream,
    classify,
)
from repro.analysis import executor as executor_mod
from repro.analysis import rates as rates_mod
from repro.analysis.effects import method_ast
from repro.analysis.lint import main as lint_main
from repro.analysis.executor import RateAnalyzer
from repro.analysis.rates import _fingerprint
from repro.apps import ALL_APPS
from repro.apps.common import Adder, FIRFilter
from repro.errors import ValidationError
from repro.graph import ArraySource, CollectSink, Filter, Pipeline, validate
from repro.graph import source as source_mod
from repro.graph.source import SourceUnavailable, function_ast
from repro.linear import apply_selection
from repro.linear.extraction import is_stateful, try_extract
from repro.machine.model import ModelGraph
from repro.runtime import Interpreter, clear_codegen_cache
from repro.runtime.messaging import Portal
from repro.runtime.plan import clear_plan_cache
from repro.transforms import fiss
from tests.helpers import FIR, Gain


def codes_of(filt, refresh=True):
    analysis = analyze_filter(filt, refresh=refresh)
    return analysis, {d.code for d in analysis.diagnostics}


def pipe(filt):
    return Pipeline(ArraySource([float(i) for i in range(16)]), filt, CollectSink())


# ---------------------------------------------------------------------------
# Crafted bad filters: one per diagnostic code.
# ---------------------------------------------------------------------------


class BadPush(Filter):
    """Declares push=2 but only ever pushes one item (SL001)."""

    def __init__(self):
        super().__init__(pop=1, push=2)

    def work(self):
        self.push(self.pop())


class BadPop(Filter):
    """Declares pop=1 but pops two items (SL002)."""

    def __init__(self):
        super().__init__(pop=1, push=1)

    def work(self):
        a = self.pop()
        b = self.pop()
        self.push(a + b)


class PeekOOB(Filter):
    """Peeks past the declared window (SL003)."""

    def __init__(self):
        super().__init__(peek=2, pop=1, push=1)

    def work(self):
        self.push(self.peek(0) + self.peek(3))
        self.pop()


class WhilePusher(Filter):
    """Pushes inside a data-dependent while loop (SL005, adversarial)."""

    def __init__(self):
        super().__init__(pop=1, push=1)

    def work(self):
        x = self.pop()
        while x > 0.5:
            self.push(x)
            x = x - 1.0


class PeekScanner(Filter):
    """Scans forward with peek() in a data-dependent loop before popping.

    Adversarial for interval widening: the *peek window* is unbounded, but
    the pop/push counts are exactly 1 — the checker must keep the counts
    exact (no SL005/SL001) and report only an unbounded lookahead.
    """

    def __init__(self):
        super().__init__(peek=4, pop=1, push=1)

    def work(self):
        i = 0
        while self.peek(i) < 0.5:
            i = i + 1
        self.push(self.pop())


class OverPeek(Filter):
    """Declares peek=8 but only ever inspects offset 0 (SL007)."""

    def __init__(self):
        super().__init__(peek=8, pop=1, push=1)

    def work(self):
        self.push(self.peek(0) * 2.0)
        self.pop()


class LiarStateless(Filter):
    """Claims stateless=True while mutating an attribute (SL102)."""

    stateless = True

    def __init__(self):
        super().__init__(pop=1, push=1)
        self.n = 0

    def work(self):
        self.n += 1
        self.push(self.pop() + self.n)


class SetattrState(Filter):
    """Writes state through setattr — unbounded write set (SL103)."""

    def __init__(self):
        super().__init__(pop=1, push=1)
        self.x = 0.0

    def work(self):
        setattr(self, "x", self.pop())
        self.push(self.x)


_ESCAPED = []


class EscapingSelf(Filter):
    """Passes self to foreign code — no effect guarantees apply (SL104)."""

    def __init__(self):
        super().__init__(pop=1, push=1)

    def work(self):
        _ESCAPED.append(self)
        self.push(self.pop())


class AliasHelperState(Filter):
    """Mutates state through a self-alias inside a helper (adversarial)."""

    def __init__(self):
        super().__init__(pop=1, push=1)
        self.count = 0

    def _bump(self):
        me = self
        me.count += 1

    def work(self):
        self._bump()
        self.push(self.pop() + self.count)


class AliasBufWriter(Filter):
    """Mutates a list through a local alias of a self attribute."""

    def __init__(self):
        super().__init__(pop=1, push=1)
        self.buf = [0.0, 0.0]

    def work(self):
        buf = self.buf
        buf[0] = self.pop()
        self.push(buf[0] + buf[1])


class SuppressedBadPush(BadPush):
    lint_suppress = ("SL001",)


class AttrCaller(Filter):
    """Calls a method on an attribute: send if Portal, mutation otherwise."""

    def __init__(self, target):
        super().__init__(pop=1, push=1)
        self.target = target

    def work(self):
        self.target.append(self.pop())
        self.push(1.0)


class BranchMergeEqual(Filter):
    """Unresolvable branch, but both arms push the same count (exact)."""

    def __init__(self):
        super().__init__(pop=1, push=1)

    def work(self):
        x = self.pop()
        if x > 0:
            self.push(x)
        else:
            self.push(-x)


class BranchMergeUnequal(Filter):
    """Arms disagree on push count: declared rate only *possibly* met."""

    def __init__(self):
        super().__init__(pop=1, push=2)

    def work(self):
        x = self.pop()
        if x > 0:
            self.push(x)
            self.push(x)
        else:
            self.push(-x)


class HelperPusher(Filter):
    """Channel ops inside an inlined helper method are still counted."""

    def __init__(self):
        super().__init__(pop=2, push=2)

    def _emit(self, v):
        self.push(v * 2.0)

    def work(self):
        self._emit(self.pop())
        self._emit(self.pop())


# ---------------------------------------------------------------------------
# Effects / purity pass.
# ---------------------------------------------------------------------------


class TestEffects:
    def test_stateless_map(self):
        rep = classify(Gain(2.0))
        assert rep.classification == "stateless"
        assert rep.pure
        assert rep.mutated == ()

    def test_peeking(self):
        rep = classify(FIR([1.0, 2.0, 3.0]))
        assert rep.classification == "peeking"
        assert rep.pure

    def test_aliased_buffer_write_detected(self):
        rep = classify(AliasBufWriter())
        assert rep.classification == "stateful"
        assert "buf" in rep.mutated

    def test_aliased_self_in_helper_detected(self):
        rep = classify(AliasHelperState())
        assert rep.classification == "stateful"
        assert "count" in rep.mutated

    def test_setattr_is_dynamic(self):
        rep = classify(SetattrState())
        assert rep.classification == "stateful"
        assert rep.dynamic

    def test_self_escape_detected(self):
        rep = classify(EscapingSelf())
        assert rep.classification == "stateful"
        assert rep.escapes

    def test_attr_call_resolved_per_instance(self):
        # Same class, same bytecode: a Portal target is a message send,
        # anything else is a conservative mutation.
        sender = classify(AttrCaller(Portal()))
        assert ("target", "append") in sender.message_sends
        assert "target" not in sender.mutated
        mutator = classify(AttrCaller([]))
        assert mutator.classification == "stateful"
        assert "target" in mutator.mutated

    def test_class_level_effects_cached(self):
        # Equal instances share one executor run, and so its facts.
        assert classify(Gain(2.0)).facts is classify(Gain(2.0)).facts


# ---------------------------------------------------------------------------
# Symbolic rate checking.
# ---------------------------------------------------------------------------


class TestRates:
    def test_fir_rates_exact_and_in_bounds(self):
        analysis, codes = codes_of(FIR([0.5] * 4))
        assert analysis.rates.exact
        assert analysis.rates.max_peek == 3
        assert not codes & {"SL001", "SL002", "SL003", "SL005"}

    def test_push_mismatch(self):
        analysis, codes = codes_of(BadPush())
        assert "SL001" in codes
        [diag] = analysis.diagnostics.by_code("SL001")
        assert "push=2" in diag.message and "1 item(s)" in diag.message

    def test_pop_mismatch(self):
        _, codes = codes_of(BadPop())
        assert "SL002" in codes

    def test_peek_out_of_bounds(self):
        analysis, codes = codes_of(PeekOOB())
        assert "SL003" in codes
        assert analysis.rates.peek_violations

    def test_push_inside_while_degrades_not_lies(self):
        # Adversarial: an unbounded data-dependent loop must produce an
        # honest "can't count" warning, never a definite-mismatch error.
        analysis, codes = codes_of(WhilePusher())
        assert "SL005" in codes
        assert "SL001" not in codes and "SL002" not in codes
        assert analysis.rates.dynamic

    def test_peek_scan_before_pop_keeps_counts_exact(self):
        # Regression: the while-loop widener used to treat the peeks as
        # consuming, widening pop to [1, inf) and emitting a false SL005.
        # peek() is non-consuming: counts stay exact, only the lookahead
        # window becomes unbounded (an honest certification blocker).
        import math

        analysis, codes = codes_of(PeekScanner())
        assert analysis.rates.exact
        assert analysis.rates.pop.exact and analysis.rates.pop.hi == 1
        assert analysis.rates.push.exact and analysis.rates.push.hi == 1
        assert not analysis.rates.dynamic
        assert math.isinf(analysis.rates.max_peek)
        assert analysis.rates.cert_blockers
        assert not codes & {"SL001", "SL002", "SL005"}

    def test_over_declared_peek_is_info(self):
        analysis, codes = codes_of(OverPeek())
        assert "SL007" in codes
        [diag] = analysis.diagnostics.by_code("SL007")
        assert diag.severity == Severity.INFO

    def test_branch_merge_equal_counts_exact(self):
        analysis, codes = codes_of(BranchMergeEqual())
        assert analysis.rates.exact
        assert not codes & {"SL001", "SL005"}

    def test_branch_merge_unequal_counts_warns(self):
        _, codes = codes_of(BranchMergeUnequal())
        assert "SL005" in codes
        assert "SL001" not in codes

    def test_helper_channel_ops_counted(self):
        analysis, codes = codes_of(HelperPusher())
        assert analysis.rates.exact
        assert not codes & {"SL001", "SL002", "SL005"}

    def test_missing_work(self):
        _, codes = codes_of(Filter(pop=1, push=1))
        assert "SL006" in codes

    def test_tampered_rate_rejected(self):
        filt = Gain(3.0)
        object.__setattr__(filt.rate, "push", -2)
        _, codes = codes_of(filt)
        assert "SL004" in codes

    def test_peek_below_pop_rejected(self):
        filt = BadPop()
        object.__setattr__(filt.rate, "peek", 0)
        object.__setattr__(filt.rate, "pop", 2)
        analysis, codes = codes_of(filt)
        assert "SL004" in codes
        [diag] = analysis.diagnostics.by_code("SL004")
        assert "peek=0" in diag.message and "pop=2" in diag.message

    def test_analysis_never_mutates_the_instance(self):
        filt = AliasBufWriter()
        analyze_filter(filt, refresh=True)
        assert filt.buf == [0.0, 0.0]

    def test_analysis_never_sends_real_messages(self):
        # An unbound Portal raises MessagingError the moment any message
        # method is invoked, so a clean analysis (no SL005 internal-error
        # degradation) proves the analyzer never called through it.
        analysis, codes = codes_of(AttrCaller(Portal()))
        assert ("target", "append") in analysis.effects.message_sends
        assert "SL005" not in codes


# ---------------------------------------------------------------------------
# The read-set memo under analyze_rates: sound, value-keyed, holds no filter.
# ---------------------------------------------------------------------------


class ArrayBound(Filter):
    """Push count read out of an ndarray attribute."""

    def __init__(self, n):
        super().__init__(pop=1, push=n)
        self.bounds = np.array([n, 0])

    def work(self):
        x = self.pop()
        for _ in range(int(self.bounds[0])):
            self.push(x)


class PortalGuard(Filter):
    """Reads (never calls) a Portal attribute: an opaque value."""

    def __init__(self, portal):
        super().__init__(pop=1, push=1)
        self.portal = portal

    def work(self):
        x = self.pop()
        if self.portal is not None:
            x = x + 1.0
        self.push(x)


@pytest.fixture
def analyzer_runs(monkeypatch):
    """Names of the filters the symbolic executor actually ran on."""
    ran = []
    real_run = RateAnalyzer.run

    def run(self):
        ran.append(self.filt.name)
        return real_run(self)

    monkeypatch.setattr(RateAnalyzer, "run", run)
    return ran


#: Read by ``PopsGlobal.work()``; tests reassign it.
POPS = 2


class PopsGlobal(Filter):
    """Pops a module global's worth of items against a declared pop of 2."""

    def __init__(self):
        super().__init__(pop=2, push=1)

    def work(self):
        total = 0.0
        for _ in range(POPS):
            total += self.pop()
        self.push(total)


def _scale(x):
    return 2.0 * x


class CallsModuleFunction(Filter):
    """Reads a module-level function: an opaque global."""

    def __init__(self):
        super().__init__(pop=1, push=1)

    def work(self):
        self.push(_scale(self.pop()))


class TestRateMemo:
    @pytest.fixture(autouse=True)
    def _empty_store(self, tmp_path, monkeypatch):
        """These tests count executor runs: no report may come from a
        stored entry another test left behind."""
        monkeypatch.setenv("REPRO_CODEGEN_CACHE", str(tmp_path / "cgc"))
        rates_mod.MEMO.clear()

    def test_memoised_report_equals_fresh_run_on_every_app_filter(self):
        for name, build in sorted(ALL_APPS.items()):
            build()  # first instances fill the memo...
            analyze_stream(build())
            for filt in build().filters():  # ...these are served from it
                analysis = analyze_filter(filt)
                if analysis.rates is None:
                    continue
                fresh = RateAnalyzer(filt).run()
                assert analysis.rates == fresh, (name, filt.name)

    def test_repeated_template_is_analysed_once(self, analyzer_runs):
        rates_mod.MEMO.clear()
        analyze_stream(ALL_APPS["DCT"]())
        first = len(analyzer_runs)
        analyze_stream(ALL_APPS["DCT"]())
        assert 0 < first < len(list(ALL_APPS["DCT"]().filters()))
        assert len(analyzer_runs) == first  # second build: all hits

    def test_mutated_scalar_attribute_yields_new_report(self):
        adder = Adder(4)
        assert analyze_filter(adder).rates.pop.lo == 4
        adder.n = 2
        analysis, codes = codes_of(adder)
        assert analysis.rates.pop.exact and analysis.rates.pop.lo == 2
        assert "SL002" in codes

    def test_coefficients_of_another_length_yield_new_report(self):
        fir = FIRFilter([0.25] * 4)
        assert analyze_filter(fir).rates.max_peek == 3
        fir.coeffs = type(fir.coeffs)([0.25] * 2)
        analysis, _ = codes_of(fir)
        assert analysis.rates.max_peek == 1

    def test_ndarray_edited_in_place_yields_new_report(self):
        filt = ArrayBound(2)
        assert analyze_filter(filt).rates.push.lo == 2
        filt.bounds[0] = 3
        analysis, codes = codes_of(filt)
        assert analysis.rates.push.exact and analysis.rates.push.lo == 3
        assert "SL001" in codes

    def test_fingerprints_are_type_and_sign_exact(self):
        distinct = [
            0.0, -0.0, 1, 1.0, True, 1 + 0j, "1", b"1", None,
            [1], [1.0], [True], (1,), [[1]], [(1,)], [1, [2.0]], [1, [2]],
            np.array([1, 2]), np.array([1.0, 2.0]), np.array([[1, 2]]),
            np.array([0.0]), np.array([-0.0]),
        ]
        prints = [_fingerprint(v) for v in distinct]
        assert None not in prints
        assert len(set(prints)) == len(distinct)
        assert _fingerprint([1.5, (2, "x")]) == _fingerprint([1.5, (2, "x")])
        for opaque in (Portal(), {"a": 1}, {1}, object(), [1, object()],
                       np.array([object()])):
            assert _fingerprint(opaque) is None

    def test_flat_sequences_are_told_apart_exactly_as_their_items(self):
        # A flat list or tuple of exact scalars is one repr; it must keep
        # the classes one (type, repr) per item gave.
        pool = [1, 1.0, True, 0, 0.0, -0.0, float("nan"), float("inf"), 1 + 0j,
                "1", b"1", "a, b", "a", " b", "'", None]
        seqs = [kind(s) for kind in (list, tuple) for s in (
            [], *([x] for x in pool), *([x, y] for x in pool for y in pool))]

        def items(seq):
            return type(seq), tuple((type(v), repr(v)) for v in seq)

        prints = [(_fingerprint(s), items(s)) for s in seqs]
        for print_a, items_a in prints:
            for print_b, items_b in prints:
                assert (print_a == print_b) == (items_a == items_b), (items_a, items_b)
        # ...and never meets the recursive form: nesting still separates.
        nested = [[1.0, 2.0], [[1.0, 2.0]], [(1.0, 2.0)], [[1.0], [2.0]], ([1.0, 2.0],)]
        assert len({_fingerprint(s) for s in nested}) == len(nested)
        assert _fingerprint([[1.0, 2.0], [3.0]]) == _fingerprint([[1.0, 2.0], [3.0]])
        assert _fingerprint([[1.0, 2.0], [3.0]]) != _fingerprint([[1.0, 2.0], [3]])
        assert _fingerprint([1.0, np.float64(2.0)]) is None  # not an exact scalar
        assert rates_mod.value_fingerprint is _fingerprint  # region collapse

    def test_module_global_is_part_of_the_read_set(self, monkeypatch, analyzer_runs):
        first = rates_mod.analyze_rates(PopsGlobal())
        assert first.pop.exact and first.pop.lo == 2
        monkeypatch.setattr(sys.modules[__name__], "POPS", 4)
        again = rates_mod.analyze_rates(PopsGlobal())
        assert again is not first and again.pop.exact and again.pop.lo == 4
        monkeypatch.setattr(sys.modules[__name__], "POPS", 2)
        assert rates_mod.analyze_rates(PopsGlobal()) is first
        assert len(analyzer_runs) == 2

    def test_a_full_memo_keeps_the_entries_not_written_yet(self, monkeypatch, analyzer_runs):
        monkeypatch.setattr(rates_mod.MEMO, "MAX_ENTRIES", 8)
        module = sys.modules[__name__]
        for pops in (1, 2, 3):  # three entries of a stored key, unwritten
            monkeypatch.setattr(module, "POPS", pops)
            rates_mod.analyze_rates(PopsGlobal())

        for pop in range(1, 8):  # seven keys never stored overflow the memo

            class Local(Filter):
                def __init__(self):
                    super().__init__(pop=pop, push=1)

                def work(self):
                    self.push(self.pop())

            rates_mod.analyze_rates(Local())
            assert len(rates_mod.MEMO) <= 8

        rates_mod.MEMO.flush()
        rates_mod.MEMO.clear()
        analyzer_runs.clear()
        for pops in (1, 2, 3):
            monkeypatch.setattr(module, "POPS", pops)
            assert rates_mod.analyze_rates(PopsGlobal()).pop.lo == pops
        assert analyzer_runs == []

    def test_filter_reading_an_opaque_global_is_never_memoised(self, analyzer_runs):
        for _ in range(2):
            rates_mod.analyze_rates(CallsModuleFunction())
        assert len(analyzer_runs) == 2
        assert len(rates_mod.MEMO) == 0

    def test_filter_reading_a_portal_is_never_memoised(self, analyzer_runs):
        before = len(rates_mod.MEMO)
        portal = Portal()
        for _ in range(2):
            analysis, codes = codes_of(PortalGuard(portal))
            assert analysis.rates.exact and "SL005" not in codes
        assert len(analyzer_runs) == 2
        assert len(rates_mod.MEMO) == before

    def test_unread_attributes_do_not_split_entries(self, analyzer_runs):
        rates_mod.MEMO.clear()
        one, two = Gain(2.0, name="one"), Gain(2.0, name="two")
        two.scratch = object()  # never read by work()
        assert analyze_filter(one).rates is analyze_filter(two).rates
        assert analyzer_runs == ["one"]
        assert len(rates_mod.MEMO) == 1
        # ...while diagnostics still carry each instance's own name.
        [diag] = analyze_filter(two).diagnostics.by_code("SL300")
        assert diag.subject == "two"
        assert analyze_filter(Gain(3.0)).rates is not analyze_filter(one).rates
        assert len(rates_mod.MEMO) == 2

    def test_equal_taps_share_one_run_with_rows(self, analyzer_runs):
        rates_mod.MEMO.clear()
        taps = [0.5, 0.25, 0.125]
        one, two = FIR(taps, name="one"), FIR(taps, name="two")
        assert np.array_equal(try_extract(one).rep.A, try_extract(two).rep.A)
        assert analyzer_runs == ["one"]
        assert len(rates_mod.MEMO) == 1
        # Rows are a memo entry of their own: validate()'s report has none.
        assert analyze_filter(two).rates.rows is None
        assert analyzer_runs == ["one", "two"]
        assert len(rates_mod.MEMO) == 2

    def test_memo_does_not_keep_the_filter_alive(self):
        filt = FIR([0.5, 0.25, 0.125])
        analyze_filter(filt)
        ref = weakref.ref(filt)
        del filt
        gc.collect()
        assert ref() is None

    def test_memo_is_bounded(self, monkeypatch):
        rates_mod.MEMO.clear()
        monkeypatch.setattr(rates_mod.MEMO, "MAX_ENTRIES", 3)
        for k in range(8):
            analyze_filter(Gain(float(k)))
            assert len(rates_mod.MEMO) <= 3


# ---------------------------------------------------------------------------
# The shared source -> AST provider.
# ---------------------------------------------------------------------------


class Swappable(Filter):
    def __init__(self):
        super().__init__(pop=1, push=1)

    def work(self):
        self.push(self.pop())


def _push_twice(self):
    x = self.pop()
    self.push(x)
    self.push(x)


def _sourceless_filter_class():
    namespace = {"Filter": Filter}
    exec(
        textwrap.dedent(
            """
            class Sourceless(Filter):
                def __init__(self):
                    super().__init__(pop=1, push=1)
                def work(self):
                    self.push(self.pop())
            """
        ),
        namespace,
    )
    return namespace["Sourceless"]


def _identity(fn):
    return fn


@_identity
def _decorated_docstring_only(self):
    """Nothing but a docstring."""


def _multiline_docstring_only(
    self,
):
    """Nothing but a docstring."""


_RELOADED_HEAD = """from repro.graph import Filter


class Reloaded(Filter):
    def __init__(self):
        super().__init__(pop=1, push=1)

"""


class TestSourceProvider:
    def test_one_tree_per_function(self):
        assert method_ast(Gain) is method_ast(Gain)
        assert function_ast(Gain.work) is method_ast(Gain)

    def test_reassigned_work_is_seen(self, monkeypatch):
        _, codes = codes_of(Swappable())
        assert "SL001" not in codes
        before = method_ast(Swappable)
        monkeypatch.setattr(Swappable, "work", _push_twice)
        assert method_ast(Swappable) is not before
        analysis, codes = codes_of(Swappable())
        assert "SL001" in codes
        assert analysis.rates.push.lo == 2

    def test_sourceless_function_raises_every_time_and_is_not_cached(self):
        cls = _sourceless_filter_class()
        for _ in range(2):
            with pytest.raises(SourceUnavailable):
                function_ast(cls.work)
        assert cls.work not in source_mod._ASTS
        analysis, codes = codes_of(cls())
        assert "SL005" in codes and not analysis.certified

    def test_consumers_leave_the_shared_trees_unmodified(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CODEGEN_CACHE", str(tmp_path / "cgc"))
        clear_codegen_cache()
        clear_plan_cache()

        def dumps():
            return {
                fn: ast.dump(tree, include_attributes=True)
                for fn, tree in source_mod._ASTS.items()
            }

        for build in ALL_APPS.values():
            analyze_stream(build())
        before = dumps()
        assert len(before) >= 40
        # A compile-cold-style sweep: every app from build() to first output
        # on the codegen engine, emit included, then linear extraction.
        for build in ALL_APPS.values():
            app = build()
            with Interpreter(app, check=True, engine="codegen") as interp:
                interp.run_init()
                interp.run_steady(1)
            for filt in app.filters():
                try:
                    try_extract(filt)
                except Exception:
                    pass  # extraction refusals are not this test's subject
        clear_codegen_cache()
        after = dumps()
        assert {fn: after[fn] for fn in before} == before

    def test_definition_text_parses_like_getsource(self):
        """The provider reads a definition through linecache, not through
        ``inspect.getsource``'s tokenizer: every method of every filter class
        in the apps, the builtins and the tests parses to the same tree."""
        import importlib
        import inspect
        import pkgutil
        import types
        from pathlib import Path

        import repro.apps

        modules = [m.name for m in pkgutil.iter_modules(repro.apps.__path__, "repro.apps.")]
        modules.append("repro.graph.builtins")
        modules += [
            f"tests.{path.stem}"
            for path in sorted(Path(__file__).parent.glob("*.py"))
            if path.stem not in ("__init__", "conftest", "executor_digests")
        ]
        classes = {Filter}
        for name in modules:
            for value in vars(importlib.import_module(name)).values():
                if isinstance(value, type) and issubclass(value, Filter) and value.__module__ == name:
                    classes.add(value)
        methods = [
            fn
            for cls in classes
            for value in vars(cls).values()
            for fn in [getattr(value, "__func__", value)]
            if isinstance(fn, types.FunctionType)
        ]
        assert len(methods) > 300 and Filter.init in methods  # a docstring-only body
        for fn in methods:
            want = ast.parse(textwrap.dedent(inspect.getsource(fn))).body[0]
            got = ast.parse(source_mod._definition_text(fn)).body[0]
            assert ast.dump(got) == ast.dump(want), fn.__qualname__

    def test_a_def_whose_body_holds_no_instruction_is_read(self):
        """A decorated or multi-line ``def`` whose body is a docstring: the
        line span stops short of the body, and the tokenizer reads it."""
        for fn in (_decorated_docstring_only, _multiline_docstring_only):
            with pytest.raises(SyntaxError):
                ast.parse(source_mod._definition_text(fn))
            tree = function_ast(fn)
            assert tree.name == fn.__name__
            assert [type(s).__name__ for s in tree.body] == ["Expr"]

    def test_a_reloaded_module_is_read_afresh(self, tmp_path, monkeypatch):
        """A filter module rewritten and reloaded in one process: its new
        ``work()`` is read from the file as it is now, not from the lines
        cached for the old one, and the stored report of the old file is
        not read for it."""
        import importlib

        monkeypatch.setenv("REPRO_CODEGEN_CACHE", str(tmp_path / "cgc"))
        monkeypatch.syspath_prepend(str(tmp_path))
        path = tmp_path / "reloaded_filter.py"
        path.write_text(_RELOADED_HEAD + "    def work(self):\n        self.push(self.pop())\n")
        try:
            module = importlib.import_module("reloaded_filter")
            assert rates_mod.analyze_rates(module.Reloaded()).push.lo == 1
            rates_mod.MEMO.flush()  # the old file's entry is on disk
            # Two lines more above work(), which now pushes twice.
            path.write_text(
                "SCALE = 2\n\n" + _RELOADED_HEAD
                + "    def work(self):\n        x = self.pop()\n"
                + "        self.push(x)\n        self.push(x * SCALE)\n"
            )
            module = importlib.reload(module)
            tree = function_ast(module.Reloaded.work)
            assert [type(s).__name__ for s in tree.body] == ["Assign", "Expr", "Expr"]
            assert rates_mod.analyze_rates(module.Reloaded()).push.lo == 2
        finally:
            sys.modules.pop("reloaded_filter", None)


# ---------------------------------------------------------------------------
# The executor itself: its pinned output, its step budget, lazy loops.
# ---------------------------------------------------------------------------


def test_executor_output_matches_the_pinned_digests():
    """Every ``RateReport`` field and the step count of every app instance,
    in both rows modes, as ``tests/executor_digests.py`` pinned them."""
    from tests.executor_digests import DIGEST_FILE, digests

    pinned = json.loads(DIGEST_FILE.read_text())
    assert len(pinned) == 879
    got = digests()
    assert [name for name, _ in got] == [name for name, _ in pinned]
    differ = [name for (name, digest), (_, want) in zip(got, pinned) if digest != want]
    assert not differ, f"{len(differ)} instance(s) differ: {differ}"


def test_crafted_constructs_match_their_pinned_digests():
    """The same digest for one crafted filter per construct no app uses."""
    from tests.executor_digests import CRAFTED_FILE, crafted_digests

    pinned = json.loads(CRAFTED_FILE.read_text())
    got = crafted_digests()
    assert [name for name, _ in got] == [name for name, _ in pinned]
    differ = [name for (name, digest), (_, want) in zip(got, pinned) if digest != want]
    assert not differ, f"{len(differ)} filter(s) differ: {differ}"


class UnrolledSum(Filter):
    """Pops ``trips`` items in a constant-bound loop: its analysis takes
    9 steps plus 5 per trip."""

    def __init__(self, trips):
        super().__init__(pop=trips, push=1)
        self.trips = trips

    def work(self):
        total = 0.0
        for _ in range(self.trips):
            total += self.pop()
        self.push(total)


class Jumps(Filter):
    """Every jump the executor models, under concrete and data tests."""

    def __init__(self):
        super().__init__(pop=1, push=1)
        self.n = 4

    def work(self):
        x = self.pop()
        for i in range(self.n):
            if i == 1:
                continue
            if i == 3:
                break
        else:
            raise ValueError("unreachable")
        j = 0
        while j < self.n:
            j += 1
            if j > 2:
                break
        try:
            y = x + 1
        finally:
            pass
        if x > 0:
            self.push(y)
            return
        self.push(x)


class HugeLoop(Filter):
    def __init__(self):
        super().__init__(pop=1, push=1)
        self.n = 10**9

    def work(self):
        x = self.pop()
        for i in range(self.n):
            x = x + i
        self.push(x)


class GrowsWhatItEnumerates(Filter):
    """A loop whose body adds keys to the dict it enumerates."""

    def __init__(self):
        super().__init__(pop=1, push=1)

    def work(self):
        seen = {0: 0, 1: 1}
        for i, key in enumerate(seen):
            seen[key + 10] = i
        self.push(self.pop() + len(seen))


class PushesMany(Filter):
    def __init__(self, n):
        super().__init__(pop=1, push=n)
        self.n = n

    def work(self):
        x = self.pop()
        for i in range(self.n):
            self.push(x * 2.0)


def test_affine_rows_grow_in_linear_time(monkeypatch):
    """Each push appends its row to the path's one row list; none rebinds
    it (a copy of every row so far per push made ``affine_rows``
    quadratic in the pushes)."""
    bound = []

    class Counted(executor_mod._State):
        __slots__ = ("_rows",)

        @property
        def rows(self):
            return self._rows

        @rows.setter
        def rows(self, value):
            bound.append(len(value))
            self._rows = value

    monkeypatch.setattr(executor_mod, "_State", Counted)
    report = RateAnalyzer(PushesMany(1_000), True).run()
    assert report.push.lo == 1_000 and len(report.rows) == 1_000
    assert bound == [0]  # the one path state, bound once to an empty list


class TestStepBudget:
    def test_a_loop_that_needs_exactly_the_budget_is_analysed(self, monkeypatch):
        monkeypatch.setattr(executor_mod, "_MAX_STEPS", 9 + 5 * 8)
        analyzer = RateAnalyzer(UnrolledSum(8))
        report = analyzer.run()
        assert analyzer.steps == 49
        assert report.exact and report.pop.lo == 8 and report.push.lo == 1
        assert "rate analysis gave up" not in report.cert_blockers

    def test_one_more_trip_gives_up(self, monkeypatch):
        monkeypatch.setattr(executor_mod, "_MAX_STEPS", 9 + 5 * 8)
        analyzer = RateAnalyzer(UnrolledSum(9))
        report = analyzer.run()
        # The step past the budget is the ninth trip's read of ``total``:
        # eight pops were counted, and the counts widen from there.
        assert analyzer.steps == 50
        assert "rate analysis gave up" in report.cert_blockers
        assert report.dynamic == ("analysis budget exceeded",)
        assert report.facts.dynamic == ("analysis budget exceeded",)
        assert (report.pop.lo, report.pop.hi) == (8, float("inf"))
        assert (report.push.lo, report.push.hi) == (0, float("inf"))

    def test_every_jump_takes_its_step(self):
        """No app's ``work()`` runs a ``raise``, ``break`` or ``continue``,
        so the pinned digests do not place their steps: this does."""
        for rows in (False, True):
            analyzer = RateAnalyzer(Jumps(), rows)
            report = analyzer.run()
            assert analyzer.steps == 110
            assert report.exact and not report.dynamic

    def test_a_huge_range_is_iterated_lazily(self, monkeypatch):
        """A billion-trip ``range`` gives up at the budget without being
        listed first (a smaller budget keeps the traced run short)."""
        import tracemalloc

        monkeypatch.setattr(executor_mod, "_MAX_STEPS", 200_000)
        tracemalloc.start()
        try:
            report = RateAnalyzer(HugeLoop()).run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert "rate analysis gave up" in report.cert_blockers
        assert peak < 50 * 2**20

    def test_a_loop_body_does_not_change_its_trips(self):
        """Only a ``range`` is iterated lazily: anything else (here an
        ``enumerate`` over a dict the body grows) is listed first."""
        for rows in (False, True):
            analyzer = RateAnalyzer(GrowsWhatItEnumerates(), rows)
            report = analyzer.run()
            assert report.exact and (report.pop.lo, report.push.lo) == (1, 1)
            assert not report.dynamic


# ---------------------------------------------------------------------------
# Stateful / hidden-state diagnostics.
# ---------------------------------------------------------------------------


class TestEffectsDiagnostics:
    def test_hidden_state_write_is_error(self):
        analysis, codes = codes_of(LiarStateless())
        assert "SL102" in codes
        assert analysis.diagnostics.errors()

    def test_honest_stateful_is_info(self):
        analysis, codes = codes_of(AliasHelperState())
        assert "SL101" in codes and "SL102" not in codes
        assert not analysis.diagnostics.errors()

    def test_setattr_warns(self):
        _, codes = codes_of(SetattrState())
        assert "SL103" in codes

    def test_escape_warns(self):
        _, codes = codes_of(EscapingSelf())
        assert "SL104" in codes


# ---------------------------------------------------------------------------
# Linearity pre-screen + extraction gating.
# ---------------------------------------------------------------------------


class TestLinearityPrescreen:
    def test_fir_is_candidate(self):
        ok, reason = affine_prescreen(FIR([1.0, 2.0]))
        assert ok, reason

    def test_stateful_rejected_with_reason(self):
        ok, reason = affine_prescreen(AliasHelperState())
        assert not ok
        assert "stateful" in reason and "count" in reason

    def test_source_rejected(self):
        ok, reason = affine_prescreen(ArraySource([1.0]))
        assert not ok

    def test_extraction_gated_and_instance_unharmed(self):
        # Regression: before the pre-screen, the extraction interpreter
        # could follow `buf = self.buf` and corrupt the live list.
        filt = AliasBufWriter()
        result = try_extract(filt)
        assert not result.linear
        assert result.stateful
        assert filt.buf == [0.0, 0.0]

    def test_extraction_still_works_for_linear_filters(self):
        result = try_extract(FIR([1.0, 2.0, 3.0]))
        assert result.linear


# ---------------------------------------------------------------------------
# State the effects pass cannot see: outside the instance, or behind a
# nested alias.  And one definition of "stateful".
# ---------------------------------------------------------------------------

TABLE = [1.0, 2.0]


class GlobalStore(Filter):
    """``y = x + previous x``, the previous x kept in a module-level list."""

    def __init__(self):
        super().__init__(pop=1, push=1)

    def work(self):
        x = self.pop()
        self.push(x + TABLE[0])
        TABLE[0] = x


class NestedAliasWriter(Filter):
    """Writes a row of a nested list through two local names."""

    def __init__(self):
        super().__init__(pop=1, push=1)
        self.rows = [[0.0, 0.0], [1.0, 1.0]]

    def work(self):
        rows = self.rows
        row = rows[0]
        x = self.pop()
        self.push(x + row[0])
        row[0] = x


class LocalCopyWriter(Filter):
    """Edits a slice of a coefficient list: a local, not state."""

    def __init__(self):
        super().__init__(pop=1, push=1)
        self.coeffs = [2.0, 3.0]

    def work(self):
        mine = self.coeffs[:]
        mine[0] = 5.0
        self.push(self.pop() * mine[0] + mine[1])


@pytest.fixture
def table():
    TABLE[:] = [1.0, 2.0]
    yield TABLE
    TABLE[:] = [1.0, 2.0]


class TestStateOutsideTheInstance:
    def test_extraction_refuses_and_leaves_the_module_alone(self, table):
        result = try_extract(GlobalStore())
        assert table == [1.0, 2.0]
        assert not result.linear and result.stateful
        assert "non-local" in result.reason

    def test_not_certified(self, table):
        analysis, codes = codes_of(GlobalStore())
        assert not analysis.certified and "SL301" in codes
        assert rates_mod.FOREIGN_STORE in analysis.proof.reasons
        assert table == [1.0, 2.0]

    @pytest.mark.parametrize("engine", ["batched", "codegen"])
    def test_engines_match_the_scalar_oracle(self, table, engine, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CODEGEN_CACHE", str(tmp_path / "cgc"))

        def run(engine):
            TABLE[:] = [1.0, 2.0]
            sink = CollectSink()
            app = Pipeline(ArraySource([1.0, 2.0, 3.0, 4.0]), GlobalStore(), sink)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                with Interpreter(app, check=False, engine=engine) as interp:
                    interp.run(8)
            return list(sink.collected), list(TABLE)

        assert run(engine) == run("scalar")
        assert run("scalar")[0] == [2.0, 3.0, 5.0, 7.0, 5.0, 3.0, 5.0, 7.0]

    def test_selection_leaves_it_in_place(self, table):
        app = Pipeline(ArraySource([1.0, 2.0, 3.0, 4.0]), GlobalStore(), CollectSink())
        optimised, report = apply_selection(app)
        assert not report.replacements
        assert any(isinstance(f, GlobalStore) for f in optimised.filters())

    def test_nested_alias_write_is_seen_and_not_performed(self):
        filt = NestedAliasWriter()
        analysis, _ = codes_of(filt)
        result = try_extract(filt)
        assert filt.rows == [[0.0, 0.0], [1.0, 1.0]]
        assert not analysis.certified
        assert not result.linear and result.stateful

    def test_a_sliced_copy_is_a_local(self):
        filt = LocalCopyWriter()
        analysis, _ = codes_of(filt)
        assert analysis.certified, analysis.proof.reasons
        rep = try_extract(filt).rep
        assert np.array_equal(rep.A, [[5.0]]) and np.array_equal(rep.b, [3.0])
        assert filt.coeffs == [2.0, 3.0]


class ModeCounter(Filter):
    """Counts its firings once a message has turned ``mode`` on."""

    def __init__(self):
        super().__init__(pop=1, push=1)
        self.mode = False
        self.count = 0

    def set_mode(self, on):
        """Teleport message handler."""
        self.mode = on

    def work(self):
        self.pop()
        if self.mode:
            self.count += 1
        self.push(self.count)


class TestOneDefinitionOfStateful:
    @pytest.mark.parametrize("cls", [AliasBufWriter, AliasHelperState])
    def test_alias_and_helper_writes_are_stateful(self, cls):
        assert is_stateful(cls())
        with pytest.raises(ValidationError, match="stateful"):
            fiss(cls(), 2)

    def test_unbounded_effects_are_stateful(self):
        assert is_stateful(SetattrState()) and is_stateful(EscapingSelf())
        assert not is_stateful(FIR([1.0, 2.0]))

    @pytest.mark.parametrize("cls", [NestedAliasWriter, GlobalStore])
    def test_hidden_state_is_never_fissed(self, cls, table):
        # Splitting either would change the output: the copies would each
        # keep (or fight over) the one piece of state.
        filt = cls()
        assert is_stateful(filt)
        with pytest.raises(ValidationError, match="stateful"):
            fiss(cls(), 2)
        actors = {a.name: a for a in ModelGraph.from_stream(pipe(filt)).actors}
        assert actors[filt.name].stateful

    def test_a_write_on_an_untaken_arm_is_a_write(self):
        # ``mode`` is False at build time, but a message handler flips it:
        # the write set may grow with what the run skips, never shrink.
        filt = ModeCounter()
        for _ in range(2):
            report = classify(filt)
            assert report.classification == "stateful"
            assert report.mutated == ("count",)
            rates = analyze_filter(filt, refresh=True).rates
            # self.count reads as UNKNOWN, not as its build-time 0.
            assert "pushes a value the analysis cannot type" in rates.cert_blockers
            filt.set_mode(True)
        assert is_stateful(filt)


# ---------------------------------------------------------------------------
# Vectorization-safety proofs.
# ---------------------------------------------------------------------------


class TestVectorSafety:
    def test_map_and_fir_certified(self):
        for filt in (Gain(2.0), FIR([1.0, 0.5])):
            analysis, codes = codes_of(filt)
            assert analysis.certified, analysis.proof.reasons
            assert "SL300" in codes

    def test_data_into_helper_blocks_certification(self):
        # Rates are exact, the filter is pure — but lift_work only swaps
        # math bindings inside work() itself, so stream data reaching a
        # helper must block the trusted path.
        analysis, _ = codes_of(HelperPusher())
        assert not analysis.certified
        assert any("helper" in r for r in analysis.proof.reasons)

    def test_stateful_not_certified(self):
        analysis, codes = codes_of(AliasHelperState())
        assert not analysis.certified
        assert "SL301" in codes
        assert any("mutat" in r or "state" in r for r in analysis.proof.reasons)

    def test_data_dependent_branch_blocks_certification(self):
        # Rates are fine (both arms push once) but the branch picks a
        # different expression per element: not provable column-wise.
        analysis, _ = codes_of(BranchMergeEqual())
        assert not analysis.certified

    def test_dynamic_loop_blocks_certification(self):
        analysis, _ = codes_of(WhilePusher())
        assert not analysis.certified


# ---------------------------------------------------------------------------
# Diagnostics engine: registry, suppression, severities.
# ---------------------------------------------------------------------------


class TestDiagnostics:
    def test_registry_has_stable_codes(self):
        for code in ("SL001", "SL002", "SL003", "SL004", "SL005", "SL006",
                     "SL007", "SL101", "SL102", "SL103", "SL104", "SL201",
                     "SL300", "SL301", "SL302", "SL304", "SL305"):
            assert code in CODES
        for retired in ("SL303", "SL306"):  # never reused
            assert retired not in CODES

    def test_format_mentions_code_and_subject(self):
        analysis, _ = codes_of(BadPush())
        [diag] = analysis.diagnostics.by_code("SL001")
        text = diag.format()
        assert "SL001" in text and "error" in text and "BadPush" in text

    def test_suppression_hides_from_errors(self):
        analysis, codes = codes_of(SuppressedBadPush())
        assert "SL001" in codes  # still recorded...
        assert not analysis.diagnostics.errors()  # ...but not fatal
        [diag] = analysis.diagnostics.by_code("SL001")
        assert diag.suppressed


# ---------------------------------------------------------------------------
# Graph-build integration: validate() runs the analyzer.
# ---------------------------------------------------------------------------


class TestValidateIntegration:
    def test_rate_mismatch_fails_validation(self):
        with pytest.raises(ValidationError, match="static analysis"):
            validate(pipe(BadPush()))

    def test_error_names_instance_and_rates(self):
        with pytest.raises(ValidationError, match=r"push=2.*1 item"):
            validate(pipe(BadPush()))

    def test_peek_oob_fails_validation(self):
        with pytest.raises(ValidationError, match="out of bounds"):
            validate(pipe(PeekOOB()))

    def test_suppressed_error_passes_validation(self):
        validate(pipe(SuppressedBadPush()))

    def test_clean_app_passes(self):
        validate(pipe(FIR([1.0, 2.0])))

    def test_all_apps_lint_clean(self):
        # Suite-wide gate: every shipped app must analyze with zero
        # errors and zero unsuppressed warnings.
        for name, build in sorted(ALL_APPS.items()):
            bag = analyze_stream(build())
            assert not bag.errors(), (name, [d.format() for d in bag.errors()])
            assert not bag.warnings(), (
                name,
                [d.format() for d in bag.warnings()],
            )


# ---------------------------------------------------------------------------
# streamlint CLI.
# ---------------------------------------------------------------------------


_CLEAN_MODULE = """
from repro.graph import ArraySource, CollectSink, Pipeline
from tests.helpers import FIR

def build():
    return Pipeline(ArraySource([1.0] * 8), FIR([1.0, 2.0]), CollectSink())
"""

_BAD_MODULE = """
from repro.graph import ArraySource, CollectSink, Filter, Pipeline

class Wrong(Filter):
    def __init__(self):
        super().__init__(pop=1, push=2)
    def work(self):
        self.push(self.pop())

def build():
    return Pipeline(ArraySource([1.0] * 8), Wrong(), CollectSink())
"""

_WARN_MODULE = """
from repro.graph import ArraySource, CollectSink, Filter, Pipeline

class Draining(Filter):
    def __init__(self):
        super().__init__(pop=1, push=1)
    def work(self):
        x = self.pop()
        while x > 0.5:
            self.push(x)
            x = x - 1.0

def build():
    return Pipeline(ArraySource([1.0] * 8), Draining(), CollectSink())
"""


#: Per-code diagnostic counts of ``analyze_stream`` over every app.  A
#: change of verdict must change this table on purpose.
STREAMLINT_VERDICTS = {
    "Beamformer": {"SL101": 2, "SL201": 20, "SL300": 16, "SL301": 6},
    "BitonicSort": {"SL101": 2, "SL201": 48, "SL300": 24, "SL301": 26},
    "ChannelVocoder": {"SL101": 2, "SL201": 32, "SL300": 16, "SL301": 18},
    "DCT": {"SL101": 2, "SL201": 34, "SL300": 34, "SL301": 2},
    "DES": {"SL101": 2, "SL201": 243, "SL300": 114, "SL301": 131},
    "DToA": {"SL101": 2, "SL201": 5, "SL300": 5, "SL301": 2},
    "FFT": {"SL101": 2, "SL201": 12, "SL300": 12, "SL301": 2},
    "FIR": {"SL101": 2, "SL201": 1, "SL300": 1, "SL301": 2},
    "FMRadio": {"SL101": 2, "SL201": 9, "SL300": 9, "SL301": 2},
    "FilterBank": {"SL101": 2, "SL201": 25, "SL300": 25, "SL301": 2},
    "FreqHopRadio": {"SL101": 7, "SL201": 12, "SL300": 12, "SL301": 7},
    "MPEG2Decoder": {"SL101": 4, "SL201": 20, "SL300": 19, "SL301": 5},
    "Oversampler": {"SL101": 2, "SL201": 8, "SL300": 8, "SL301": 2},
    "Radar": {"SL101": 18, "SL201": 4, "SL300": 4, "SL301": 18},
    "RateConvert": {"SL101": 2, "SL201": 3, "SL300": 3, "SL301": 2},
    "Serpent": {"SL101": 2, "SL201": 274, "SL300": 17, "SL301": 259},
    "TDE": {"SL101": 2, "SL201": 22, "SL300": 22, "SL301": 2},
    "TargetDetect": {"SL101": 2, "SL201": 5, "SL300": 4, "SL301": 3},
    "Vocoder": {"SL101": 10, "SL201": 33, "SL300": 33, "SL301": 10},
}


def test_streamlint_verdicts_are_pinned():
    counts = {}
    for name, build in sorted(ALL_APPS.items()):
        codes = [d.code for d in analyze_stream(build())]
        counts[name] = {code: codes.count(code) for code in sorted(set(codes))}
    assert counts == STREAMLINT_VERDICTS


class TestLintCLI:
    def _write(self, tmp_path, name, body):
        path = tmp_path / f"{name}.py"
        path.write_text(textwrap.dedent(body))
        return str(path)

    def test_clean_module_exits_zero(self, tmp_path, capsys):
        rc = lint_main([self._write(tmp_path, "cleanapp", _CLEAN_MODULE)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "0 error(s)" in out

    def test_bad_module_exits_one(self, tmp_path, capsys):
        rc = lint_main([self._write(tmp_path, "brokenapp", _BAD_MODULE)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "SL001" in out

    def test_strict_promotes_warnings(self, tmp_path):
        target = self._write(tmp_path, "warnapp", _WARN_MODULE)
        assert lint_main([target]) == 0
        assert lint_main([target, "--strict"]) == 1

    def test_json_report(self, tmp_path, capsys):
        report = tmp_path / "lint.json"
        rc = lint_main(
            [self._write(tmp_path, "jsonapp", _BAD_MODULE), "--json", str(report)]
        )
        assert rc == 1
        payload = json.loads(report.read_text())
        assert payload["errors"] == 1
        assert "SL001" in payload["summary"]

    def test_unimportable_target_is_usage_error(self, capsys):
        assert lint_main(["repro.analysis_does_not_exist"]) == 2

    def test_graph_flag_adds_graph_section(self, tmp_path, capsys):
        report = tmp_path / "lint.json"
        target = self._write(tmp_path, "graphapp", _CLEAN_MODULE)
        rc = lint_main([target, "--graph", "--json", str(report)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "graph:" in out
        payload = json.loads(report.read_text())
        assert "graph" in payload
        [(label, g)] = payload["graph"].items()
        assert label.endswith(".build")
        for key in ("rings", "regions", "shared_state", "verified"):
            assert key in g, key
        # Without --graph the JSON schema is unchanged.
        rc = lint_main([target, "--json", str(report)])
        assert rc == 0
        assert "graph" not in json.loads(report.read_text())

    def test_graph_flag_clean_on_app_suite_module(self, capsys):
        rc = lint_main(["repro.apps.fmradio", "--graph", "--strict"])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "certified region(s)" in out

    def test_app_suite_strict_clean(self, capsys):
        rc = lint_main(["src/repro/apps", "--strict"])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "0 error(s), 0 warning(s)" in out

    def test_app_suite_report_identical_when_fully_memoised(self, tmp_path, capsys):
        # Same diagnostics, same order, same names whether the rate pass ran
        # (first run, memo emptied) or every report came from the memo.
        rates_mod.MEMO.clear()
        reports = []
        for run in ("cold", "memoised"):
            path = tmp_path / f"{run}.json"
            rc = lint_main(
                ["src/repro/apps", "--graph", "--strict", "--json", str(path)]
            )
            assert rc == 0
            reports.append((path.read_bytes(), capsys.readouterr().out))
        assert reports[0] == reports[1]
