"""Static rate analysis: symbolically count ``push``/``pop``/``peek``.

An abstract interpreter over a filter's ``work()`` AST.  Values live in a
three-level domain:

* **concrete** Python values (ints, floats, lists, modules, …) — evaluated
  exactly, so constant-bound loops contribute exact channel counts;
* :data:`DATA` — a value derived from the input channel (``pop``/``peek``
  results and anything computed from them).  When the caller asked for
  *rows* (linear extraction, :func:`affine_rows`) such a value is an
  :class:`Affine` form ``c0 + Σ c_i · peek(i)`` for as long as only
  ``+ − ·const /const`` touch it — the paper's linear dataflow analysis is
  this executor with a finer DATA;
* :data:`UNKNOWN` — a non-channel value the analysis cannot resolve (reads
  of mutated attributes, results of opaque calls).

Channel counts are intervals.  Conditionals with concrete tests follow one
arm; tests over :data:`DATA`/:data:`UNKNOWN` run *both* arms and merge the
counts (min/max), so a conditional that pushes on both branches still has
an exact rate.  ``while`` loops and iterations over non-concrete values
cannot be bounded: if their body touches a channel the report is flagged
*dynamic* and no exactness claims are made (→ ``SL005`` instead of a false
``SL001``).

Safety rules — the analyzer must never perturb the program under analysis:

* **no foreign calls**: only a small whitelist of builtins, ``math``/
  ``numpy`` functions, and the filter's own plain helper methods are ever
  invoked/inlined.  Anything else yields :data:`UNKNOWN` *without being
  called* (a ``self.portal.retune(…)`` must not send a real message at
  lint time!);
* **no mutation of live objects**: whatever is read off the instance or
  the module is copied through and through, the copies are remembered as
  *foreign*, and a store into a foreign object is not performed — it is
  reported (:data:`FOREIGN_STORE`): ``work()`` keeps state where neither
  the effects pass nor a trial clone can see it.

The pass also records *certification blockers*: reasons the computation is
not provably safe to run column-wise over a whole batch.  These feed the
vectorization proof in :mod:`repro.analysis.vectorsafety`.
"""

from __future__ import annotations

import ast
import builtins
import functools
import hashlib
import marshal
import math
import numbers
import operator
import sys
import types
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.analysis.effects import (
    CHANNEL_ATTRS,
    SourceUnavailable,
    method_ast,
)
from repro.diskcache import cache_dir, codegen_cache_stats, evict, read_entry, write_entry
from repro.graph.base import Filter, Rate

try:  # numpy is an optional acceleration dependency elsewhere in the repo
    import numpy as _np
except Exception:  # pragma: no cover - environment without numpy
    _np = None

#: math functions that vectorize bit-exactly (or via a guarded wrapper) in
#: runtime/vectorize.py; calling any other function on DATA blocks the proof.
VECTOR_SAFE_MATH = frozenset(
    {
        "sqrt", "sin", "cos", "floor", "ceil", "trunc", "fabs", "copysign",
        "atan2", "hypot", "fmod", "pow", "atan", "asin", "acos", "tan",
        "exp", "expm1", "log", "log1p", "log2", "log10", "sinh", "cosh",
        "tanh",
    }
)


class _Data:
    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return "DATA"


class _Unknown:
    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return "UNKNOWN"


class _Self:
    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return "SELF"


class _Channel:
    __slots__ = ("direction",)

    def __init__(self, direction: str) -> None:
        self.direction = direction


class Affine(_Data):
    """Stream data that is still an affine form over the input window:
    ``const + Σ coeffs[i]·peek(i)``."""

    __slots__ = ("coeffs", "const")

    def __init__(self, coeffs: Optional[Dict[int, float]] = None, const: float = 0.0) -> None:
        self.coeffs: Dict[int, float] = coeffs if coeffs is not None else {}
        self.const = float(const)

    @staticmethod
    def of_peek(index: int) -> "Affine":
        return Affine({index: 1.0}, 0.0)

    def add(self, other: "Affine") -> "Affine":
        coeffs = dict(self.coeffs)
        for k, v in other.coeffs.items():
            coeffs[k] = coeffs.get(k, 0.0) + v
        return Affine(coeffs, self.const + other.const)

    def neg(self) -> "Affine":
        return Affine({k: -v for k, v in self.coeffs.items()}, -self.const)

    def scale(self, factor: float) -> "Affine":
        factor = float(factor)
        return Affine({k: v * factor for k, v in self.coeffs.items()}, self.const * factor)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Affine({self.coeffs}, {self.const})"


DATA = _Data()
UNKNOWN = _Unknown()
SELF = _Self()

#: The blocker (and, behind ``stateful:``, the extraction reason) for a
#: store into an object ``work()`` does not own.  The batched engine reads
#: it too: such a filter may not even be *tried* on clones.
FOREIGN_STORE = "work() stores into a non-local object"


def _tainted(*values: Any) -> Any:
    """Combine taints: DATA (opaque or affine) dominates UNKNOWN dominates
    concrete."""
    taint = None
    for v in values:
        if isinstance(v, _Data):
            return DATA
        if v is UNKNOWN:
            taint = UNKNOWN
    return taint


def _as_affine(value: Any) -> Optional[Affine]:
    """``value`` as an affine form: itself, or a real number as a constant."""
    if isinstance(value, Affine):
        return value
    if isinstance(value, numbers.Real):
        return Affine({}, value)
    return None


@dataclass
class Interval:
    lo: float
    hi: float

    @staticmethod
    def exactly(n: float) -> "Interval":
        return Interval(n, n)

    def bump(self, n: float = 1) -> None:
        self.lo += n
        self.hi += n

    def merged(self, other: "Interval") -> "Interval":
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def copy(self) -> "Interval":
        return Interval(self.lo, self.hi)

    @property
    def exact(self) -> bool:
        return self.lo == self.hi and math.isfinite(self.lo)

    def __str__(self) -> str:
        if self.exact:
            return str(int(self.lo))
        hi = "inf" if math.isinf(self.hi) else str(int(self.hi))
        return f"[{int(self.lo)}, {hi}]"


@dataclass
class RateReport:
    """Result of symbolically executing one ``work()``."""

    pop: Interval
    push: Interval
    #: Largest peek offset (relative to the pre-firing window) that can be
    #: reached; -1 when work never peeks.
    max_peek: float
    #: Reasons exact counting was impossible (→ SL005).
    dynamic: Tuple[str, ...]
    #: Definite peek-out-of-bounds findings (→ SL003).
    peek_violations: Tuple[str, ...]
    #: Reasons batch (column-wise) execution is not provably safe.
    cert_blockers: Tuple[str, ...]
    #: The affine form of each pushed item, in push order; None when rows
    #: were not asked for or ``work()`` is not affine — ``nonlinear`` says
    #: which, naming the first construct that lost the form.
    rows: Optional[Tuple[Affine, ...]]
    nonlinear: Optional[str]

    @property
    def exact(self) -> bool:
        return not self.dynamic and self.pop.exact and self.push.exact


class _PathRaise(Exception):
    """The analyzed path raises: it contributes no steady-state counts."""


class _Return(Exception):
    def __init__(self, value: Any) -> None:
        self.value = value


class _Break(Exception):
    pass


class _Continue(Exception):
    pass


class _GiveUp(Exception):
    """Budget exceeded or structurally unanalyzable; degrade to dynamic."""


_BIN_OPS = {
    ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
    ast.Div: operator.truediv, ast.FloorDiv: operator.floordiv,
    ast.Mod: operator.mod, ast.Pow: operator.pow,
    ast.LShift: operator.lshift, ast.RShift: operator.rshift,
    ast.BitOr: operator.or_, ast.BitAnd: operator.and_,
    ast.BitXor: operator.xor, ast.MatMult: operator.matmul,
}
_UNARY_OPS = {
    ast.UAdd: operator.pos, ast.USub: operator.neg,
    ast.Invert: operator.invert, ast.Not: operator.not_,
}
_CMP_OPS = {
    ast.Eq: operator.eq, ast.NotEq: operator.ne, ast.Lt: operator.lt,
    ast.LtE: operator.le, ast.Gt: operator.gt, ast.GtE: operator.ge,
    ast.Is: operator.is_, ast.IsNot: operator.is_not,
    ast.In: lambda a, b: a in b, ast.NotIn: lambda a, b: a not in b,
}

_SAFE_BUILTINS = {
    range, len, abs, min, max, int, float, bool, round, sum, divmod,
    list, tuple, enumerate, zip, reversed, sorted, complex, str,
}
#: Safe builtins that also map elementwise over a batch column.
_DATA_SAFE_BUILTINS = {abs}

_MAX_STEPS = 2_000_000
_MAX_CALL_DEPTH = 8


class _State:
    """Mutable per-path state: environment, channel counters and the
    affine rows pushed so far (an immutable tuple, so clones share it)."""

    __slots__ = ("env", "pop", "push", "rows")

    def __init__(
        self, env: Dict[str, Any], pop: Interval, push: Interval, rows: tuple = ()
    ) -> None:
        self.env = env
        self.pop = pop
        self.push = push
        self.rows = rows

    def clone(self) -> "_State":
        return _State(dict(self.env), self.pop.copy(), self.push.copy(), self.rows)

    def merge(self, other: "_State") -> None:
        self.pop = self.pop.merged(other.pop)
        self.push = self.push.merged(other.push)
        merged: Dict[str, Any] = {}
        for name, val in self.env.items():
            if name not in other.env:
                continue
            oval = other.env[name]
            if val is oval:
                merged[name] = val
            else:
                try:
                    same = bool(val == oval)
                except Exception:
                    same = False
                if same and type(val) is type(oval):
                    merged[name] = val
                else:
                    taint = _tainted(val, oval)
                    merged[name] = taint if taint is not None else UNKNOWN
        self.env = merged


class RateAnalyzer:
    """Symbolic executor for one filter instance's ``work()``."""

    def __init__(self, filt: Filter, unstable_attrs: Set[str], rows: bool = False) -> None:
        self.filt = filt
        self.cls = type(filt)
        self.unstable = set(unstable_attrs)
        #: Why pushed items have no affine rows (the first reason stands);
        #: while it is None, ``pop``/``peek`` hand out :class:`Affine` forms.
        self.nonlinear: Optional[str] = None if rows else "rows not requested"
        self.max_peek: float = -1
        self.dynamic: List[str] = []
        self.violations: List[str] = []
        self.blockers: List[str] = []
        self.steps = 0
        #: id() -> (object, the analysis's stand-in for it), for every live
        #: object met (on the instance, in the module) and for every
        #: stand-in: a private copy of a container, the object itself when
        #: opaque.  Both are held, so no id is reused within a run; a store
        #: into any of them is never performed.
        self.foreign: Dict[int, Tuple[Any, Any]] = {}
        #: True once a channel reference was stored somewhere the analysis
        #: cannot see through (an attribute of an opaque object, an argument
        #: to an unevaluated call).  After that, any opaque call may drive
        #: this filter's channels, so such calls must degrade to dynamic.
        self.channel_escaped = False
        self.ended: List[_State] = []
        #: Where work()'s free names resolve.
        self.globals: Dict[str, Any] = _work_globals(self.cls)
        #: ``self.<attr>`` read off the live instance (key ``attr``), module
        #: globals or builtins resolved (key ``("global", name)``) and
        #: attributes read through a module (key ``("attr", module, name)``)
        #: -> fingerprint of the value seen (None: opaque), in first-read
        #: order; the memo key.
        self.reads: Dict[Any, Any] = {}

    # -- notes ---------------------------------------------------------------

    def note_dynamic(self, reason: str) -> None:
        self.void(reason)
        if reason not in self.dynamic:
            self.dynamic.append(reason)

    def void(self, reason: str) -> None:
        """From here on the pushed items are not known affine forms."""
        self.nonlinear = self.nonlinear or reason

    def note_foreign_store(self) -> None:
        self.note_blocker(FOREIGN_STORE)
        self.void(f"stateful: {FOREIGN_STORE}")

    def note_blocker(self, reason: str) -> None:
        if reason not in self.blockers:
            self.blockers.append(reason)

    def note_violation(self, reason: str) -> None:
        if reason not in self.violations:
            self.violations.append(reason)

    def tick(self) -> None:
        self.steps += 1
        if self.steps > _MAX_STEPS:
            self.note_dynamic("analysis budget exceeded")
            raise _GiveUp

    # -- entry ---------------------------------------------------------------

    def run(self) -> RateReport:
        pop = Interval.exactly(0)
        push = Interval.exactly(0)
        try:
            fn = method_ast(self.cls)
        except SourceUnavailable as exc:
            self.note_dynamic(str(exc))
            self.note_blocker("work() source unavailable")
            return self._report(Interval(0, math.inf), Interval(0, math.inf))
        self_name = fn.args.args[0].arg if fn.args.args else "self"
        state = _State({self_name: SELF}, pop, push)
        try:
            try:
                self.exec_body(fn.body, state, depth=0)
            except _Return:
                pass
            except (_Break, _Continue):
                self.note_dynamic("break/continue outside a loop")
        except _PathRaise:
            # Every path raises: work cannot complete a firing.  Report what
            # was counted before the raise and flag it.
            self.note_dynamic("work() unconditionally raises")
            self.note_blocker("work() unconditionally raises")
        except _GiveUp:
            state.pop = state.pop.merged(Interval(state.pop.lo, math.inf))
            state.push = state.push.merged(Interval(state.push.lo, math.inf))
            self.note_blocker("rate analysis gave up")
        for done in self.ended:
            state.pop = state.pop.merged(done.pop)
            state.push = state.push.merged(done.push)
        return self._report(state.pop, state.push, state.rows)

    def _report(self, pop: Interval, push: Interval, rows: tuple = ()) -> RateReport:
        return RateReport(
            pop=pop,
            push=push,
            max_peek=self.max_peek,
            dynamic=tuple(self.dynamic),
            peek_violations=tuple(self.violations),
            cert_blockers=tuple(self.blockers),
            rows=None if self.nonlinear else rows,
            nonlinear=self.nonlinear,
        )

    # -- channel ops ---------------------------------------------------------

    def do_pop(self, state: _State) -> Any:
        if state.pop.exact and state.pop.hi == self.filt.rate.pop:
            self.note_violation(
                f"work() pops more than the declared pop rate "
                f"{self.filt.rate.pop}"
            )
        state.pop.bump()
        return DATA if self.nonlinear else Affine.of_peek(int(state.pop.lo) - 1)

    def do_peek(self, state: _State, index: Any) -> Any:
        declared = self.filt.rate.peek
        if isinstance(index, bool) or not isinstance(index, (int, float)):
            taint = _tainted(index)
            if taint is DATA:
                self.note_blocker("peek index depends on stream data")
                self.void("peek with a data-dependent index")
            # peek() never consumes, so an unresolvable index costs only the
            # static peek bound — the pop/push counts stay exact.
            self.max_peek = math.inf
            self.note_blocker("peek index is not statically resolvable")
            self.void("peek index is not statically resolvable")
            return DATA
        if index < 0:
            self.note_violation(f"negative peek index {index!r}")
            return DATA
        lo_off = state.pop.lo + index
        hi_off = state.pop.hi + index
        if lo_off >= declared:
            self.note_violation(
                f"peek offset {int(lo_off)} out of bounds for declared "
                f"peek rate {declared}"
            )
        self.max_peek = max(self.max_peek, hi_off)
        return DATA if self.nonlinear else Affine.of_peek(int(lo_off))

    def do_push(self, state: _State, value: Any) -> None:
        if value is UNKNOWN:
            self.note_blocker("pushes a value the analysis cannot type")
        elif not isinstance(value, (_Data, int, float, complex, bool)):
            self.note_blocker(
                f"pushes a non-scalar {type(value).__name__} value"
            )
        if not self.nonlinear:
            row = _as_affine(value)
            if row is None:
                self.void(f"value {value!r} cannot appear in stream arithmetic")
            else:
                state.rows += (row,)
        if state.push.exact and state.push.hi == self.filt.rate.push:
            self.note_violation(
                f"work() pushes more than the declared push rate "
                f"{self.filt.rate.push}"
            )
        state.push.bump()

    # -- statements ----------------------------------------------------------

    def exec_body(self, stmts: List[ast.stmt], state: _State, depth: int) -> None:
        for stmt in stmts:
            self.exec_stmt(stmt, state, depth)

    def exec_stmt(self, stmt: ast.stmt, state: _State, depth: int) -> None:
        self.tick()
        if isinstance(stmt, ast.Expr):
            self.eval(stmt.value, state, depth)
        elif isinstance(stmt, ast.Assign):
            value = self.eval(stmt.value, state, depth)
            for target in stmt.targets:
                self.assign(target, value, state, depth)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                value = self.eval(stmt.value, state, depth)
                self.assign(stmt.target, value, state, depth)
        elif isinstance(stmt, ast.AugAssign):
            # eval() never looks at an expression's context, so the
            # Store-context target reads as a load.
            load = ast.BinOp(left=stmt.target, op=stmt.op, right=stmt.value)
            value = self.eval(load, state, depth)
            self.assign(stmt.target, value, state, depth)
        elif isinstance(stmt, ast.If):
            self.exec_if(stmt, state, depth)
        elif isinstance(stmt, ast.For):
            self.exec_for(stmt, state, depth)
        elif isinstance(stmt, ast.While):
            self.exec_while(stmt, state, depth)
        elif isinstance(stmt, ast.Return):
            value = self.eval(stmt.value, state, depth) if stmt.value else None
            raise _Return(value)
        elif isinstance(stmt, ast.Raise):
            raise _PathRaise
        elif isinstance(stmt, ast.Assert):
            held = self.nonlinear
            test = self.eval(stmt.test, state, depth)
            if _tainted(test) is None:
                try:
                    if not test:
                        raise _PathRaise
                except _PathRaise:
                    raise
                except Exception:
                    pass
            elif not self.dynamic:
                # A check *on* stream data is not stream arithmetic: what
                # its test lost of the affine forms is not held against
                # the rows (a linear node just does not make the check).
                self.nonlinear = held
        elif isinstance(stmt, (ast.Break,)):
            raise _Break
        elif isinstance(stmt, ast.Continue):
            raise _Continue
        elif isinstance(stmt, ast.Pass):
            pass
        elif isinstance(stmt, ast.Delete):
            self.void("unsupported statement Delete")
        elif isinstance(stmt, (ast.Global, ast.Nonlocal)):
            pass  # effects pass reports these
        elif isinstance(stmt, ast.Try):
            self.exec_try(stmt, state, depth)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            self._degrade_if_channel_ops(stmt, "nested definition")
            state.env[stmt.name] = UNKNOWN
            self.note_blocker(f"nested {type(stmt).__name__} in work()")
        else:
            # try/with/match/… — too much control-flow ambiguity to model.
            self._degrade_if_channel_ops(stmt, type(stmt).__name__)
            self._havoc_assigned(stmt, state)
            self.note_blocker(f"unmodelled statement {type(stmt).__name__}")

    def exec_try(self, stmt: ast.Try, state: _State, depth: int) -> None:
        """Model try/finally exactly; try/except degrades to dynamic.

        Without handlers the body either completes or aborts the firing, so
        counting the body then the finalizer is exact.  With ``except``
        clauses the transfer points are unknowable statically.
        """
        if stmt.handlers:
            self._degrade_if_channel_ops(stmt, "try/except")
            self._havoc_assigned(stmt, state)
            self.note_blocker("try/except in work()")
            return
        try:
            self.exec_body(stmt.body, state, depth)
        except (_Return, _Break, _Continue, _PathRaise):
            self.exec_body(stmt.finalbody, state, depth)
            raise
        self.exec_body(stmt.orelse, state, depth)
        self.exec_body(stmt.finalbody, state, depth)

    def _degrade_if_channel_ops(self, node: ast.AST, what: str) -> None:
        self.void(f"unsupported {what}")
        if _has_consuming_ops(node):
            self.note_dynamic(f"channel operation inside unanalyzable {what}")
        elif _has_channel_ops(node):
            self.max_peek = math.inf
            self.note_blocker(f"peek inside unanalyzable {what}")

    def _havoc_assigned(self, node: ast.AST, state: _State) -> None:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, (ast.Store, ast.Del)):
                state.env[sub.id] = UNKNOWN

    # -- branching -----------------------------------------------------------

    def exec_if(self, stmt: ast.If, state: _State, depth: int) -> None:
        test = self.eval(stmt.test, state, depth)
        taint = _tainted(test)
        if taint is None:
            try:
                taken = bool(test)
            except Exception:
                taint = UNKNOWN
            else:
                self.exec_body(stmt.body if taken else stmt.orelse, state, depth)
                return
        if taint is DATA:
            self.note_blocker("branch condition depends on stream data")
            self.void("branch on a data-dependent condition")
        else:
            self.note_blocker("branch condition is not statically resolvable")
            self.void("branch condition is not statically resolvable")
        self._run_both(stmt.body, stmt.orelse, state, depth)

    def _run_both(
        self,
        body: List[ast.stmt],
        orelse: List[ast.stmt],
        state: _State,
        depth: int,
    ) -> None:
        """Execute both arms of an unresolvable branch and merge counts."""
        outcomes: List[Tuple[str, Optional[_State], Optional[BaseException]]] = []
        for arm in (body, orelse):
            arm_state = state.clone()
            try:
                self.exec_body(arm, arm_state, depth)
            except _PathRaise:
                outcomes.append(("raise", None, None))
            except _Return:
                self.ended.append(arm_state)
                outcomes.append(("return", None, None))
            except (_Break, _Continue) as exc:
                self.note_dynamic(
                    "break/continue under a data-dependent condition"
                )
                outcomes.append(("jump", arm_state, exc))
            else:
                outcomes.append(("fall", arm_state, None))
        fallthrough = [s for kind, s, _ in outcomes if kind == "fall" and s]
        if fallthrough:
            merged = fallthrough[0]
            for extra in fallthrough[1:]:
                merged.merge(extra)
            # jump arms contribute their counts conservatively
            for kind, s, _ in outcomes:
                if kind == "jump" and s is not None:
                    merged.merge(s)
            state.env = merged.env
            state.pop = merged.pop
            state.push = merged.push
            return
        # No arm falls through: propagate the strongest control transfer.
        for kind, s, exc in outcomes:
            if kind == "jump" and exc is not None:
                if s is not None:
                    state.env = s.env
                    state.pop = s.pop
                    state.push = s.push
                raise exc
        if any(kind == "return" for kind, _, _ in outcomes):
            raise _Return(None)
        raise _PathRaise

    # -- loops ---------------------------------------------------------------

    def exec_for(self, stmt: ast.For, state: _State, depth: int) -> None:
        iterable = self.eval(stmt.iter, state, depth)
        taint = _tainted(iterable)
        if taint is not None:
            if taint is DATA:
                self.note_blocker("loop iterates over stream data")
                self.void("iteration over a data-dependent value")
            self._dynamic_loop(stmt, state, depth, "for loop over an unresolvable iterable")
            return
        try:
            items = list(iterable)
        except TypeError:
            self.note_dynamic("for loop over a non-iterable value")
            self._dynamic_loop(stmt, state, depth, "for loop over a non-iterable")
            return
        for item in items:
            self.tick()
            self.assign(stmt.target, item, state, depth)
            try:
                self.exec_body(stmt.body, state, depth)
            except _Break:
                break
            except _Continue:
                continue
        else:
            self.exec_body(stmt.orelse, state, depth)

    def exec_while(self, stmt: ast.While, state: _State, depth: int) -> None:
        # Try bounded concrete execution first (e.g. ``while i < n: i += 1``).
        snapshot = state.clone()
        bounded = self._try_concrete_while(stmt, state, depth)
        if bounded:
            return
        state.env = snapshot.env
        state.pop = snapshot.pop
        state.push = snapshot.push
        test = self.eval(stmt.test, state, depth)
        if _tainted(test) is DATA:
            self.note_blocker("while condition depends on stream data")
            self.void("while on a data-dependent condition")
        else:
            self.note_blocker("while loop is not statically bounded")
        self._dynamic_loop(stmt, state, depth, "while loop with an unresolvable bound")

    def _try_concrete_while(self, stmt: ast.While, state: _State, depth: int) -> bool:
        """Concretely iterate a while loop; False if any test is non-concrete."""
        iterations = 0
        while True:
            self.tick()
            test = self.eval(stmt.test, state, depth)
            if _tainted(test) is not None:
                return False
            try:
                alive = bool(test)
            except Exception:
                return False
            if not alive:
                self.exec_body(stmt.orelse, state, depth)
                return True
            iterations += 1
            if iterations > 100_000:
                self.note_dynamic("while loop exceeded the iteration budget")
                return False
            try:
                self.exec_body(stmt.body, state, depth)
            except _Break:
                return True
            except _Continue:
                continue

    def _dynamic_loop(self, stmt: ast.AST, state: _State, depth: int, what: str) -> None:
        """A loop whose trip count is unknown: body 0..inf times."""
        self.void(what)
        body = stmt.body if hasattr(stmt, "body") else []
        if _has_consuming_ops(stmt):
            self.note_dynamic(f"channel operation inside {what}")
        elif _has_channel_ops(stmt):
            # peek() never consumes: a loop of peeks with an unknown trip
            # count leaves the pop/push counts exact — only the reachable
            # peek window is lost (the probe below may see a resolvable
            # index, but iteration-varying state can reach further).
            self.max_peek = math.inf
            self.note_blocker(f"peek window unbounded inside {what}")
        before_pop, before_push = state.pop.copy(), state.push.copy()
        # Havoc loop-assigned names, then analyze the body once for peek
        # bounds and nested findings; counts widen to [before, inf).
        self._havoc_assigned(stmt, state)
        probe = state.clone()
        try:
            self.exec_body(body, probe, depth)
        except (_Return, _Break, _Continue, _PathRaise):
            pass
        if probe.pop.hi > before_pop.hi:
            state.pop = Interval(before_pop.lo, math.inf)
        if probe.push.hi > before_push.hi:
            state.push = Interval(before_push.lo, math.inf)
        self._havoc_assigned(stmt, state)

    # -- assignment ----------------------------------------------------------

    def assign(self, target: ast.expr, value: Any, state: _State, depth: int) -> None:
        if isinstance(target, ast.Name):
            state.env[target.id] = value
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            taint = _tainted(value)
            if taint is None:
                try:
                    items = list(value)
                except TypeError:
                    items = None
                if items is not None and len(items) == len(target.elts) and not any(
                    isinstance(e, ast.Starred) for e in target.elts
                ):
                    for elt, item in zip(target.elts, items):
                        self.assign(elt, item, state, depth)
                    return
                taint = UNKNOWN
            for elt in target.elts:
                inner = elt.value if isinstance(elt, ast.Starred) else elt
                self.assign(inner, taint, state, depth)
            return
        if isinstance(target, ast.Subscript):
            container = self.eval(target.value, state, depth)
            index = self.eval(target.slice, state, depth)
            if _tainted(index) is DATA:
                self.note_blocker("store index depends on stream data")
                self.void("store with a data-dependent index")
            if id(container) in self.foreign:
                self.note_foreign_store()
            elif _tainted(container, index) is None:
                try:
                    container[index] = value
                    return
                except Exception:
                    pass
            self.void("a subscript store the analysis cannot perform")
            return
        if isinstance(target, ast.Attribute):
            # self.X = … — a state write; the effects pass reports it.  The
            # attribute becomes unstable for the rest of this analysis.
            base = self.eval(target.value, state, depth)
            if isinstance(value, _Channel):
                # A channel reference now lives inside an object the analysis
                # reads back as opaque (delegation idiom: inner.output =
                # self.output); later opaque calls may push/pop through it.
                self.channel_escaped = True
            if base is SELF:
                self.unstable.add(target.attr)
            elif id(base) in self.foreign:
                self.note_foreign_store()
            return
        if isinstance(target, ast.Starred):
            self.assign(target.value, UNKNOWN, state, depth)
            return

    # -- expressions ---------------------------------------------------------

    def eval(self, node: ast.expr, state: _State, depth: int) -> Any:
        self.tick()
        if isinstance(node, ast.Constant):
            return node.value
        if isinstance(node, ast.Name):
            if node.id in state.env:
                return state.env[node.id]
            return self._global(node.id)
        if isinstance(node, ast.Attribute):
            return self.eval_attribute(node, state, depth)
        if isinstance(node, ast.Call):
            return self.eval_call(node, state, depth)
        if isinstance(node, ast.BinOp):
            left = self.eval(node.left, state, depth)
            right = self.eval(node.right, state, depth)
            taint = _tainted(left, right)
            if taint is not None:
                if taint is UNKNOWN or self.nonlinear:
                    return taint
                return self.affine_op(type(node.op), left, right)
            op = _BIN_OPS.get(type(node.op))
            if op is None:
                return UNKNOWN
            try:
                return op(left, right)
            except Exception:
                return UNKNOWN
        if isinstance(node, ast.UnaryOp):
            operand = self.eval(node.operand, state, depth)
            taint = _tainted(operand)
            if taint is not None:
                if isinstance(node.op, ast.Not) and taint is DATA:
                    self.note_blocker("boolean not applied to stream data")
                if taint is DATA and not self.nonlinear:
                    if isinstance(operand, Affine) and isinstance(node.op, (ast.USub, ast.UAdd)):
                        return operand.neg() if isinstance(node.op, ast.USub) else operand
                    self.void(
                        f"unary {type(node.op).__name__} of a data-dependent value"
                    )
                return taint
            op = _UNARY_OPS.get(type(node.op))
            if op is None:
                return UNKNOWN
            try:
                return op(operand)
            except Exception:
                return UNKNOWN
        if isinstance(node, ast.Compare):
            values = [self.eval(node.left, state, depth)]
            values.extend(self.eval(c, state, depth) for c in node.comparators)
            taint = _tainted(*values)
            if taint is not None:
                if taint is DATA:
                    self.note_blocker("comparison over stream data")
                    self.void("comparison of a data-dependent value")
                return taint
            try:
                result = True
                left = values[0]
                for op_node, right in zip(node.ops, values[1:]):
                    op = _CMP_OPS.get(type(op_node))
                    if op is None:
                        return UNKNOWN
                    if not op(left, right):
                        result = False
                        break
                    left = right
                return result
            except Exception:
                return UNKNOWN
        if isinstance(node, ast.BoolOp):
            values = [self.eval(v, state, depth) for v in node.values]
            taint = _tainted(*values)
            if taint is not None:
                if taint is DATA:
                    self.note_blocker("boolean operator over stream data")
                return taint
            try:
                if isinstance(node.op, ast.And):
                    result: Any = True
                    for v in values:
                        result = v
                        if not v:
                            break
                    return result
                result = False
                for v in values:
                    result = v
                    if v:
                        break
                return result
            except Exception:
                return UNKNOWN
        if isinstance(node, ast.IfExp):
            test = self.eval(node.test, state, depth)
            taint = _tainted(test)
            if taint is None:
                try:
                    taken = bool(test)
                except Exception:
                    taint = UNKNOWN
                else:
                    return self.eval(node.body if taken else node.orelse, state, depth)
            if taint is DATA:
                self.note_blocker("conditional expression over stream data")
                self.void("conditional expression on a data-dependent value")
            else:
                self.note_blocker("conditional expression is not statically resolvable")
                self.void("conditional expression is not statically resolvable")
            a = self.eval(node.body, state, depth)
            b = self.eval(node.orelse, state, depth)
            if a is b:
                return a
            inner = _tainted(a, b)
            return inner if inner is not None else UNKNOWN
        if isinstance(node, ast.Subscript):
            container = self.eval(node.value, state, depth)
            index = self.eval(node.slice, state, depth)
            taint = _tainted(container, index)
            if taint is not None:
                if _tainted(index) is DATA:
                    self.note_blocker("subscript index depends on stream data")
                return taint
            try:
                result = container[index]
            except Exception:
                return UNKNOWN
            if id(container) in self.foreign and not _copied(container):
                result = self._import_value(result)  # an opaque object's item
            return result
        if isinstance(node, (ast.List, ast.Set)):
            items = [self.eval(e, state, depth) for e in node.elts]
            return items if isinstance(node, ast.List) else UNKNOWN
        if isinstance(node, ast.Tuple):
            return tuple(self.eval(e, state, depth) for e in node.elts)
        if isinstance(node, ast.Dict):
            result: Dict[Any, Any] = {}
            for k, v in zip(node.keys, node.values):
                if k is None:
                    return UNKNOWN
                key = self.eval(k, state, depth)
                if _tainted(key) is not None:
                    return UNKNOWN
                result[key] = self.eval(v, state, depth)
            return result
        if isinstance(node, ast.Slice):
            lower = self.eval(node.lower, state, depth) if node.lower else None
            upper = self.eval(node.upper, state, depth) if node.upper else None
            step = self.eval(node.step, state, depth) if node.step else None
            taint = _tainted(
                *(v for v in (lower, upper, step) if v is not None)
            )
            if taint is not None:
                return taint
            return slice(lower, upper, step)
        if isinstance(node, (ast.ListComp, ast.GeneratorExp)):
            return self.eval_comprehension(node, state, depth)
        if isinstance(node, ast.Starred):
            return self.eval(node.value, state, depth)
        if isinstance(node, ast.Lambda):
            self.note_blocker("lambda in work()")
            return UNKNOWN
        if isinstance(node, (ast.JoinedStr, ast.FormattedValue)):
            return UNKNOWN
        if isinstance(node, ast.NamedExpr):
            value = self.eval(node.value, state, depth)
            self.assign(node.target, value, state, depth)
            return value
        self.note_blocker(f"unmodelled expression {type(node).__name__}")
        if _has_consuming_ops(node):
            self.note_dynamic(
                f"channel operation inside unmodelled {type(node).__name__}"
            )
        elif _has_channel_ops(node):
            self.max_peek = math.inf
        return UNKNOWN

    def affine_op(self, op: type, left: Any, right: Any) -> Any:
        """``left op right`` over stream data while rows are tracked: the
        affine form if the operation keeps one, else opaque :data:`DATA`."""
        a, b = _as_affine(left), _as_affine(right)
        if a is None or b is None:
            lost = left if a is None else right
            self.void(f"value {lost!r} cannot appear in stream arithmetic")
        elif op is ast.Add:
            return a.add(b)
        elif op is ast.Sub:
            return a.add(b.neg())
        elif op is ast.Mult and not (a.coeffs and b.coeffs):
            return a.scale(b.const) if a.coeffs else b.scale(a.const)
        elif op is ast.Mult:
            self.void("product of two data-dependent values")
        elif op is ast.Div and not b.coeffs and b.const:
            return a.scale(1.0 / b.const)
        elif op is ast.Div:
            self.void("division by a data-dependent value or by zero")
        else:
            self.void(f"nonlinear operator {op.__name__} on a data-dependent value")
        return DATA

    def eval_comprehension(self, node: ast.expr, state: _State, depth: int) -> Any:
        gens = node.generators
        if len(gens) != 1 or gens[0].is_async:
            self.note_blocker("nested/async comprehension in work()")
            self._degrade_if_channel_ops(node, "comprehension")
            return UNKNOWN
        gen = gens[0]
        iterable = self.eval(gen.iter, state, depth)
        if _tainted(iterable) is not None:
            if _tainted(iterable) is DATA:
                self.note_blocker("comprehension iterates over stream data")
            self._degrade_if_channel_ops(node, "comprehension")
            return UNKNOWN
        try:
            items = list(iterable)
        except TypeError:
            self._degrade_if_channel_ops(node, "comprehension")
            return UNKNOWN
        out: List[Any] = []
        inner = state  # comprehension shares counts; env writes are scoped
        saved = dict(inner.env)
        try:
            for item in items:
                self.tick()
                self.assign(gen.target, item, inner, depth)
                keep = True
                for cond in gen.ifs:
                    test = self.eval(cond, inner, depth)
                    if _tainted(test) is not None:
                        self.note_blocker("comprehension filter is not resolvable")
                        self._degrade_if_channel_ops(node, "comprehension filter")
                        return UNKNOWN
                    if not test:
                        keep = False
                        break
                if keep:
                    out.append(self.eval(node.elt, inner, depth))
        finally:
            inner.env = saved
        return out

    # -- attribute / global resolution ---------------------------------------

    def _global(self, name: str) -> Any:
        globs = self.globals
        read = ("global", name)
        if read not in self.reads:
            self.reads[read] = _global_fingerprint(globs, name)
        if name in globs:
            return self._import_value(globs[name])
        return _builtins_of(globs).get(name, UNKNOWN)

    def _module_read(self, module: types.ModuleType, attr: str) -> None:
        """Record ``module.attr`` (``cfg.GAIN``) in the read set, unless the
        module comes with the Python or numpy the stored key names."""
        name = module.__name__
        if name.partition(".")[0] in _VERSIONED_MODULES:
            return
        read = ("attr", name, attr)
        if read not in self.reads:
            mine = sys.modules.get(name) is module
            self.reads[read] = _attr_fingerprint(name, attr) if mine else None

    def eval_attribute(self, node: ast.Attribute, state: _State, depth: int) -> Any:
        owner = self.eval(node.value, state, depth)
        if owner is SELF:
            attr = node.attr
            if attr in CHANNEL_ATTRS:
                return _Channel("in" if attr == "input" else "out")
            if attr in self.unstable:
                return UNKNOWN
            if attr not in self.reads:
                self.reads[attr] = _read_fingerprint(self.filt, self.globals, attr)
            try:
                value = getattr(self.filt, attr)
            except AttributeError:
                self.note_dynamic(f"work() reads undefined attribute self.{attr}")
                return UNKNOWN
            return self._import_value(value)
        taint = _tainted(owner)
        if taint is DATA:
            self.note_blocker(f"attribute access .{node.attr} on stream data")
            return DATA
        if taint is UNKNOWN:
            return UNKNOWN
        if isinstance(owner, _Channel):
            return UNKNOWN
        if isinstance(owner, types.ModuleType):
            self._module_read(owner, node.attr)
        try:
            value = getattr(owner, node.attr)
        except Exception:
            return UNKNOWN
        if id(owner) in self.foreign:
            value = self._import_value(value)
        return value

    def _import_value(self, value: Any) -> Any:
        """The analysis's stand-in for a live object, made once per run:
        numbers and strings are themselves, builtin containers and arrays are
        copied all the way down (nothing the analysis can store into aliases
        the instance), anything else — a Portal, a module, a callable — is
        itself: usable for identity and marker checks, never mutated or
        called blindly.  Copies and opaque objects alike are ``foreign``."""
        kind = type(value)
        if kind in _SCALAR_TYPES or isinstance(value, numbers.Number):
            return value
        known = self.foreign.get(id(value))
        if known is not None:
            return known[1]
        if not _copied(value):
            mine = value
        elif kind is dict:
            mine = {k: self._import_value(v) for k, v in value.items()}
        elif kind in (list, tuple, set, frozenset):
            mine = kind(map(self._import_value, value))
        else:
            mine = value.copy()
        self.foreign[id(value)] = self.foreign[id(mine)] = (value, mine)
        return mine

    # -- calls ---------------------------------------------------------------

    def eval_call(self, node: ast.Call, state: _State, depth: int) -> Any:
        func = node.func
        if isinstance(func, ast.Attribute):
            owner = self.eval(func.value, state, depth)
            method = func.attr
            if owner is SELF:
                return self.call_self_method(node, method, state, depth)
            if isinstance(owner, _Channel):
                return self.call_channel(node, owner, method, state, depth)
            taint = _tainted(owner)
            if taint is not None:
                self.void(f"call to method {method!r} on a value that is not constant")
                args = [self.eval(a, state, depth) for a in node.args]
                if taint is DATA:
                    self.note_blocker(
                        f"method call .{method}() on stream data"
                    )
                    return DATA
                if any(_tainted(a) is DATA for a in args):
                    return DATA
                if self.channel_escaped:
                    self.note_dynamic(
                        f"call .{method}() on an opaque object after a "
                        "channel reference escaped"
                    )
                return UNKNOWN
            if isinstance(owner, types.ModuleType):
                self._module_read(owner, method)
            callee = getattr(owner, method, None)
            return self.call_concrete(node, callee, state, depth)
        callee = self.eval(func, state, depth)
        taint = _tainted(callee)
        if taint is not None:
            if self.channel_escaped:
                self.note_dynamic(
                    "call through an unresolved callee after a channel "
                    "reference escaped"
                )
            self._consume_args(node, state, depth)
            return UNKNOWN
        return self.call_concrete(node, callee, state, depth)

    def _consume_args(self, node: ast.Call, state: _State, depth: int) -> List[Any]:
        self.void("a call the analysis cannot resolve")
        args = []
        for a in node.args:
            args.append(self.eval(a, state, depth))
        for kw in node.keywords:
            if kw.value is not None:
                args.append(self.eval(kw.value, state, depth))
        if any(isinstance(a, _Channel) for a in args):
            self.channel_escaped = True
        return args

    def call_channel(
        self, node: ast.Call, channel: _Channel, method: str, state: _State, depth: int
    ) -> Any:
        if channel.direction == "in" and method == "pop" and not node.args:
            return self.do_pop(state)
        if channel.direction == "in" and method == "peek" and len(node.args) == 1:
            return self.do_peek(state, self.eval(node.args[0], state, depth))
        if channel.direction == "out" and method == "push" and len(node.args) == 1:
            self.do_push(state, self.eval(node.args[0], state, depth))
            return None
        self.note_dynamic(f"unmodelled channel call .{method}()")
        self.note_blocker(f"unmodelled channel call .{method}()")
        self._consume_args(node, state, depth)
        return UNKNOWN

    def call_self_method(
        self, node: ast.Call, method: str, state: _State, depth: int
    ) -> Any:
        if method == "pop" and not node.args and not node.keywords:
            return self.do_pop(state)
        if method == "peek" and len(node.args) == 1 and not node.keywords:
            return self.do_peek(state, self.eval(node.args[0], state, depth))
        if method == "push" and len(node.args) == 1 and not node.keywords:
            self.do_push(state, self.eval(node.args[0], state, depth))
            return None
        fn = getattr(self.cls, method, None)
        raw = inspect_unwrap(fn) if fn is not None else None
        if raw is None or not callable(fn) or not _is_plain_function(raw):
            # A callable instance attribute or an unresolvable descriptor:
            # never call it.  If it could touch channels we cannot know.
            args = self._consume_args(node, state, depth)
            self.note_dynamic(f"opaque call self.{method}()")
            if any(_tainted(a) is DATA for a in args):
                self.note_blocker(f"opaque call self.{method}() on stream data")
            else:
                self.note_blocker(f"opaque call self.{method}()")
            return UNKNOWN
        if depth >= _MAX_CALL_DEPTH:
            self.note_dynamic(f"helper call self.{method}() exceeds inline depth")
            self.note_blocker(f"helper call self.{method}() exceeds inline depth")
            self._consume_args(node, state, depth)
            return UNKNOWN
        try:
            helper = method_ast(self.cls, method)
        except SourceUnavailable as exc:
            self.note_dynamic(str(exc))
            self.note_blocker(f"helper self.{method}() source unavailable")
            self._consume_args(node, state, depth)
            return UNKNOWN
        return self.inline_helper(node, helper, method, state, depth)

    def inline_helper(
        self,
        node: ast.Call,
        helper: ast.FunctionDef,
        method: str,
        state: _State,
        depth: int,
    ) -> Any:
        args = [self.eval(a, state, depth) for a in node.args]
        kwargs = {}
        for kw in node.keywords:
            if kw.arg is None:
                self.note_dynamic(f"**kwargs call to self.{method}()")
                self.note_blocker(f"**kwargs call to self.{method}()")
                return UNKNOWN
            kwargs[kw.arg] = self.eval(kw.value, state, depth)
        params = helper.args
        if params.vararg or params.kwarg or params.posonlyargs or params.kwonlyargs:
            self.note_dynamic(f"helper self.{method}() has a complex signature")
            self.note_blocker(f"helper self.{method}() has a complex signature")
            return UNKNOWN
        names = [a.arg for a in params.args]
        env: Dict[str, Any] = {names[0]: SELF} if names else {}
        defaults = params.defaults
        required = names[1:]
        # Apply defaults from the tail.
        for name, default in zip(required[len(required) - len(defaults):], defaults):
            env[name] = self.eval(default, state, depth)
        for name, value in zip(required, args):
            env[name] = value
        for name, value in kwargs.items():
            if name not in names:
                self.note_dynamic(f"bad keyword {name!r} for self.{method}()")
                return UNKNOWN
            env[name] = value
        missing = [n for n in required if n not in env]
        if missing:
            self.note_dynamic(
                f"helper self.{method}() called without argument(s) {missing}"
            )
            return UNKNOWN
        if any(_tainted(v) is DATA for v in env.values()):
            # runtime/vectorize.py only rebinds ``math`` in work()'s own
            # globals; a helper calling real libm on a batch column would
            # fail or silently diverge, so data flowing into helpers blocks
            # certification (counting continues unaffected).
            self.note_blocker(
                f"stream data flows into helper self.{method}()"
            )
        sub = _State(env, state.pop, state.push, state.rows)
        result: Any = None
        try:
            self.exec_body(helper.body, sub, depth + 1)
        except _Return as ret:
            result = ret.value
        except (_Break, _Continue):
            self.note_dynamic(f"stray break/continue in helper self.{method}()")
            result = UNKNOWN
        state.pop = sub.pop
        state.push = sub.push
        state.rows = sub.rows
        return result

    def call_concrete(self, node: ast.Call, callee: Any, state: _State, depth: int) -> Any:
        args = [self.eval(a, state, depth) for a in node.args]
        kwargs: Dict[str, Any] = {}
        for kw in node.keywords:
            if kw.arg is None:
                return UNKNOWN
            kwargs[kw.arg] = self.eval(kw.value, state, depth)
        if callee is None:
            return UNKNOWN
        has_data = any(_tainted(a) is DATA for a in list(args) + list(kwargs.values()))
        has_unknown = any(
            _tainted(a) is UNKNOWN for a in list(args) + list(kwargs.values())
        )
        if any(a is SELF for a in list(args) + list(kwargs.values())):
            self.note_dynamic("self escapes into a foreign call")
            self.note_blocker("self escapes into a foreign call")
            return UNKNOWN
        module = getattr(callee, "__module__", None) or ""
        is_math = module == "math" or (
            getattr(math, getattr(callee, "__name__", ""), None) is callee
        )
        is_np = _np is not None and (module.startswith("numpy"))
        if has_data:
            if not self.nonlinear:
                self.void(
                    f"call to {getattr(callee, '__name__', callee)!r} with a "
                    "data-dependent argument"
                )
            if is_math:
                name = getattr(callee, "__name__", "?")
                if name not in VECTOR_SAFE_MATH or depth > 0:
                    self.note_blocker(
                        f"math.{name}() on stream data"
                        + (" inside a helper" if depth > 0 else " is not batch-exact")
                    )
                return DATA
            if callee in _DATA_SAFE_BUILTINS:
                return DATA
            name = getattr(callee, "__name__", repr(callee))
            self.note_blocker(f"call to {name}() on stream data")
            if callee in _SAFE_BUILTINS or is_np:
                return DATA
            return DATA
        pure = callee in _SAFE_BUILTINS or is_math or is_np
        if has_unknown:
            if not pure:  # never run: what it does to its arguments is lost
                self.void("a call the analysis cannot resolve")
            return UNKNOWN
        if pure:
            try:
                return callee(*args, **kwargs)
            except Exception:
                return UNKNOWN
        # Foreign callable on concrete args: NOT executed (it could have
        # arbitrary side effects — think portal.setf or file I/O).
        name = getattr(callee, "__name__", type(callee).__name__)
        self.note_dynamic(f"unwhitelisted call {name}() left unevaluated")
        return UNKNOWN


def _copied(value: Any) -> bool:
    """Does :meth:`RateAnalyzer._import_value` copy ``value`` (or hand it
    over as the live, opaque object it is)?"""
    return type(value) in (list, tuple, set, frozenset, dict, bytearray) or (
        _np is not None and isinstance(value, _np.ndarray)
    )


def _has_channel_ops(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute):
            if sub.func.attr in {"pop", "peek", "push", "pop_many", "push_many"}:
                return True
    return False


def _has_consuming_ops(node: ast.AST) -> bool:
    """Channel operations that move the pop/push counters — ``peek`` is
    read-only and excluded, so peek-only constructs never cost exactness."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute):
            if sub.func.attr in {"pop", "push", "pop_many", "push_many"}:
                return True
    return False


def inspect_unwrap(fn: Any) -> Any:
    import inspect

    try:
        return inspect.unwrap(fn)
    except Exception:
        return fn


def _is_plain_function(fn: Any) -> bool:
    return isinstance(fn, types.FunctionType)


def _work_globals(cls: type) -> Dict[str, Any]:
    return getattr(inspect_unwrap(cls.work), "__globals__", {})


def _builtins_of(globs: Dict[str, Any]) -> Dict[str, Any]:
    found = globs.get("__builtins__", builtins)
    return found if isinstance(found, dict) else vars(found)


# -- the read-set memo --------------------------------------------------------

_SCALAR_TYPES = frozenset({int, float, complex, bool, str, bytes, type(None)})
_ABSENT = ("absent",)


def _digest(data: bytes) -> bytes:
    return hashlib.blake2b(data, digest_size=16).digest()


def _fingerprint(value: Any) -> Any:
    """A hashable stand-in for ``value`` that is equal only for values the
    analysis cannot tell apart, or None when there is none (opaque).

    Exact builtin scalars are tagged with their type (``1``, ``1.0`` and
    ``True`` differ; so do ``0.0`` and ``-0.0``, whose reprs differ); a
    flat list or tuple of them is one digested repr under a tag of its own
    (no two of those types share a repr, so it separates exactly what one
    tag per item would); other lists and tuples recurse (then digest);
    ndarrays are dtype + shape + a digest of the bytes; a :class:`Rate` is
    its three (validated int) fields.  Everything else — a Portal, a dict,
    a user object — is opaque.
    """
    kind = type(value)
    if kind in _SCALAR_TYPES:
        return (kind.__name__, repr(value))
    if kind is list or kind is tuple:
        # Digested, so a 256-tap coefficient list costs the memo 16 bytes.
        if _SCALAR_TYPES.issuperset(map(type, value)):
            return (kind.__name__ + " of scalars", len(value), _digest(repr(value).encode()))
        items = tuple(map(_fingerprint, value))
        if None in items:
            return None
        return (kind.__name__, len(items), _digest(repr(items).encode()))
    if _np is not None and kind is _np.ndarray and not value.dtype.hasobject:
        return ("ndarray", value.dtype.str, value.shape, _digest(value.tobytes()))
    if kind is Rate:  # ``self.rate.peek`` as a loop bound is a common idiom
        return ("Rate", _fingerprint((value.peek, value.pop, value.push)))
    return None


#: Public name: the runtime compares live filter state with the same
#: fingerprints the memo is keyed on (region lowering's collapse tier).
value_fingerprint = _fingerprint


#: Modules whose contents the stored key's Python and numpy versions fix:
#: ``work()`` reading ``math.pi`` or ``np.float64`` records no read.
_VERSIONED_MODULES = frozenset(sys.stdlib_module_names) | {"numpy"}


def _resolved(value: Any) -> Any:
    """A value ``work()`` reaches by name: a module by its name (what it
    reads through the module is a read of its own), data by its
    fingerprint, anything else (a function, a class, an object) opaque."""
    if isinstance(value, types.ModuleType):
        return ("module", value.__name__)
    return _fingerprint(value)


def _global_fingerprint(globs: Dict[str, Any], name: str) -> Any:
    """What ``work()`` resolves the free name ``name`` to: a global by
    :func:`_resolved`, a builtin by its own name."""
    if name in globs:
        return _resolved(globs[name])
    return ("builtin", name) if name in _builtins_of(globs) else _ABSENT


def _attr_fingerprint(module_name: str, attr: str) -> Any:
    """What ``work()`` reads as ``attr`` of the module imported as
    ``module_name``; opaque when no module is."""
    module = sys.modules.get(module_name)
    if module is None:
        return None
    try:
        return _resolved(getattr(module, attr))
    except Exception:
        return _ABSENT


def _read_fingerprint(filt: Filter, globs: Dict[str, Any], name: Any) -> Any:
    """The current fingerprint of one read (a key of ``RateAnalyzer.reads``)."""
    if type(name) is tuple:
        if name[0] == "global":
            return _global_fingerprint(globs, name[1])
        return _attr_fingerprint(name[1], name[2])
    try:
        return _fingerprint(getattr(filt, name))
    except AttributeError:
        return _ABSENT


class _ReadSetMemo:
    """``key -> names read -> fingerprints of those names -> report``.

    Holds fingerprints and reports only: no filter instance and no live
    attribute value.  Bounded by dropping (nearly) everything when full — a
    process that keeps building *distinct* filters (a fuzzer) must not grow
    it without limit, and a refill costs one analysis per distinct filter.

    The cache directory (:func:`repro.diskcache.cache_dir`) keeps a copy
    for the next process: one ``<stem>.rates`` entry per key, whose stem
    names the class by module, qualified name and source digest instead of
    by object (:func:`_store_stem`).  The first miss on a key reads its
    entry (:meth:`load`); :meth:`flush` writes the keys that gained
    entries, and only a compiled session calls it, at its first steady
    pass — ``validate()`` and streamlint read and never write.
    """

    MAX_ENTRIES = 4096

    def __init__(self) -> None:
        self._by_key: Dict[tuple, Dict[tuple, Dict[tuple, RateReport]]] = {}
        self._entries = 0
        #: key -> its entry's stem (None: not storable), once it was read.
        self._stems: Dict[tuple, Optional[str]] = {}
        #: storable keys with entries the directory does not have yet.
        self._dirty: Set[tuple] = set()

    def __len__(self) -> int:
        return self._entries

    def clear(self) -> None:
        self._by_key.clear()
        self._entries = 0
        self._stems.clear()
        self._dirty.clear()

    def recall(self, key: tuple, filt: Filter) -> Optional[RateReport]:
        globs = getattr(key[1], "__globals__", {})
        for names, by_values in self._by_key.get(key, {}).items():
            values = tuple(_read_fingerprint(filt, globs, name) for name in names)
            report = by_values.get(values)
            if report is not None:
                return report
        return None

    def _put(self, key: tuple, names: tuple, values: tuple, report: RateReport) -> bool:
        if self._entries >= self.MAX_ENTRIES:
            self._make_room(key)
        by_values = self._by_key.setdefault(key, {}).setdefault(names, {})
        new = values not in by_values
        self._entries += new
        by_values[values] = report
        return new

    def _make_room(self, key: tuple) -> None:
        """Drop the entries of every key but ``key`` and those with entries
        not written yet — or theirs too, when they alone fill half the memo
        (a process that never writes).  ``key`` keeps its stem, so what is
        put next is still written."""
        kept = {k: self._by_key[k] for k in self._dirty | {key} if k in self._by_key}
        count = sum(len(by_values) for k in kept for by_values in kept[k].values())
        if count > self.MAX_ENTRIES // 2:
            kept, count = {}, 0
        self._by_key, self._entries = kept, count
        self._stems = {k: s for k, s in self._stems.items() if k in kept or k == key}
        self._dirty &= set(kept)

    def remember(self, key: tuple, reads: Dict[Any, Any], report: RateReport) -> None:
        values = tuple(reads.values())
        if None in values:  # an opaque read: nothing sound to key on
            return
        if self._put(key, tuple(reads), values, report) and self._stems.get(key):
            self._dirty.add(key)

    def load(self, key: tuple, filt: Filter) -> Optional[RateReport]:
        """On the first miss of ``key``: read its stored entries, then
        recall ``filt`` again.  One analysis hit or miss per storable key;
        an entry that is absent, damaged or from another Python is a miss."""
        if key in self._stems:
            return None
        stem = self._stems[key] = _store_stem(key)
        if stem is None:
            return None
        body = read_entry(cache_dir() / f"{stem}.rates", _STORE_TAG)
        if body is not None:
            try:
                version, stored, entries = marshal.loads(body)
                if (version, stored) == (sys.version_info[:2], stem):
                    for names, values, data in entries:
                        self._put(key, names, values, _report_of(data))
            except (EOFError, ValueError, TypeError):  # verified bytes of another shape
                pass
        report = self.recall(key, filt)
        codegen_cache_stats["analysis_misses" if report is None else "analysis_hits"] += 1
        return report

    def flush(self) -> None:
        """Write every key that gained entries since it was read, with all
        of its entries (those read included), then bound the directory."""
        directory = cache_dir()
        for key in self._dirty:
            stem = self._stems[key]
            entries = tuple(
                (names, values, _report_data(report))
                for names, by_values in self._by_key.get(key, {}).items()
                for values, report in by_values.items()
            )
            try:
                body = marshal.dumps((sys.version_info[:2], stem, entries))
            except ValueError:  # a numpy scalar in a report: keep it in-process
                continue
            write_entry(directory / f"{stem}.rates", _STORE_TAG, body)
        if self._dirty:
            self._dirty.clear()
            evict(directory, ".rates", STORE_MAX)


# -- the store ----------------------------------------------------------------

#: Rate entries a cache directory keeps (the oldest written go first).
STORE_MAX = 1024
_STORE_TAG = "repro-rates"


@functools.lru_cache(maxsize=None)
def _file_digest(path: str) -> Optional[str]:
    try:
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()
    except OSError:
        return None


@functools.lru_cache(maxsize=None)
def _analysis_digest() -> str:
    """This package's own source: a stored report is its executor's output."""
    files = sorted(Path(__file__).parent.glob("*.py"))
    return "".join(_file_digest(str(path)) or "?" for path in files)


def _class_origin(k: type) -> Optional[tuple]:
    """``(module, qualname, source digest)`` of one class of a filter's MRO;
    None when another process could not name it so: defined inside a
    function, no source file, or a function in its namespace that was
    defined elsewhere (a ``work`` assigned at run time)."""
    qualname = k.__qualname__
    path = getattr(sys.modules.get(k.__module__), "__file__", None)
    if "<locals>" in qualname or not path:
        return None
    for value in vars(k).values():
        fn = getattr(value, "__func__", value)  # staticmethod, classmethod
        if isinstance(fn, types.FunctionType) and not (
            fn.__module__ == k.__module__ and fn.__qualname__.startswith(qualname + ".")
        ):
            return None
    digest = _file_digest(path)
    return None if digest is None else (k.__module__, qualname, digest)


def _store_stem(key: tuple) -> Optional[str]:
    """The name ``key``'s entries are stored under, the same in every
    process: its class by :func:`_class_origin` of each class of the MRO,
    the declared rate, the unstable set, the rows flag, this package's
    source, the Python version and numpy's; None when the class has no
    such name."""
    cls, _work, rate, unstable, rows = key
    origins = [_class_origin(k) for k in cls.__mro__ if k is not object]
    if None in origins:
        return None
    parts = (
        origins, (rate.peek, rate.pop, rate.push), sorted(unstable), rows,
        _analysis_digest(), sys.version_info[:2], getattr(_np, "__version__", None),
    )
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:32]


def _report_data(report: RateReport) -> tuple:
    """``report`` as plain tuples, strings and numbers (what marshal takes)."""
    rows = report.rows and tuple((tuple(row.coeffs.items()), row.const) for row in report.rows)
    return (
        report.pop.lo, report.pop.hi, report.push.lo, report.push.hi, report.max_peek,
        report.dynamic, report.peek_violations, report.cert_blockers, rows, report.nonlinear,
    )


def _report_of(data: tuple) -> RateReport:
    pop_lo, pop_hi, push_lo, push_hi, *findings, rows, nonlinear = data
    rows = rows and tuple(Affine(dict(coeffs), const) for coeffs, const in rows)
    return RateReport(
        Interval(pop_lo, pop_hi), Interval(push_lo, push_hi), *findings, rows, nonlinear
    )


MEMO = _ReadSetMemo()


def analyze_rates(filt: Filter, unstable_attrs: Set[str]) -> RateReport:
    """Symbolically execute ``filt.work()`` and report channel counts.

    ``unstable_attrs`` are the attributes the effects pass proved (or
    suspects) are mutated across firings — their reads evaluate to
    :data:`UNKNOWN` so the analysis never trusts a stale build-time value.

    The report is a deterministic function of the class (its ``work()`` and
    helper ASTs), the declared rates, the unstable set and the values of
    the ``self.<attr>``, module globals and module attributes the run
    reads, so it is memoised
    on exactly those: an instance whose current values fingerprint like an
    earlier run's shares that run's (read-only) report — in this process
    or, through the cache directory, in a later one.  A run that read an
    opaque value is not memoised.
    """
    return _memoised(filt, unstable_attrs, rows=False)


def affine_rows(filt: Filter) -> RateReport:
    """:func:`analyze_rates` of a filter the linearity pre-screen passed (no
    unstable attribute), with the affine form of every pushed item in
    ``report.rows`` — or the reason there is none in ``report.nonlinear``.
    A second memo entry beside the rate report's: ``validate()`` and
    streamlint never ask for rows and never pay for them."""
    return _memoised(filt, frozenset(), rows=True)


def _memoised(filt: Filter, unstable_attrs: Set[str], rows: bool) -> RateReport:
    cls = type(filt)
    key = (cls, inspect_unwrap(cls.work), filt.rate, frozenset(unstable_attrs), rows)
    report = MEMO.recall(key, filt)
    if report is None:
        report = MEMO.load(key, filt)
    if report is None:
        analyzer = RateAnalyzer(filt, unstable_attrs, rows)
        report = analyzer.run()
        MEMO.remember(key, analyzer.reads, report)
    return report
