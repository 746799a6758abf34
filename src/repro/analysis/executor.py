"""The symbolic executor of ``work()``: what :mod:`repro.analysis.rates`
reports, from one run.

An abstract interpreter over a filter's ``work()``, whose AST is lowered
once per process into closures (see "lowering" below).  Values live in a
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
  *foreign* with the ``self`` attribute they stem from, and a store into a
  foreign object is not performed — it is reported
  (:data:`FOREIGN_STORE`) and is a write of that attribute, or, for an
  object of the module, a write of state outside the instance.

The pass also records *certification blockers*: reasons the computation is
not provably safe to run column-wise over a whole batch.  These feed the
vectorization proof in :mod:`repro.analysis.vectorsafety`.

The same run records the *effects facts* (:class:`WorkFacts`) that
:mod:`repro.analysis.effects` classifies: the ``self`` attributes written
(directly, or through a copy whose root is ``self.X``), ``self.X.m(…)``
calls with the latency each states, ``self`` escaping, and writes it
cannot bound.  A write counts wherever it stands, so code the run does not
take — the other arm of a concrete test, a loop of zero trips, what
follows a ``return`` — is walked *effects-only*: its counts are thrown
away.  An attribute written is *unstable*: its reads evaluate to
:data:`UNKNOWN`, and a run that read one as a value before the write is
run again with the grown set, until the set holds.

The run also charges the static cost table, the per-firing work estimate
(``RateReport.work``): 1 for an operator, comparison, subscript, channel
operation, assignment or loop trip, 2 for an augmented assignment, and for
a call ``TRANSCENDENTAL_COST`` (``sin``, ``sqrt``, …) or 2 (a helper's body
is not charged) plus its positional arguments.  A call's callee and
keywords, an assignment's target and a loop's iterable are free; a
construct with no row (a dict, a slice, ``try``, …) costs 1, its parts
nothing.  A decided branch costs its test and the arm taken, an undecided
one the dearer arm.  A ``for`` over literals, attributes and globals, and a
``while`` the run iterates, cost the trips run; a ``for`` over a local
keeps the walker's ``DEFAULT_TRIP`` first trips (see :func:`_lower_for`);
a loop the run cannot iterate costs ``DEFAULT_TRIP`` × (1 + one probe
trip).  A run that gives up at the step budget reports what it charged
so far, a lower bound.
"""

from __future__ import annotations

import ast
import math
import numbers
import operator
import sys
import types
import weakref
from typing import Any, Dict, List, NamedTuple, Optional, Set, Tuple

from repro.analysis.effects import (
    CHANNEL_ATTRS,
    CHANNEL_METHODS,
    UNRESOLVED,
    SourceUnavailable,
    method_ast,
)
from repro.analysis.rates import (
    _SCALAR_TYPES,
    _VERSIONED_MODULES,
    BUDGET_EXCEEDED,
    DEFAULT_TRIP,
    FOREIGN_STORE,
    TRANSCENDENTAL_COST,
    Affine,
    Interval,
    RateReport,
    WorkFacts,
    _attr_fingerprint,
    _builtins_of,
    _Data,
    _global_fingerprint,
    _is_time_interval,
    _np,
    _read_fingerprint,
    inspect_unwrap,
)
from repro.graph.base import Filter
from repro.vecmath import VECTOR_SAFE_MATH


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

DATA = _Data()
UNKNOWN = _Unknown()
SELF = _Self()

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
    if type(value) is float or isinstance(value, numbers.Real):
        return Affine({}, value)
    return None


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


#: A helper call could not bind its arguments: the helper is not inlined.
_NOT_INLINED = object()

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
    """Mutable per-path state: environment, channel counters, the affine
    rows pushed so far and the cost charged so far."""

    __slots__ = ("env", "pop", "push", "rows", "cost")

    def __init__(
        self, env: Dict[str, Any], pop: Interval, push: Interval,
        rows: Optional[List[Affine]] = None, cost: float = 0,
    ) -> None:
        self.env = env
        self.pop = pop
        self.push = push
        self.rows = [] if rows is None else rows
        self.cost = cost

    def clone(self) -> "_State":
        return _State(dict(self.env), self.pop.copy(), self.push.copy(), list(self.rows), self.cost)

    def adopt(self, other: "_State") -> None:
        """Continue as ``other``: its environment, counts and cost."""
        self.env, self.pop, self.push, self.cost = other.env, other.pop, other.push, other.cost

    def merge(self, other: "_State") -> None:
        self.pop = self.pop.merged(other.pop)
        self.push = self.push.merged(other.push)
        self.cost = max(self.cost, other.cost)
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
    """Symbolic executor for one filter instance's ``work()``: it runs the
    closures :func:`lowered` made of the body, and of each helper the body
    inlines, against this instance."""

    def __init__(self, filt: Filter, rows: bool = False) -> None:
        self.filt = filt
        self.cls = type(filt)
        self.rows = rows
        #: Attributes written or called on: their reads are UNKNOWN.  It
        #: only grows, and outlives a pass (see :meth:`run`).
        self.unstable: Set[str] = set()
        # The effects facts, kept across passes (the write set may grow
        # but never shrink); ``sites`` is the last pass's.  A dict is an
        # ordered set of reasons.
        self.writes: Set[str] = set()
        self.value_reads: Set[str] = set()
        self.calls: Set[Tuple[str, str]] = set()
        self.unbounded: Dict[str, None] = {}
        self.escapes: Dict[str, None] = {}
        #: Where work()'s free names resolve.
        self.globals: Dict[str, Any] = _work_globals(self.cls)
        #: method name -> what ``self.<name>(…)`` calls (:meth:`method`).
        self.methods: Dict[str, Any] = {}
        self._new_pass()

    def _new_pass(self) -> None:
        #: Why pushed items have no affine rows (the first reason stands);
        #: while it is None, ``pop``/``peek`` hand out :class:`Affine` forms.
        self.nonlinear: Optional[str] = None if self.rows else "rows not requested"
        self.max_peek: float = -1
        self.dynamic: List[str] = []
        self.violations: List[str] = []
        self.blockers: List[str] = []
        self.steps = 0
        #: id() -> (object, the analysis's stand-in for it, the ``self``
        #: attribute it was read from or None), for every live object met
        #: (on the instance, in the module) and for every stand-in: a
        #: private copy of a container, the object itself when opaque.
        #: Both are held, so no id is reused within a run; a store into any
        #: of them is never performed.
        self.foreign: Dict[int, Tuple[Any, Any, Optional[str]]] = {}
        #: True once a channel reference was stored somewhere the analysis
        #: cannot see through (an attribute of an opaque object, an argument
        #: to an unevaluated call).  After that, any opaque call may drive
        #: this filter's channels, so such calls must degrade to dynamic.
        self.channel_escaped = False
        self.ended: List[_State] = []
        #: ``self.<attr>`` read off the live instance (key ``attr``), module
        #: globals or builtins resolved (key ``("global", name)``) and
        #: attributes read through a module (key ``("attr", module, name)``)
        #: -> fingerprint of the value seen (None: opaque), in first-read
        #: order; the memo key.
        self.reads: Dict[Any, Any] = {}
        #: Attributes whose live value this pass handed out.
        self.concrete: Set[str] = set()
        self.sites: Dict[Tuple[str, str, Any, str], None] = {}

    # -- notes ---------------------------------------------------------------

    def note_dynamic(self, reason: str) -> None:
        self.void(reason)
        if reason not in self.dynamic:
            self.dynamic.append(reason)

    def void(self, reason: str) -> None:
        """From here on the pushed items are not known affine forms."""
        self.nonlinear = self.nonlinear or reason

    def note_foreign_store(self, root: Optional[str]) -> None:
        """A store into an object read off the instance (``root``) or the
        module (None): never performed, and a write either way."""
        self.note_blocker(FOREIGN_STORE)
        self.void(f"stateful: {FOREIGN_STORE}")
        if root is None:
            self.unbounded[FOREIGN_STORE] = None
        else:
            self.note_write(root)

    def note_held_store(self, held: Any) -> None:
        """A store into ``held``: reported, and never performed, when it
        is a live object or its stand-in."""
        known = self.foreign.get(id(held))
        if known is not None:
            self.note_foreign_store(known[2])

    def note_blocker(self, reason: str) -> None:
        if reason not in self.blockers:
            self.blockers.append(reason)

    def note_violation(self, reason: str) -> None:
        if reason not in self.violations:
            self.violations.append(reason)

    def note_write(self, attr: str) -> None:
        self.writes.add(attr)
        self.unstable.add(attr)

    def note_call(self, attr: str, method: str) -> None:
        self.calls.add((attr, method))
        self.unstable.add(attr)

    def tick(self) -> None:
        """One step of the budget."""
        self.steps += 1
        if self.steps > _MAX_STEPS:
            raise _GiveUp

    def effects_only(self, walk, *args) -> Any:
        """``walk(self, *args)`` for its effects facts alone — on code this
        run does not take — and its value (None if it jumps): the counts,
        findings and rows it produces are thrown away."""
        saved = (
            self.nonlinear, self.max_peek, self.dynamic, self.violations, self.blockers,
            self.ended, self.channel_escaped,
        )
        self.dynamic, self.violations, self.blockers, self.ended = [], [], [], []
        try:
            return walk(self, *args)
        except _JUMPS:
            return None
        finally:
            (
                self.nonlinear, self.max_peek, self.dynamic, self.violations, self.blockers,
                self.ended, self.channel_escaped,
            ) = saved

    def skipped(self, body, state: _State, depth: int) -> None:
        """Walk a lowered body this run does not take for its effects alone."""
        if body is not _nothing:
            self.effects_only(body, state.clone(), depth)

    # -- entry ---------------------------------------------------------------

    def run(self) -> RateReport:
        """Passes until no attribute turned unstable after a pass read its
        value: the report is the last pass's, run with every unstable
        attribute UNKNOWN from its first read."""
        while True:
            report = self._pass()
            if not self.unstable & self.concrete:
                return report
            self._new_pass()

    def _pass(self) -> RateReport:
        pop = Interval.exactly(0)
        push = Interval.exactly(0)
        try:
            work = lowered(method_ast(self.cls))
        except SourceUnavailable as exc:
            self.note_dynamic(str(exc))
            self.unbounded[str(exc)] = None
            self.note_blocker("work() source unavailable")
            return self._report(Interval(0, math.inf), Interval(0, math.inf), [], None)
        state = _State({work.self_name: SELF}, pop, push)
        try:
            try:
                work.body(self, state, 0)
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
            self.note_dynamic(BUDGET_EXCEEDED)
            self.unbounded[BUDGET_EXCEEDED] = None
            state.pop = state.pop.merged(Interval(state.pop.lo, math.inf))
            state.push = state.push.merged(Interval(state.push.lo, math.inf))
            self.note_blocker("rate analysis gave up")
        for done in self.ended:
            state.pop = state.pop.merged(done.pop)
            state.push = state.push.merged(done.push)
            state.cost = max(state.cost, done.cost)
        return self._report(state.pop, state.push, state.rows, state.cost)

    def _report(
        self, pop: Interval, push: Interval, rows: List[Affine], work: Optional[float]
    ) -> RateReport:
        return RateReport(
            pop=pop,
            push=push,
            max_peek=self.max_peek,
            dynamic=tuple(self.dynamic),
            peek_violations=tuple(self.violations),
            cert_blockers=tuple(self.blockers),
            rows=None if self.nonlinear else tuple(rows),
            nonlinear=self.nonlinear,
            facts=WorkFacts(
                writes=tuple(sorted(self.writes)),
                value_reads=tuple(sorted(self.value_reads)),
                calls=tuple(sorted(self.calls)),
                sites=tuple(self.sites),
                dynamic=tuple(self.unbounded),
                escapes=tuple(self.escapes),
            ),
            work=work,
        )

    # -- channel ops ---------------------------------------------------------

    def do_pop(self, state: _State) -> Any:
        if state.pop.hi == self.filt.rate.pop and state.pop.exact:
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
                state.rows.append(row)
        if state.push.hi == self.filt.rate.push and state.push.exact:
            self.note_violation(
                f"work() pushes more than the declared push rate "
                f"{self.filt.rate.push}"
            )
        state.push.bump()

    # -- control flow --------------------------------------------------------

    def run_both(self, body, orelse, state: _State, depth: int) -> None:
        """Execute both arms of an unresolvable branch and merge counts."""
        outcomes: List[Tuple[str, Optional[_State], Optional[BaseException]]] = []
        for arm in (body, orelse):
            arm_state = state.clone()
            try:
                arm(self, arm_state, depth)
            except _PathRaise:
                outcomes.append(("raise", None, None))
            except _Return:
                self.ended.append(arm_state)
                outcomes.append(("return", None, None))
            except (_Break, _Continue) as exc:
                self.note_dynamic("break/continue under a data-dependent condition")
                outcomes.append(("jump", arm_state, exc))
            else:
                outcomes.append(("fall", arm_state, None))
        fallthrough = [s for kind, s, _ in outcomes if kind == "fall"]
        if fallthrough:
            merged = fallthrough[0]
            # jump arms contribute their counts conservatively
            for extra in fallthrough[1:] + [s for kind, s, _ in outcomes if kind == "jump"]:
                merged.merge(extra)
            state.adopt(merged)
            return
        # No arm falls through: propagate the strongest control transfer.
        for kind, s, exc in outcomes:
            if kind == "jump":
                state.adopt(s)
                raise exc
        raise _Return(None) if any(kind == "return" for kind, _, _ in outcomes) else _PathRaise

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

    # -- attribute / global resolution ---------------------------------------

    def global_value(self, name: str) -> Any:
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

    def attribute(self, owner: Any, attr: str) -> Any:
        """``owner.<attr>``."""
        if owner is SELF:
            return self.self_attr(attr)
        taint = _tainted(owner)
        if taint is DATA:
            self.note_blocker(f"attribute access .{attr} on stream data")
            return DATA
        if taint is UNKNOWN:
            return UNKNOWN
        if isinstance(owner, _Channel):
            return UNKNOWN
        if isinstance(owner, types.ModuleType):
            self._module_read(owner, attr)
        try:
            value = getattr(owner, attr)
        except Exception:
            return UNKNOWN
        if id(owner) in self.foreign:
            value = self._import_value(value, self.foreign[id(owner)][2])
        return value

    def self_attr(self, attr: str, value_read: bool = True) -> Any:
        """``self.<attr>``: the live value's stand-in, UNKNOWN once unstable."""
        if attr in CHANNEL_ATTRS:
            return _Channel("in" if attr == "input" else "out")
        if attr == "__dict__":
            self.unbounded["touches self.__dict__"] = None
        elif value_read:
            self.value_reads.add(attr)
        if attr in self.unstable:
            return UNKNOWN
        if attr not in self.reads:
            self.reads[attr] = _read_fingerprint(self.filt, self.globals, attr)
        try:
            value = getattr(self.filt, attr)
        except AttributeError:
            self.note_dynamic(f"work() reads undefined attribute self.{attr}")
            return UNKNOWN
        self.concrete.add(attr)
        return self._import_value(value, attr)

    def _import_value(self, value: Any, root: Optional[str] = None) -> Any:
        """The analysis's stand-in for a live object, made once per run:
        numbers and strings are themselves, builtin containers and arrays are
        copied all the way down (nothing the analysis can store into aliases
        the instance), anything else — a Portal, a module, a callable — is
        itself: usable for identity and marker checks, never mutated or
        called blindly.  Copies and opaque objects alike are ``foreign``,
        and remember ``root``: the ``self`` attribute they were read from."""
        kind = type(value)
        if kind in _SCALAR_TYPES or isinstance(value, numbers.Number):
            return value
        known = self.foreign.get(id(value))
        if known is not None:
            return known[1]
        if not _copied(value):
            mine = value
        elif kind is dict:
            mine = {k: self._import_value(v, root) for k, v in value.items()}
        elif kind in (list, tuple, set, frozenset):
            if _SCALAR_TYPES.issuperset(map(type, value)):  # items are themselves
                mine = kind(list(value))
            else:
                mine = kind(self._import_value(v, root) for v in value)
        else:
            mine = value.copy()
        self.foreign[id(value)] = self.foreign[id(mine)] = (value, mine, root)
        return mine

    # -- calls ---------------------------------------------------------------

    def method(self, name: str) -> Any:
        """What ``self.<name>(…)`` calls, resolved once per analyzer: the
        lowered helper (:class:`_Function`), the :class:`SourceUnavailable`
        its source raised, or ``(attribute, unwrapped)`` when the class
        has no plain function by that name."""
        found = self.methods.get(name)
        if found is None:
            fn = getattr(self.cls, name, None)
            raw = inspect_unwrap(fn) if fn is not None else None
            if raw is None or not callable(fn) or not isinstance(raw, types.FunctionType):
                found = (fn, raw)
            else:
                try:
                    found = lowered(method_ast(self.cls, name))
                except SourceUnavailable as exc:
                    found = exc
            self.methods[name] = found
        return found

    def apply(self, callee: Any, args: List[Any], kwargs: Dict[str, Any], depth: int) -> Any:
        """A call of a concrete callee on evaluated arguments: run only when
        it is pure, else its result is opaque."""
        values = args + list(kwargs.values())
        if callee in (setattr, delattr, vars) and any(a is SELF for a in args):
            self.unbounded[f"calls {callee.__name__}() on self"] = None
        if any(a is SELF for a in values):
            self.note_dynamic("self escapes into a foreign call")
            self.note_blocker("self escapes into a foreign call")
            return UNKNOWN
        taints = {_tainted(a) for a in values}
        module = getattr(callee, "__module__", None) or ""
        is_math = module == "math" or getattr(math, getattr(callee, "__name__", ""), None) is callee
        if DATA in taints:
            if not self.nonlinear:
                name = getattr(callee, "__name__", callee)
                self.void(f"call to {name!r} with a data-dependent argument")
            if is_math:
                name = getattr(callee, "__name__", "?")
                if name not in VECTOR_SAFE_MATH or depth > 0:
                    where = " inside a helper" if depth > 0 else " is not batch-exact"
                    self.note_blocker(f"math.{name}() on stream data{where}")
            elif callee not in _DATA_SAFE_BUILTINS:
                name = getattr(callee, "__name__", repr(callee))
                self.note_blocker(f"call to {name}() on stream data")
            return DATA
        pure = (
            callee in _SAFE_BUILTINS or is_math or module.startswith("numpy")
            or _is_time_interval(callee)
        )
        if UNKNOWN in taints:
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


# -- lowering -----------------------------------------------------------------
#
# A body is lowered once per process into closures ``fn(analyzer, state,
# depth)``: an expression's returns its value, an assignment target's takes
# the value as a fourth argument.  What the shape of the code decides is
# taken here — which statement or expression a node is, whether a call is
# ``self.push(…)``, a channel operation, a helper or a concrete callee, the
# names a loop assigns, whether a subtree holds channel operations, the
# messages it reports.  What the instance decides is left to the closures:
# whether a name holds ``self``, attribute values and their fingerprints,
# taint, affine rows, findings, ``tick()``.

_JUMPS = (_Return, _Break, _Continue, _PathRaise)


class _Function:
    """A lowered ``FunctionDef``: its body, and how a call binds it.  It
    holds no reference to the tree, so it goes when the tree does."""

    __slots__ = ("body", "names", "self_name", "defaults", "complex", "arg_names", "first")

    def __init__(self, fn: ast.FunctionDef) -> None:
        params = fn.args
        self.body = lower_body(fn.body)
        self.names = [a.arg for a in params.args]
        self.self_name = self.names[0] if self.names else "self"
        required = self.names[1:]
        self.defaults = tuple(
            zip(required[len(required) - len(params.defaults):], map(_free, params.defaults))
        )
        self.complex = bool(params.vararg or params.kwarg or params.posonlyargs or params.kwonlyargs)
        # What an effects-only walk of a body no call could bind starts from.
        self.arg_names = [a.arg for a in ast.walk(params) if isinstance(a, ast.arg)]
        positional = params.posonlyargs or params.args
        self.first = positional[0].arg if positional else None


#: shared ``FunctionDef`` -> its lowering; weak, so it goes with the tree
#: (:func:`repro.graph.source.function_ast` drops a tree with its function).
_LOWERED: "weakref.WeakKeyDictionary[ast.FunctionDef, _Function]" = weakref.WeakKeyDictionary()


def lowered(fn: ast.FunctionDef) -> _Function:
    """The closures of ``fn``, made on its first executor run."""
    low = _LOWERED.get(fn)
    if low is None:
        low = _LOWERED[fn] = _Function(fn)
    return low


def _nothing(an: RateAnalyzer, state: _State, depth: int) -> None:
    """An empty body."""


def lower_body(stmts: List[ast.stmt]):
    """A statement list: what follows a jump is walked effects-only."""
    fns = tuple(map(lower_stmt, stmts))
    if len(fns) <= 1:
        return fns[0] if fns else _nothing
    count = len(fns)
    def body(an, state, depth, start=0):
        for i in range(start, count):
            try:
                fns[i](an, state, depth)
            except _JUMPS:
                if i + 1 < count:  # what follows the jump still writes
                    an.effects_only(body, state.clone(), depth, i + 1)
                raise
    return body


# -- static facts of a subtree ------------------------------------------------


class _Subtree(NamedTuple):
    """What a subtree holds, read in one walk."""

    #: The names it mentions: one that holds self lets self escape.
    names: Tuple[str, ...]
    #: The names it stores to or deletes: :func:`_havoc` them.
    assigned: Tuple[str, ...]
    #: A channel operation that moves the pop/push counters — ``peek`` is
    #: read-only, so peek-only constructs never cost exactness.
    consuming: bool
    #: A channel operation, ``peek`` included.
    channel: bool


def _subtree(node: ast.AST):
    """``facts()`` of ``node``, a :class:`_Subtree` read in one walk the
    first time a run asks: most loops and comprehensions never do."""
    read: List[_Subtree] = []
    def facts() -> _Subtree:
        if not read:
            read.append(_read_subtree(node))
        return read[0]
    return facts


def _read_subtree(node: ast.AST) -> _Subtree:
    names: Dict[str, None] = {}
    assigned: Dict[str, None] = {}
    methods = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] = None
            if isinstance(sub.ctx, (ast.Store, ast.Del)):
                assigned[sub.id] = None
        elif isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute):
            methods.add(sub.func.attr)
    methods &= CHANNEL_METHODS
    return _Subtree(tuple(names), tuple(assigned), bool(methods - {"peek"}), bool(methods))


def _mentions_self(names: Tuple[str, ...], env: Dict[str, Any]) -> bool:
    return any(env.get(name) is SELF for name in names)


def _havoc(state: _State, names: Tuple[str, ...]) -> None:
    for name in names:
        state.env[name] = UNKNOWN


def _self_root(node: ast.expr) -> Optional[Tuple[str, str]]:
    """``(name, X)`` when ``node`` is ``name.X`` or an item or attribute of
    it: ``X`` is the ``self`` attribute it stems from when ``name`` holds
    self (:func:`_root_of`)."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            return node.value.id, node.attr
        node = node.value
    return None


def _root_of(root: Optional[Tuple[str, str]], env: Dict[str, Any]) -> Optional[str]:
    return root[1] if root is not None and env.get(root[0]) is SELF else None


def _lower_degrade(facts, what: str):
    """Code the executor cannot model: it loses the rows, and the counts if
    it could move a channel."""
    def degrade(an):
        an.void(f"unsupported {what}")
        if facts().consuming:
            an.note_dynamic(f"channel operation inside unanalyzable {what}")
        elif facts().channel:
            an.max_peek = math.inf
            an.note_blocker(f"peek inside unanalyzable {what}")
    return degrade


def _lower_name(name: str, escape: Optional[str], operand: bool):
    """A name's value.  Where self is no value (``operand``: the owner of an
    attribute or method, a call argument) a name holding it costs no step;
    ``escape`` is noted when the name holds self."""
    def ev(an, state, depth):
        if operand and state.env.get(name) is SELF:
            if escape:
                an.escapes[escape] = None
            return SELF
        an.tick()
        env = state.env
        if name not in env:
            return an.global_value(name)
        value = env[name]
        if value is SELF:
            an.escapes[escape] = None
        return value
    return ev


def _lower_operand(node: ast.expr, escape: Optional[str] = None):
    """``node`` where a name holding self is no value."""
    return _lower_name(node.id, escape, True) if type(node) is ast.Name else lower_expr(node)


def _lower_arg(node: ast.expr):
    return _lower_operand(node, "self passed as a call argument")


# -- the cost table -----------------------------------------------------------

#: Calls charged TRANSCENDENTAL_COST, by the name called.
_TRANSCENDENTAL = frozenset({
    "sin", "cos", "tan", "exp", "log", "log2", "log10", "sqrt", "atan", "atan2", "asin",
    "acos", "sinh", "cosh", "tanh", "pow", "hypot", "floor", "ceil",
})

#: The statements and expressions the cost table has a row for.
_COSTED = frozenset({
    ast.Expr, ast.Assign, ast.AugAssign, ast.If, ast.For, ast.While, ast.Return, ast.Break,
    ast.Continue, ast.Pass, ast.Constant, ast.Name, ast.Attribute, ast.Call, ast.BinOp,
    ast.UnaryOp, ast.Compare, ast.BoolOp, ast.IfExp, ast.Subscript, ast.List, ast.Tuple,
})


def _flat(run):
    """A construct the cost table has no row for: it costs 1, its parts
    nothing."""
    def flat(an, state, depth):
        cost = state.cost
        try:
            return run(an, state, depth)
        finally:
            state.cost = cost + 1
    return flat


def _free(node: ast.expr, lower=None):
    """``node`` lowered by ``lower`` (else :func:`lower_expr`), its cost not
    charged: a part the cost table does not read."""
    ev = (lower or lower_expr)(node)
    if type(node) in (ast.Name, ast.Constant):  # nothing to charge
        return ev
    def free(an, state, depth):
        cost = state.cost
        value = ev(an, state, depth)
        state.cost = cost
        return value
    return free


def _call_weight(func: ast.expr) -> int:
    """A call's own cost, by the name it calls."""
    name = func.attr if type(func) is ast.Attribute else getattr(func, "id", None)
    if name in ("pop", "peek", "push"):
        return 1
    return TRANSCENDENTAL_COST if name in _TRANSCENDENTAL else 2


# -- statements ---------------------------------------------------------------


def lower_stmt(stmt: ast.stmt):
    """One statement: ``fn(analyzer, state, depth)``, which ticks first."""
    run = _lower_stmt(stmt)
    kind = type(stmt)
    return run if kind in _COSTED or (kind is ast.AnnAssign and stmt.value) else _flat(run)


def _lower_stmt(stmt: ast.stmt):
    kind = type(stmt)
    if kind is ast.Expr:
        value = lower_expr(stmt.value)
        def run(an, state, depth):
            an.tick()
            value(an, state, depth)
        return run
    if kind is ast.Assign or (kind is ast.AnnAssign and stmt.value is not None):
        value = lower_expr(stmt.value)
        nodes = stmt.targets if kind is ast.Assign else [stmt.target]
        targets = tuple(map(lower_target, nodes))
        # ``s = self`` makes an alias of self, not an escape.
        alias = kind is ast.Assign and type(stmt.value) is ast.Name and all(
            type(t) is ast.Name for t in nodes
        ) and stmt.value.id
        def run(an, state, depth):
            an.tick()
            state.cost += 1
            if alias and state.env.get(alias) is SELF:
                held = SELF
            else:
                held = value(an, state, depth)
            for target in targets:
                target(an, state, depth, held)
        return run
    if kind is ast.AugAssign:
        # The Store-context target reads as a load: lowering never looks at
        # an expression's context.  The read costs nothing, the operation 2.
        value = _lower_binop(_free(stmt.target), type(stmt.op), lower_expr(stmt.value), 2)
        target = lower_target(stmt.target)
        name = type(stmt.target) is ast.Name and stmt.target.id
        def run(an, state, depth):
            an.tick()
            if name:  # ``buf += …`` may mutate in place what ``buf`` names
                an.note_held_store(state.env.get(name))
            target(an, state, depth, value(an, state, depth))
        return run
    if kind is ast.If:
        return _lower_if(stmt)
    if kind is ast.For:
        return _lower_for(stmt)
    if kind is ast.While:
        return _lower_while(stmt)
    if kind is ast.Return:
        value = lower_expr(stmt.value) if stmt.value is not None else None
        name = type(stmt.value) is ast.Name and stmt.value.id
        def run(an, state, depth):
            an.tick()
            if name and state.env.get(name) is SELF:
                an.escapes["work returns self"] = None
                raise _Return(SELF)
            raise _Return(value(an, state, depth) if value is not None else None)
        return run
    if kind in (ast.Raise, ast.Break, ast.Continue):
        jump = {ast.Raise: _PathRaise, ast.Break: _Break, ast.Continue: _Continue}[kind]
        def run(an, state, depth):
            an.tick()
            raise jump
        return run
    if kind is ast.Assert:
        test = lower_expr(stmt.test)
        def run(an, state, depth):
            an.tick()
            held = an.nonlinear
            value = test(an, state, depth)
            if _tainted(value) is None:
                try:
                    if not value:
                        raise _PathRaise
                except _PathRaise:
                    raise
                except Exception:
                    pass
            elif not an.dynamic:
                # A check *on* stream data is not stream arithmetic: what its
                # test lost of the affine forms is not held against the rows
                # (a linear node just does not make the check).
                an.nonlinear = held
        return run
    if kind in (ast.Pass, ast.AnnAssign):
        def run(an, state, depth):
            an.tick()
        return run
    if kind is ast.Delete:
        targets = tuple(map(_lower_delete, stmt.targets))
        def run(an, state, depth):
            an.tick()
            an.void("unsupported statement Delete")
            for target in targets:
                target(an, state, depth)
        return run
    if kind in (ast.Global, ast.Nonlocal):
        reason = f"declares {' '.join(stmt.names)} {kind.__name__.lower()}"
        def run(an, state, depth):
            an.tick()
            an.unbounded[reason] = None
        return run
    if kind is ast.Try:
        return _lower_try(stmt)
    if kind in (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef):
        # A nested function closing over self can do anything later.
        return _lower_opaque(
            stmt, "nested definition", f"nested {kind.__name__} in work()",
            escape=f"self captured by nested {stmt.name!r}", assigned=(stmt.name,),
        )
    # with/match/… — too much control-flow ambiguity to model.
    return _lower_opaque(
        stmt, kind.__name__, f"unmodelled statement {kind.__name__}",
        walk=_lower_with(stmt) if kind is ast.With else None,
        escape=f"self reachable through unmodelled {kind.__name__}",
    )


def _lower_opaque(stmt: ast.stmt, what: str, blocker: str, walk=None, escape=None, assigned=None):
    """A statement the executor does not model: ``walk`` (effects-only), or
    else ``escape`` noted if it mentions self; then the rows (and the
    counts, if it could move a channel) are lost, and the names it assigns
    (``assigned``, else every name it stores to) are UNKNOWN."""
    facts = _subtree(stmt)
    degrade = _lower_degrade(facts, what)
    def run(an, state, depth):
        an.tick()
        if walk is not None:
            an.effects_only(walk, state.clone(), depth)
        elif _mentions_self(facts().names, state.env):
            an.escapes[escape] = None
        degrade(an)
        _havoc(state, assigned or facts().assigned)
        an.note_blocker(blocker)
    return run


def _lower_with(stmt: ast.With):
    items = tuple(
        (lower_expr(item.context_expr),
         None if item.optional_vars is None else lower_target(item.optional_vars))
        for item in stmt.items
    )
    body = lower_body(stmt.body)
    def walk(an, state, depth):
        for context, target in items:
            context(an, state, depth)
            if target is not None:
                target(an, state, depth, UNKNOWN)
        body(an, state, depth)
    return walk


def _lower_delete(target: ast.expr):
    """``del target``: of an attribute or item of state, a write."""
    if isinstance(target, (ast.Tuple, ast.List)):
        parts = tuple(map(_lower_delete, target.elts))
        def delete(an, state, depth):
            for part in parts:
                part(an, state, depth)
        return delete
    if not isinstance(target, (ast.Attribute, ast.Subscript)):
        return _nothing
    root, owner = _self_root(target), _lower_operand(target.value)
    def delete(an, state, depth):
        attr = _root_of(root, state.env)
        if attr is not None:
            an.note_write(attr)
        an.note_held_store(owner(an, state, depth))
    return delete


def _lower_try(stmt: ast.Try):
    """try/finally is modelled exactly; try/except degrades to dynamic.

    Without handlers the body either completes or aborts the firing, so
    counting the body then the finalizer is exact.  With ``except`` clauses
    the transfer points are unknowable statically.
    """
    body, orelse, final = map(lower_body, (stmt.body, stmt.orelse, stmt.finalbody))
    if not stmt.handlers:
        def run(an, state, depth):
            an.tick()
            try:
                body(an, state, depth)
            except _JUMPS:
                final(an, state, depth)
                raise
            orelse(an, state, depth)
            final(an, state, depth)
        return run
    parts = (body, *(lower_body(h.body) for h in stmt.handlers), orelse, final)
    def walk(an, state, depth):
        for part in parts:
            an.effects_only(part, state.clone(), depth)
    return _lower_opaque(stmt, "try/except", "try/except in work()", walk=walk)


# -- branching and loops ------------------------------------------------------


def _decide(an: RateAnalyzer, value: Any, on_data: Tuple[str, str], unresolved: str) -> Optional[bool]:
    """Whether a concrete test holds; None when it is not concrete, noted
    with ``on_data`` (blocker, loss of rows) or ``unresolved`` (both)."""
    taint = _tainted(value)
    if taint is None:
        try:
            return bool(value)
        except Exception:
            taint = UNKNOWN
    blocker, lost = on_data if taint is DATA else (unresolved, unresolved)
    an.note_blocker(blocker)
    an.void(lost)
    return None


def _lower_if(stmt: ast.If):
    test = lower_expr(stmt.test)
    body, orelse = lower_body(stmt.body), lower_body(stmt.orelse)
    notes = (
        ("branch condition depends on stream data", "branch on a data-dependent condition"),
        "branch condition is not statically resolvable",
    )
    def run(an, state, depth):
        an.tick()
        taken = _decide(an, test(an, state, depth), *notes)
        if taken is None:
            an.run_both(body, orelse, state, depth)
        else:
            an.skipped(orelse if taken else body, state, depth)
            (body if taken else orelse)(an, state, depth)
    return run


def _lower_for(stmt: ast.For):
    iterable_ev, target = _free(stmt.iter), lower_target(stmt.target)
    body, orelse = lower_body(stmt.body), lower_body(stmt.orelse)
    facts, iterable_facts = _subtree(stmt), _subtree(stmt.iter)
    unresolved = _lower_dynamic_loop(facts, body, orelse, "for loop over an unresolvable iterable")
    uniterable = _lower_dynamic_loop(facts, body, orelse, "for loop over a non-iterable")
    def one_trip(an, state, depth):
        target(an, state, depth, UNKNOWN)
        body(an, state, depth)
    def run(an, state, depth):
        an.tick()
        iterable = iterable_ev(an, state, depth)
        taint = _tainted(iterable)
        if taint is not None:
            if taint is DATA:
                an.note_blocker("loop iterates over stream data")
                an.void("iteration over a data-dependent value")
            unresolved(an, state, depth)
            return
        try:  # a range is iterated lazily: a huge one gives up at the budget
            items = iterable if type(iterable) is range else list(iterable)
        except TypeError:
            an.note_dynamic("for loop over a non-iterable value")
            uniterable(an, state, depth)
            return
        before, first = state.cost, None  # the cost of the first trip
        for item in items:
            an.tick()
            state.cost += 1
            target(an, state, depth, item)
            try:
                body(an, state, depth)
            except _Break:
                an.skipped(orelse, state, depth)
                break
            except _Continue:
                pass
            finally:
                if first is None:
                    first = state.cost - before
        else:
            if first is None:
                probe = state.clone()
                an.effects_only(one_trip, probe, depth)
                first = 1 + probe.cost - before
            orelse(an, state, depth)
        # Not exact on purpose: a loop over a value work() computes (a
        # local) is charged DEFAULT_TRIP first trips, the rule of the walker
        # the table comes from, though the run knows its trips.  Its real
        # trips move FFT's and TDE's CombineDFT stages, and the E3 ordering
        # with them (EXPERIMENTS.md §E33); that stays open until decided.
        if any(state.env.get(name, SELF) is not SELF for name in iterable_facts().names):
            state.cost = before + DEFAULT_TRIP * first
    return run


def _lower_while(stmt: ast.While):
    test = lower_expr(stmt.test)
    body, orelse = lower_body(stmt.body), lower_body(stmt.orelse)
    unbounded = _lower_dynamic_loop(_subtree(stmt), body, orelse, "while loop with an unresolvable bound")
    def concrete(an, state, depth) -> bool:
        """Iterate concretely (``while i < n: i += 1``), charging every
        trip; False as soon as a test is not concrete."""
        iterations = 0
        while True:
            an.tick()
            value = test(an, state, depth)
            if _tainted(value) is not None:
                return False
            try:
                alive = bool(value)
            except Exception:
                return False
            if not alive:
                if not iterations:
                    an.skipped(body, state, depth)
                orelse(an, state, depth)
                return True
            iterations += 1
            if iterations > 100_000:
                an.note_dynamic("while loop exceeded the iteration budget")
                return False
            try:
                body(an, state, depth)
            except _Break:
                an.skipped(orelse, state, depth)
                return True
            except _Continue:
                pass
    def run(an, state, depth):
        an.tick()
        snapshot = state.clone()
        if concrete(an, state, depth):
            return
        state.adopt(snapshot)
        if _tainted(test(an, state, depth)) is DATA:
            an.note_blocker("while condition depends on stream data")
            an.void("while on a data-dependent condition")
        else:
            an.note_blocker("while loop is not statically bounded")
        # The test is what a trip costs besides the body.
        trip, state.cost = state.cost - snapshot.cost, snapshot.cost
        unbounded(an, state, depth, trip)
    return run


def _lower_dynamic_loop(facts, body, orelse, what: str):
    """A loop whose trip count is unknown: body 0..inf times, charged
    ``DEFAULT_TRIP`` times a trip (``trip`` plus one probe of the body)."""
    def loop(an, state, depth, trip=1):
        an.void(what)
        assigned = facts().assigned
        if facts().consuming:
            an.note_dynamic(f"channel operation inside {what}")
        elif facts().channel:
            # peek() never consumes: a loop of peeks with an unknown trip
            # count leaves the pop/push counts exact — only the reachable
            # peek window is lost (the probe below may see a resolvable
            # index, but iteration-varying state can reach further).
            an.max_peek = math.inf
            an.note_blocker(f"peek window unbounded inside {what}")
        before_pop, before_push = state.pop.copy(), state.push.copy()
        # Havoc loop-assigned names, then analyze the body once for peek
        # bounds and nested findings; counts widen to [before, inf).
        _havoc(state, assigned)
        probe = state.clone()
        try:
            body(an, probe, depth)
        except _JUMPS:
            pass
        state.cost += DEFAULT_TRIP * (trip + probe.cost - state.cost)
        an.skipped(orelse, state, depth)
        if probe.pop.hi > before_pop.hi:
            state.pop = Interval(before_pop.lo, math.inf)
        if probe.push.hi > before_push.hi:
            state.push = Interval(before_push.lo, math.inf)
        _havoc(state, assigned)
    return loop


# -- assignment targets -------------------------------------------------------


def lower_target(target: ast.expr):
    """An assignment target: ``fn(analyzer, state, depth, value)``, which
    charges nothing."""
    kind = type(target)
    if kind is ast.Name:
        name = target.id
        def store(an, state, depth, value):
            state.env[name] = value
    elif kind in (ast.Tuple, ast.List):
        elts = target.elts
        starred = any(type(e) is ast.Starred for e in elts)
        parts = tuple(map(lower_target, elts))
        inner = tuple(lower_target(e.value) if type(e) is ast.Starred else p for e, p in zip(elts, parts))
        def store(an, state, depth, value):
            taint = _tainted(value)
            if taint is None:
                try:
                    items = list(value)
                except TypeError:
                    items = None
                if items is not None and len(items) == len(parts) and not starred:
                    for part, item in zip(parts, items):
                        part(an, state, depth, item)
                    return
                taint = UNKNOWN
            for part in inner:
                part(an, state, depth, taint)
    elif kind is ast.Subscript:
        container_ev, index_ev = _free(target.value), _free(target.slice)
        root = _self_root(target.value)
        def store(an, state, depth, value):
            container = container_ev(an, state, depth)
            index = index_ev(an, state, depth)
            if _tainted(index) is DATA:
                an.note_blocker("store index depends on stream data")
                an.void("store with a data-dependent index")
            attr = _root_of(root, state.env)
            if attr is not None:
                an.note_write(attr)
            if id(container) in an.foreign:
                an.note_foreign_store(an.foreign[id(container)][2])
            elif _tainted(container, index) is None:
                try:
                    container[index] = value
                    return
                except Exception:
                    pass
            an.void("a subscript store the analysis cannot perform")
    elif kind is ast.Attribute:
        # self.X = … — a state write: X is unstable from here on.
        owner, root, attr = _free(target.value, _lower_operand), _self_root(target.value), target.attr
        def store(an, state, depth, value):
            base = owner(an, state, depth)
            if isinstance(value, _Channel):
                # A channel reference now lives inside an object the analysis
                # reads back as opaque (delegation idiom: inner.output =
                # self.output); later opaque calls may push/pop through it.
                an.channel_escaped = True
            written = attr if base is SELF else _root_of(root, state.env)
            if written is not None:
                an.note_write(written)
            an.note_held_store(base)
    elif kind is ast.Starred:
        inner_store = lower_target(target.value)
        def store(an, state, depth, value):
            inner_store(an, state, depth, UNKNOWN)
    else:
        def store(an, state, depth, value):
            pass
    return store


# -- expressions --------------------------------------------------------------


def lower_expr(node: ast.expr):
    """One expression: ``fn(analyzer, state, depth) -> value``, which ticks
    first."""
    kind = type(node)
    if kind is ast.Constant:
        value = node.value
        def ev(an, state, depth):
            an.tick()
            return value
    elif kind is ast.Name:
        ev = _lower_name(node.id, "bare self used as a value", False)
    elif kind is ast.Attribute:
        owner, attr = lower_expr(node.value), node.attr
        held = type(node.value) is ast.Name and node.value.id
        def ev(an, state, depth):
            an.tick()
            if held and state.env.get(held) is SELF:  # ``self.attr``: self is no value here
                return an.self_attr(attr)
            return an.attribute(owner(an, state, depth), attr)
    elif kind is ast.Call:
        return _lower_call(node)
    elif kind is ast.BinOp:
        ev = _lower_binop(lower_expr(node.left), type(node.op), lower_expr(node.right), 1)
    elif kind is ast.UnaryOp:
        operand_ev, op_kind = lower_expr(node.operand), type(node.op)
        op, negation = _UNARY_OPS.get(op_kind), op_kind is ast.Not
        #: How a sign keeps an affine form.
        sign = {ast.USub: Affine.neg, ast.UAdd: lambda form: form}.get(op_kind)
        def ev(an, state, depth):
            an.tick()
            state.cost += 1
            operand = operand_ev(an, state, depth)
            taint = _tainted(operand)
            if taint is not None:
                if negation and taint is DATA:
                    an.note_blocker("boolean not applied to stream data")
                if taint is DATA and not an.nonlinear:
                    if sign is not None and isinstance(operand, Affine):
                        return sign(operand)
                    an.void(f"unary {op_kind.__name__} of a data-dependent value")
                return taint
            if op is None:
                return UNKNOWN
            try:
                return op(operand)
            except Exception:
                return UNKNOWN
    elif kind is ast.Compare:
        parts = tuple(map(lower_expr, (node.left, *node.comparators)))
        ops = tuple(_CMP_OPS.get(type(op)) for op in node.ops)
        def ev(an, state, depth):
            an.tick()
            state.cost += len(ops)
            values = [part(an, state, depth) for part in parts]
            taint = _tainted(*values)
            if taint is not None:
                if taint is DATA:
                    an.note_blocker("comparison over stream data")
                    an.void("comparison of a data-dependent value")
                return taint
            try:
                for op, left, right in zip(ops, values, values[1:]):
                    if op is None:
                        return UNKNOWN
                    if not op(left, right):
                        return False
                return True
            except Exception:
                return UNKNOWN
    elif kind is ast.BoolOp:
        parts, conjunction = tuple(map(lower_expr, node.values)), type(node.op) is ast.And
        def ev(an, state, depth):
            an.tick()
            state.cost += len(parts) - 1
            values = [part(an, state, depth) for part in parts]
            taint = _tainted(*values)
            if taint is not None:
                if taint is DATA:
                    an.note_blocker("boolean operator over stream data")
                return taint
            try:
                result: Any = conjunction
                for result in values:
                    if (not result) if conjunction else result:
                        break
                return result
            except Exception:
                return UNKNOWN
    elif kind is ast.IfExp:
        test, body, orelse = map(lower_expr, (node.test, node.body, node.orelse))
        notes = (
            ("conditional expression over stream data", "conditional expression on a data-dependent value"),
            "conditional expression is not statically resolvable",
        )
        def ev(an, state, depth):
            an.tick()
            taken = _decide(an, test(an, state, depth), *notes)
            if taken is not None:
                an.effects_only(orelse if taken else body, state.clone(), depth)
                return (body if taken else orelse)(an, state, depth)
            before = state.cost
            a = body(an, state, depth)
            arm = state.cost - before
            b = orelse(an, state, depth)
            state.cost = before + max(arm, state.cost - before - arm)  # the dearer arm
            if a is b:
                return a
            inner = _tainted(a, b)
            return inner if inner is not None else UNKNOWN
    elif kind is ast.Subscript:
        container_ev, index_ev = lower_expr(node.value), lower_expr(node.slice)
        def ev(an, state, depth):
            an.tick()
            state.cost += 1
            container = container_ev(an, state, depth)
            index = index_ev(an, state, depth)
            taint = _tainted(container, index)
            if taint is not None:
                if _tainted(index) is DATA:
                    an.note_blocker("subscript index depends on stream data")
                return taint
            try:
                result = container[index]
            except Exception:
                return UNKNOWN
            if id(container) in an.foreign and not _copied(container):
                # an opaque object's item
                result = an._import_value(result, an.foreign[id(container)][2])
            return result
    elif kind in (ast.List, ast.Tuple, ast.Set):
        # A list is a list, a tuple a tuple; a set is opaque.
        parts = tuple(map(lower_expr, node.elts))
        make = {ast.List: list, ast.Tuple: tuple}.get(kind, lambda items: UNKNOWN)
        def ev(an, state, depth):
            an.tick()
            return make([part(an, state, depth) for part in parts])
    elif kind is ast.Dict:
        entries = tuple(
            (None if k is None else lower_expr(k), lower_expr(v)) for k, v in zip(node.keys, node.values)
        )
        def ev(an, state, depth):
            an.tick()
            result: Dict[Any, Any] = {}
            for key_ev, value_ev in entries:
                if key_ev is None:
                    return UNKNOWN
                key = key_ev(an, state, depth)
                if _tainted(key) is not None:
                    return UNKNOWN
                result[key] = value_ev(an, state, depth)
            return result
    elif kind is ast.Slice:
        parts = tuple(None if p is None else lower_expr(p) for p in (node.lower, node.upper, node.step))
        def ev(an, state, depth):
            an.tick()
            bounds = [None if p is None else p(an, state, depth) for p in parts]
            taint = _tainted(*(v for v in bounds if v is not None))
            return taint if taint is not None else slice(*bounds)
    elif kind in (ast.ListComp, ast.GeneratorExp):
        comprehension, effects = _lower_comprehension(node), _lower_comprehension_effects(node)
        def ev(an, state, depth):
            an.tick()
            out = comprehension(an, state, depth)
            if out is UNKNOWN or not out:  # the element was never evaluated
                an.effects_only(effects, state.clone(), depth)
            return out
    elif kind is ast.Starred:
        inner = lower_expr(node.value)
        def ev(an, state, depth):
            an.tick()
            return inner(an, state, depth)
    elif kind is ast.Lambda:
        params = tuple(a.arg for a in ast.walk(node.args) if isinstance(a, ast.arg))
        body = lower_expr(node.body)
        def walk(an, state, depth):
            _havoc(state, params)
            body(an, state, depth)
        def ev(an, state, depth):
            an.tick()
            an.note_blocker("lambda in work()")
            an.effects_only(walk, state.clone(), depth)
            return UNKNOWN
    elif kind in (ast.JoinedStr, ast.FormattedValue):
        parts = tuple(lower_expr(p) for p in ast.iter_child_nodes(node) if isinstance(p, ast.expr))
        def ev(an, state, depth):
            an.tick()
            for part in parts:
                an.effects_only(part, state.clone(), depth)
            return UNKNOWN
    elif kind is ast.NamedExpr:
        value_ev, target = lower_expr(node.value), lower_target(node.target)
        def ev(an, state, depth):
            an.tick()
            value = value_ev(an, state, depth)
            target(an, state, depth, value)
            return value
    else:
        effects = _lower_comprehension_effects(node) if kind in (ast.SetComp, ast.DictComp) else None
        facts = _subtree(node)
        def ev(an, state, depth):
            an.tick()
            if effects is not None:
                an.effects_only(effects, state.clone(), depth)
            elif _mentions_self(facts().names, state.env):
                an.escapes[f"self reachable through unmodelled {kind.__name__}"] = None
            an.note_blocker(f"unmodelled expression {kind.__name__}")
            if facts().consuming:
                an.note_dynamic(f"channel operation inside unmodelled {kind.__name__}")
            elif facts().channel:
                an.max_peek = math.inf
            return UNKNOWN
    return ev if kind in _COSTED else _flat(ev)


def _lower_binop(left, op_kind: type, right, weight: int):
    """``left op right``, charged ``weight``: a binary operator, or the
    operation of an augmented assignment."""
    op = _BIN_OPS.get(op_kind)
    def ev(an, state, depth):
        an.tick()
        state.cost += weight
        a = left(an, state, depth)
        b = right(an, state, depth)
        taint = _tainted(a, b)
        if taint is not None:
            if taint is UNKNOWN or an.nonlinear:
                return taint
            return an.affine_op(op_kind, a, b)
        if op is None:
            return UNKNOWN
        try:
            return op(a, b)
        except Exception:
            return UNKNOWN
    return ev


def _lower_comprehension(node: ast.expr):
    gens = node.generators
    facts = _subtree(node)
    degrade = _lower_degrade(facts, "comprehension")
    if len(gens) != 1 or gens[0].is_async:
        def comprehension(an, state, depth):
            an.note_blocker("nested/async comprehension in work()")
            degrade(an)
            return UNKNOWN
        return comprehension
    iterable_ev, target = lower_expr(gens[0].iter), lower_target(gens[0].target)
    conds, elt = tuple(map(lower_expr, gens[0].ifs)), lower_expr(node.elt)
    unfiltered = _lower_degrade(facts, "comprehension filter")
    def comprehension(an, state, depth):
        iterable = iterable_ev(an, state, depth)
        taint = _tainted(iterable)
        if taint is not None:
            if taint is DATA:
                an.note_blocker("comprehension iterates over stream data")
            degrade(an)
            return UNKNOWN
        try:
            items = list(iterable)
        except TypeError:
            degrade(an)
            return UNKNOWN
        out: List[Any] = []
        saved = dict(state.env)  # the comprehension shares counts; env writes are scoped
        try:
            for item in items:
                an.tick()
                target(an, state, depth, item)
                for cond in conds:
                    test = cond(an, state, depth)
                    if _tainted(test) is not None:
                        an.note_blocker("comprehension filter is not resolvable")
                        unfiltered(an)
                        return UNKNOWN
                    if not test:
                        break
                else:
                    out.append(elt(an, state, depth))
        finally:
            state.env = saved
        return out
    return comprehension


def _lower_comprehension_effects(node: ast.expr):
    """Every part of a comprehension, once, its targets UNKNOWN."""
    gens = tuple(
        (lower_expr(gen.iter), lower_target(gen.target), tuple(map(lower_expr, gen.ifs)))
        for gen in node.generators
    )
    parts = (node.key, node.value) if type(node) is ast.DictComp else (node.elt,)
    parts = tuple(map(lower_expr, parts))
    def walk(an, state, depth):
        for iterable_ev, target, conds in gens:
            iterable_ev(an, state, depth)
            target(an, state, depth, UNKNOWN)
            for cond in conds:
                cond(an, state, depth)
        for part in parts:
            part(an, state, depth)
    return walk


# -- calls --------------------------------------------------------------------


def _lower_call(node: ast.Call):
    """A call: on ``self`` (a channel operation or a helper), on a channel,
    on a ``self.X`` (a call site), on another owner, or of a callee."""
    args = tuple(map(_lower_arg, node.args))
    keywords = tuple((kw.arg, _free(kw.value, _lower_arg)) for kw in node.keywords)
    weight = _call_weight(node.func)
    def consume(an, state, depth):
        """Evaluate every argument of a call the analysis cannot resolve."""
        an.void("a call the analysis cannot resolve")
        values = [arg(an, state, depth) for arg in args]
        values += [ev(an, state, depth) for _, ev in keywords]
        if any(isinstance(a, _Channel) for a in values):
            an.channel_escaped = True
        return values
    def bind(an, state, depth):
        """The arguments' values and the keywords' — None from a ``**``
        spread on, which is not evaluated."""
        values = [arg(an, state, depth) for arg in args]
        kwargs: Optional[Dict[str, Any]] = {}
        for name, ev in keywords:
            if name is None:
                return values, None
            kwargs[name] = ev(an, state, depth)
        return values, kwargs
    def concrete(an, callee, state, depth):
        values, kwargs = bind(an, state, depth)
        return UNKNOWN if callee is None or kwargs is None else an.apply(callee, values, kwargs, depth)

    func = node.func
    if type(func) is not ast.Attribute:
        callee_ev = _free(func)
        def ev(an, state, depth):
            an.tick()
            state.cost += weight
            callee = callee_ev(an, state, depth)
            if _tainted(callee) is None:
                return concrete(an, callee, state, depth)
            if an.channel_escaped:
                an.note_dynamic(
                    "call through an unresolved callee after a channel reference escaped"
                )
            consume(an, state, depth)
            return UNKNOWN
        return ev
    method, base = func.attr, func.value
    on_self = _lower_self_call(method, args, keywords, bind, consume)
    on_channel = _lower_channel_call(method, args, consume)
    def call_on(an, owner, state, depth):
        if owner is SELF:
            return on_self(an, state, depth)
        if isinstance(owner, _Channel):
            return on_channel(an, owner, state, depth)
        taint = _tainted(owner)
        if taint is not None:
            an.void(f"call to method {method!r} on a value that is not constant")
            values = [arg(an, state, depth) for arg in args]
            if taint is DATA:
                an.note_blocker(f"method call .{method}() on stream data")
                return DATA
            if any(_tainted(a) is DATA for a in values):
                return DATA
            if an.channel_escaped:
                an.note_dynamic(
                    f"call .{method}() on an opaque object after a channel reference escaped"
                )
            return UNKNOWN
        if isinstance(owner, types.ModuleType):
            an._module_read(owner, method)
        return concrete(an, getattr(owner, method, None), state, depth)

    owner_ev = _free(base, _lower_operand)
    held = type(base) is ast.Name and base.id  # ``self.m(…)``: self is never foreign
    # ``self.X.m(…)``: a call site on a self attribute, noted with the
    # latency its ``interval=`` states.
    site = type(base) is ast.Attribute and type(base.value) is ast.Name and (
        base.value.id, base.attr,
        None if base.attr in CHANNEL_ATTRS and method in CHANNEL_METHODS
        else _lower_site(node, base.attr, method),
    )
    def ev(an, state, depth):
        an.tick()
        state.cost += weight
        if held and state.env.get(held) is SELF:
            return on_self(an, state, depth)
        if site and state.env.get(site[0]) is SELF:
            if site[2] is not None:
                site[2](an, state, depth)
            return call_on(an, an.self_attr(site[1], value_read=False), state, depth)
        owner = owner_ev(an, state, depth)
        known = an.foreign.get(id(owner))
        if known is not None and known[2] is not None:  # a call on a copy of self.<root>
            an.note_call(known[2], method)
        return call_on(an, owner, state, depth)
    return ev


def _lower_site(node: ast.Call, attr: str, method: str):
    """A ``self.<attr>.<method>(…)`` call, with the latency its
    ``interval=`` states should ``attr`` hold a Portal."""
    steps = []
    for kw in node.keywords:
        if kw.arg is None:
            steps.append((None, "the call spreads **kwargs"))
            break
        if kw.arg == "interval":
            text = f"interval={ast.unparse(kw.value)} is not a compile-time constant"
            steps.append((lower_expr(kw.value), text))
    def site(an, state, depth):
        an.note_call(attr, method)
        latency, reason = None, ""
        for ev, text in steps:
            if ev is None:
                latency, reason = UNRESOLVED, text
                break
            value = an.effects_only(ev, state.clone(), depth)
            if _is_time_interval(type(value)) and type(value.max_time) is int:
                latency = value.max_time
            elif value is not None:
                latency, reason = UNRESOLVED, text
        an.sites[(attr, method, latency, reason)] = None
    return site


def _channel_op(method: str, args: tuple):
    """``pop()``, ``peek(i)`` or ``push(x)`` with the argument count it
    takes, as ``fn(analyzer, state, depth)``; None for anything else."""
    if method == "pop" and not args:
        return lambda an, state, depth: an.do_pop(state)
    if method in ("peek", "push") and len(args) == 1:
        op, arg = getattr(RateAnalyzer, "do_" + method), args[0]
        return lambda an, state, depth: op(an, state, arg(an, state, depth))
    return None


def _lower_channel_call(method: str, args: tuple, consume):
    """``self.input.pop()``, ``self.input.peek(i)``, ``self.output.push(x)``."""
    op = _channel_op(method, args)
    direction = "out" if method == "push" else "in"
    def call(an, channel, state, depth):
        if op is not None and channel.direction == direction:
            return op(an, state, depth)
        an.note_dynamic(f"unmodelled channel call .{method}()")
        an.note_blocker(f"unmodelled channel call .{method}()")
        consume(an, state, depth)
        return UNKNOWN
    return call


def _lower_self_call(method: str, args: tuple, keywords: tuple, bind, consume):
    """``self.<method>(…)``: a channel operation, or a helper inlined."""
    op = None if keywords else _channel_op(method, args)
    if op is not None:
        return op
    def call(an, state, depth):
        found = an.method(method)
        if type(found) is tuple:
            # A callable instance attribute or an unresolvable descriptor:
            # never call it.  If it could touch channels we cannot know.
            fn, raw = found
            if fn is None:
                an.note_call(method, "__call__")
            elif not isinstance(raw, property):
                an.unbounded[f"unresolvable self.{method}() (not a plain method)"] = None
            values = consume(an, state, depth)
            an.note_dynamic(f"opaque call self.{method}()")
            on_data = any(_tainted(a) is DATA for a in values)
            an.note_blocker(f"opaque call self.{method}()" + (" on stream data" if on_data else ""))
            return UNKNOWN
        if depth >= _MAX_CALL_DEPTH:
            an.unbounded[f"recursive helper call self.{method}()"] = None
            an.note_dynamic(f"helper call self.{method}() exceeds inline depth")
            an.note_blocker(f"helper call self.{method}() exceeds inline depth")
            consume(an, state, depth)
            return UNKNOWN
        if isinstance(found, SourceUnavailable):
            an.note_dynamic(str(found))
            an.unbounded[str(found)] = None
            an.note_blocker(f"helper self.{method}() source unavailable")
            consume(an, state, depth)
            return UNKNOWN
        result = inline(an, found, state, depth)
        if result is _NOT_INLINED:  # the body still writes
            env = dict.fromkeys(found.arg_names, UNKNOWN)
            if found.first is not None:
                env[found.first] = SELF
            sub = _State(env, Interval.exactly(0), Interval.exactly(0))
            an.effects_only(found.body, sub, depth + 1)
            return UNKNOWN
        return result
    def inline(an, helper: _Function, state, depth):
        values, kwargs = bind(an, state, depth)
        if kwargs is None:
            an.note_dynamic(f"**kwargs call to self.{method}()")
            an.note_blocker(f"**kwargs call to self.{method}()")
            return _NOT_INLINED
        if helper.complex:
            an.note_dynamic(f"helper self.{method}() has a complex signature")
            an.note_blocker(f"helper self.{method}() has a complex signature")
            return _NOT_INLINED
        names = helper.names
        env: Dict[str, Any] = {names[0]: SELF} if names else {}
        required = names[1:]
        for name, default in helper.defaults:
            env[name] = default(an, state, depth)
        env.update(zip(required, values))
        for name, value in kwargs.items():
            if name not in names:
                an.note_dynamic(f"bad keyword {name!r} for self.{method}()")
                return _NOT_INLINED
            env[name] = value
        missing = [n for n in required if n not in env]
        if missing:
            an.note_dynamic(f"helper self.{method}() called without argument(s) {missing}")
            return _NOT_INLINED
        if any(_tainted(v) is DATA for v in env.values()):
            # runtime/vectorize.py only rebinds ``math`` in work()'s own
            # globals; a helper calling real libm on a batch column would
            # fail or silently diverge, so data flowing into helpers blocks
            # certification (counting continues unaffected).
            an.note_blocker(f"stream data flows into helper self.{method}()")
        # The helper's body is not charged (its call costs 2 and its
        # arguments): ``sub`` keeps its own cost, and a path of it that
        # returned early is charged nothing.
        sub = _State(env, state.pop, state.push, state.rows)
        result: Any = None
        ended = len(an.ended)
        try:
            helper.body(an, sub, depth + 1)
        except _Return as ret:
            result = ret.value
        except (_Break, _Continue):
            an.note_dynamic(f"stray break/continue in helper self.{method}()")
            result = UNKNOWN
        finally:
            for done in an.ended[ended:]:
                done.cost = 0
        state.pop, state.push, state.rows = sub.pop, sub.push, sub.rows
        return result
    return call


def _copied(value: Any) -> bool:
    """Does :meth:`RateAnalyzer._import_value` copy ``value`` (or hand it
    over as the live, opaque object it is)?"""
    return type(value) in (list, tuple, set, frozenset, dict, bytearray) or (
        _np is not None and isinstance(value, _np.ndarray)
    )


def _work_globals(cls: type) -> Dict[str, Any]:
    return getattr(inspect_unwrap(cls.work), "__globals__", {})

