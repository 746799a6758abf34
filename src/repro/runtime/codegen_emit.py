"""Source emission for the one kind of block that runs generated code: a
:class:`~repro.runtime.plan.CoreLoopRunner`, the cyclic core of a feedback
loop — or, for a plan's small calls, the whole steady schedule as one core
(:class:`~repro.runtime.plan.SmallCalls`).

Every other block of a plan runs as the walk calls it (see
:mod:`repro.runtime.plan`).  A feedback core fires each node about once a
period, and a one-period call fires every node about once, so there
per-firing Python overhead — a bound method call, a list push and pop per
item — is the whole cost.
:func:`emit_module` writes the core as **one small Python source module**
whose ``run_chunk(scale)`` runs ``scale`` periods of it as an inlined
closed loop: the scalar ``work()`` bodies are rewritten by a
statement-level AST transformer, ``self.pop()``/``peek``/``push`` becoming
reads and bindings of locals where :class:`CoreEmitter` can follow a
tape's contents through the loop body, and list indexing where it cannot.
The emitter first evaluates what the unit fixes — firing counts, literal
and module-constant trips, and the immutable attributes ``init()`` left
that decide a body's structure — so it unrolls counted loops and a node's
firings in a row, reads peeks at folded positions, keeps the taken arm of a
decided ``if`` and binds the same locals in both arms of a balanced one;
an item stays on a list only where it crosses a unit boundary past
:data:`_CARRY_MAX`, an unbalanced branch or a loop left rolled.  The module
guards every folded attribute by identity, so a rebinding never runs a
stale constant.  A body the transformer refuses is called from the loop
instead, over the list tapes its filter is bound to (``called``).

The module names what it needs at run time — filter instances, kernel
globals, reducers, the core runner itself — by node and edge index, and
the emitter hands over the namespace that binds those names with the text
(:func:`repro.runtime.codegen.lower_core` compiles and runs the two).
Every core lowers.
"""

from __future__ import annotations

import ast
import hashlib
import math
import operator
import weakref
from operator import getitem, is_
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.graph.base import Rate, immutable
from repro.graph.flatgraph import FILTER, JOINER, SPLITTER
from repro.graph.source import SourceUnavailable, function_ast
from repro.graph.splitjoin import COMBINE, DUPLICATE, NULL
from repro.runtime.plan import _INLINE_ROUNDS, _UNROLL_MAX, CoreLoopRunner, _repeating_unit


class Unsupported(Exception):
    """A construct :class:`WorkInliner` cannot inline: the emitter calls
    that filter's ``work()`` instead."""


# -- fingerprinting -----------------------------------------------------------


def _code_fingerprint(fn) -> str:
    """Stable-ish hash of a function's behavior-bearing code."""
    try:
        code = fn.__code__
    except AttributeError:
        return repr(fn)
    return hashlib.sha256(
        b"|".join(
            [
                code.co_code,
                repr(code.co_consts).encode(),
                repr(code.co_names).encode(),
                repr(code.co_varnames).encode(),
            ]
        )
    ).hexdigest()[:16]


def plan_fingerprint(plan, signature: tuple, version: str) -> str:
    """Structural signature + per-class work code: what a graph's program
    is, by shape and by the ``work()`` bodies it runs (``plan`` needs only
    ``.graph``).

    Editing a filter's ``work()`` (same class name, same rates) changes it.
    Nothing under ``src/`` calls it or :func:`_code_fingerprint`: they stay
    only because the cost ledger's per-layer probe
    (``benchmarks/ledger/layers.py``) imports them, and go when it stops.
    """
    parts: List[str] = [repr(signature), version]
    for node in plan.graph.nodes:
        if node.kind != FILTER:
            if node.kind == JOINER and node.flavor == COMBINE:
                reducer = getattr(getattr(node.obj, "joiner", None), "reducer", None)
                parts.append(f"reducer={reducer is not None}")
            continue
        cls = type(node.filter)
        parts.append(cls.__qualname__)
        # The stateless hint is per-instance and steers certification.
        parts.append(repr(getattr(node.filter, "stateless", None)))
        parts.append(_code_fingerprint(cls.work))
        parts.append(str(bool(cls.supports_work_batch)))
        if cls.supports_work_batch:
            parts.append(_code_fingerprint(node.filter.work_batch))
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()[:32]


# -- kernel splicing ----------------------------------------------------------


def _work_fdef(fn) -> ast.FunctionDef:
    """The process-wide shared AST of ``fn``: copy before rewriting."""
    try:
        fdef = function_ast(fn)
    except SourceUnavailable as exc:
        raise Unsupported(f"work() source unavailable: {exc}")
    if not isinstance(fdef, ast.FunctionDef):
        raise Unsupported("work() source is not a plain function definition")
    return fdef


# -- core work() inlining -----------------------------------------------------

_BANNED_STMTS = (
    ast.Return,
    ast.Try,
    ast.With,
    ast.AsyncWith,
    ast.AsyncFor,
    ast.Global,
    ast.Nonlocal,
    ast.Import,
    ast.ImportFrom,
    ast.Raise,
    ast.Delete,
    ast.FunctionDef,
    ast.AsyncFunctionDef,
    ast.ClassDef,
    ast.Match,
)

_BANNED_EXPRS = (
    ast.Lambda,
    ast.ListComp,
    ast.SetComp,
    ast.DictComp,
    ast.GeneratorExp,
    ast.Yield,
    ast.YieldFrom,
    ast.Await,
    ast.NamedExpr,
)


def _assigned_names(fdef: ast.FunctionDef) -> set:
    names = {a.arg for a in fdef.args.args}
    for node in ast.walk(fdef):
        if isinstance(node, ast.Name) and isinstance(node.ctx, (ast.Store, ast.Del)):
            names.add(node.id)
    return names


def _name(ident: str) -> ast.Name:
    return ast.Name(id=ident, ctx=ast.Load())


def _store(ident: str) -> ast.Name:
    return ast.Name(id=ident, ctx=ast.Store())


def _bump(ident: str, by: int) -> ast.AugAssign:
    """``ident += by``."""
    return ast.AugAssign(target=_store(ident), op=ast.Add(), value=ast.Constant(value=by))


def _assign(target: str, value: ast.expr) -> ast.Assign:
    return ast.Assign(targets=[_store(target)], value=value, lineno=0)


def _shallow(node: ast.AST) -> ast.AST:
    """A copy of ``node`` sharing its children (a rewrite replaces fields
    of the copy, never of the shared template)."""
    new = type(node).__new__(type(node))
    new.__dict__.update(node.__dict__)
    return new


def _size(stmts: Sequence[ast.stmt]) -> int:
    """Statements ``stmts`` write, nested ones included."""
    return sum(
        1 + _size(getattr(st, "body", ())) + _size(getattr(st, "orelse", ())) for st in stmts
    )


def _binding(st: ast.stmt) -> bool:
    """Is ``st`` ``_v<n> = <literal or name>``: a value an arm gives an
    item, safe to evaluate before the arm's test?"""
    return (
        isinstance(st, ast.Assign)
        and len(st.targets) == 1
        and isinstance(st.targets[0], ast.Name)
        and st.targets[0].id.startswith("_v")
        and isinstance(st.value, (ast.Constant, ast.Name))
    )


class _WorkTemplate:
    """What inlining reads of one ``work`` function, whatever the node:
    its checked definition (shared and never mutated — :class:`WorkInliner`
    builds new nodes wherever it rewrites) and the names it binds."""

    __slots__ = ("fdef", "self_name", "assigned", "stored_attrs", "fn_globals", "_facts")

    def __init__(self, fn) -> None:
        fdef = _work_fdef(fn)
        if fn.__code__.co_freevars:
            raise Unsupported("work() closes over free variables")
        if not fdef.args.args:
            raise Unsupported("work() takes no self argument")
        for node in ast.walk(fdef):
            if node is fdef:
                continue
            if isinstance(node, _BANNED_STMTS) or isinstance(node, _BANNED_EXPRS):
                raise Unsupported(f"work() uses {type(node).__name__}")
        self.fdef = fdef
        self.self_name = fdef.args.args[0].arg
        self.assigned = _assigned_names(fdef)
        self.stored_attrs = {
            node.attr
            for node in ast.walk(fdef)
            if isinstance(node, ast.Attribute)
            and not isinstance(node.ctx, ast.Load)
            and isinstance(node.value, ast.Name)
            and node.value.id == self.self_name
        }
        self.fn_globals = fn.__globals__
        #: (question, id of a statement of the shared tree) -> the answer
        self._facts: Dict[Tuple[str, int], object] = {}

    def _fact(self, question: str, st: ast.stmt, answer):
        key = (question, id(st))
        if key not in self._facts:
            self._facts[key] = answer(st)
        return self._facts[key]

    def channels(self, st: ast.stmt) -> frozenset:
        """The channel calls (``pop``, ``peek``, ``push``) inside ``st``."""
        return self._fact("channels", st, lambda st: frozenset(
            n.func.attr
            for n in ast.walk(st)
            if isinstance(n, ast.Call)
            and isinstance(n.func, ast.Attribute)
            and isinstance(n.func.value, ast.Name)
            and n.func.value.id == self.self_name
            and n.func.attr in ("pop", "peek", "push")
        ))

    def pops(self, st: ast.stmt) -> bool:
        """May ``st`` pop (a compound statement: may its test)?"""
        return isinstance(st, (ast.If, ast.For, ast.While)) or "pop" in self.channels(st)

    def stores(self, st: ast.stmt) -> Tuple[str, ...]:
        """The local names ``st`` may store."""
        return self._fact("stores", st, lambda st: tuple({
            n.id: None
            for n in ast.walk(st)
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Load)
        }))

    def loop(self, st: ast.For) -> Optional[bool]:
        """Is the variable of a ``for`` loop the inliner may unroll read
        after it?  None for a loop it may not unroll: a target that is not
        one name, a body that rebinds it or leaves early."""
        return self._fact("loop", st, self._loop)

    def _loop(self, st: ast.For) -> Optional[bool]:
        if not isinstance(st.target, ast.Name):
            return None
        name = st.target.id
        inside = [n for n in ast.walk(st) if isinstance(n, ast.Name) and n.id == name]
        if any(isinstance(n, (ast.Break, ast.Continue)) for n in ast.walk(st)) or any(
            not isinstance(n.ctx, ast.Load) for n in inside[1:]  # [0] is the target
        ):
            return None
        # Loads in another loop over the same name read its own variable.
        own = {
            id(n)
            for other in ast.walk(self.fdef)
            if isinstance(other, ast.For)
            and isinstance(other.target, ast.Name)
            and other.target.id == name
            for n in ast.walk(other)
        }
        return any(
            isinstance(n, ast.Name) and n.id == name and id(n) not in own
            for n in ast.walk(self.fdef)
        )


#: work function -> its template, or why it cannot be inlined.  Built once
#: per process however many nodes and firings inline it; weak, so a class
#: defined inside a test dies with it.
_TEMPLATES: "weakref.WeakKeyDictionary[object, object]" = weakref.WeakKeyDictionary()


def _template(fn) -> _WorkTemplate:
    try:
        template = _TEMPLATES[fn]
    except KeyError:
        try:
            template = _WorkTemplate(fn)
        except Unsupported as exc:
            template = str(exc)
        _TEMPLATES[fn] = template
    if isinstance(template, str):
        raise Unsupported(template)
    return template


# -- emit-time values -----------------------------------------------------------

#: What :meth:`WorkInliner.fold` returns for an expression whose value the
#: unit does not fix.
_UNKNOWN = object()

_NUMBERS = (int, float, bool)

_BINOPS = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
    ast.FloorDiv: operator.floordiv,
    ast.Mod: operator.mod,
}

_UNOPS = {ast.USub: operator.neg, ast.UAdd: operator.pos, ast.Not: operator.not_}

_CMPOPS = {
    ast.Eq: operator.eq,
    ast.NotEq: operator.ne,
    ast.Lt: operator.lt,
    ast.LtE: operator.le,
    ast.Gt: operator.gt,
    ast.GtE: operator.ge,
}


def _literal(value) -> Optional[ast.expr]:
    """An expression that reads back ``value`` exactly, or None (a NaN has
    no literal).  A negative number is a negation, so that ``x ** 2`` of
    it keeps its parentheses."""
    if type(value) is tuple:
        return ast.Constant(value=value) if all(_literal(v) for v in value) else None
    if type(value) in (bool, str) or value is None:
        return ast.Constant(value=value)
    if type(value) in (int, float) and value == value:
        if math.copysign(1, value) < 0:
            return ast.UnaryOp(op=ast.USub(), operand=ast.Constant(value=-value))
        return ast.Constant(value=value)
    return None


class WorkInliner:
    """Rewrites one scalar work() body into flat statements over core tapes.

    Before it writes a statement the inliner evaluates what the unit fixes
    (:meth:`fold`): literals, module constants, the variables of loops it
    has unrolled, and the filter's attributes that ``work()`` never stores
    and that hold immutable values (numbers, bools, tuples of these, a
    :class:`~repro.graph.base.Rate`).  It folds them only where they decide
    structure — a ``for`` loop's trip count, a ``peek`` position, an ``if``
    test — and records each attribute it read (``folded``) for the
    module's identity guard.  So a ``for`` over a known range or tuple is
    unrolled, its variable bound as a constant, within :data:`_UNROLL_MAX`
    statements when it reaches a tape still in locals and a sixteenth of
    that when it reaches only lists; an ``if`` with a known test keeps the
    taken arm; ``self.peek(self.perm[i])`` reads a fixed position; an item
    of an attribute already folded reads as a literal.  A local assigned a
    forwarded item reads that item's local (``alias``) until it is stored.

    Channel calls go to ``tapes`` (the :class:`CoreEmitter`), which knows
    each tape's form: ``self.pop()`` / ``self.peek(E)`` become the item's
    forwarded local or a list read, and ``self.push(E)`` (statement position
    only) binds a local or appends.  Each call says whether it sits inside a
    loop left rolled, where only the list form works; the two arms of an
    ``if`` the unit does not decide go to :meth:`CoreEmitter.select`.
    ``self.attr`` becomes ``f<i>.attr`` on the live filter instance, so
    arbitrary state mutation keeps working; an attribute the body never
    stores is read through ``_f<i>_attr``, which the emitter loads once
    above the loop (``hoisted``): values used only in arithmetic stay such
    per-call loads.  Channel ops inside conditionally-evaluated positions
    (``and``/``or`` tails, ternaries, chained-comparison tails, ``while``
    tests) raise :class:`Unsupported`, as does any construct outside the
    rewritten subset; :class:`CoreEmitter` then calls that filter's
    ``work()`` from the loop.
    """

    def __init__(self, filt, fvar: str, gprefix: str, tapes, in_edge, out_edge) -> None:
        template = self.template = _template(type(filt).work)
        self.fdef = template.fdef
        self.self_name = template.self_name
        self.assigned = template.assigned
        self.stored_attrs = template.stored_attrs
        self.fn_globals = template.fn_globals
        self.filt = filt
        self.fvar = fvar
        self.tapes, self.in_edge, self.out_edge = tapes, in_edge, out_edge
        self.edges = [e for e in (in_edge, out_edge) if e is not None]
        self.gprefix = gprefix
        self.globals_seen: set = set()
        self.hoisted: set = set()
        #: attribute -> the object its emit-time value was read from
        self.folded: Dict[str, object] = {}
        #: unrolled loop variable -> (its value, the expression that reads it)
        self.env: Dict[str, Tuple[object, ast.expr]] = {}
        #: local -> the forwarded item it was last assigned (not written out)
        self.alias: Dict[str, str] = {}
        self.loops = 0  # loops left rolled around this point
        self.arms = 0  # arms of undecided conditionals around this point
        self.pre: List[ast.stmt] = []

    def inline(self) -> List[ast.stmt]:
        return self.stmts(self.fdef.body)

    # -- statements ----------------------------------------------------------

    def stmts(self, body: Sequence[ast.stmt]) -> List[ast.stmt]:
        out: List[ast.stmt] = []
        for st in body:
            out.extend(self.stmt(st))
        return out

    def _rolled(self, body: Sequence[ast.stmt]) -> List[ast.stmt]:
        self.loops += 1
        out = self.stmts(body)
        self.loops -= 1
        return out

    def _arm(self, body: Sequence[ast.stmt]) -> List[ast.stmt]:
        self.arms += 1
        out = self.stmts(body)
        self.arms -= 1
        return out

    def _materialize(self, st: ast.stmt) -> List[ast.stmt]:
        """Write out the aliased locals a conditional or a rolled loop may
        store: past it, a read must find whichever value it left."""
        out = []
        if self.alias:
            for name in self.template.stores(st):
                item = self.alias.pop(name, None)
                if item is not None:
                    out.append(_assign(name, _name(item)))
        return out

    def _stored(self, targets) -> None:
        for target in targets:
            for node in ast.walk(target):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                    self.alias.pop(node.id, None)

    def _self_call(self, node, attr: str) -> bool:
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == self.self_name
            and node.func.attr == attr
        )

    def stmt(self, st: ast.stmt) -> List[ast.stmt]:
        self.pre = []
        self.tapes.ordered = self.template.pops(st)
        if isinstance(st, _BANNED_STMTS):
            raise Unsupported(type(st).__name__)
        if isinstance(st, ast.Expr):
            if self._self_call(st.value, "push"):
                call = st.value
                if len(call.args) != 1 or call.keywords:
                    raise Unsupported("push() with unexpected arguments")
                if self.out_edge is None:
                    raise Unsupported("push() on a filter with no output edge")
                val = self.expr(call.args[0], False)
                self.tapes.push(self.out_edge, val, self.pre, self.loops > 0)
                return self.pre
            if self._self_call(st.value, "pop") and not (st.value.args or st.value.keywords):
                if self.in_edge is None:
                    raise Unsupported("pop() on a filter with no input edge")
                self.tapes.drop(self.in_edge, self.pre, self.loops > 0)
                return self.pre
            value = self.expr(st.value, False)
            if isinstance(value, ast.Name) or self._self_call(st.value, "peek"):
                return self.pre  # the item is unused
            return self.pre + [ast.Expr(value=value)]
        if isinstance(st, (ast.Assign, ast.AnnAssign)):
            if st.value is None:
                return []
            value = self.expr(st.value, False)
            sources = st.targets if isinstance(st, ast.Assign) else [st.target]
            if (
                len(sources) == 1
                and isinstance(sources[0], ast.Name)
                and isinstance(value, ast.Name)
                and value.id in self.tapes.symbols
                and not (self.loops or self.arms)
            ):  # a local naming a forwarded item reads the item's own local
                self.alias[sources[0].id] = value.id
                return self.pre
            targets = [self.expr(t, False) for t in sources]
            self._stored(sources)
            return self.pre + [ast.Assign(targets=targets, value=value, lineno=0)]
        if isinstance(st, ast.AugAssign):
            pre = self._materialize(st)
            value = self.expr(st.value, False)
            target = self.expr(st.target, False)
            return pre + self.pre + [ast.AugAssign(target=target, op=st.op, value=value)]
        if isinstance(st, ast.If):
            known = self.fold(st.test)
            if known is not _UNKNOWN:
                return self.stmts(st.body if known else st.orelse)
            pre = self._materialize(st)
            test = self.expr(st.test, False)
            pre += self.pre
            if self.loops:
                body, orelse = self.stmts(st.body), self.stmts(st.orelse)
            else:
                body, orelse = self.tapes.select(
                    self.edges, lambda: self._arm(st.body), lambda: self._arm(st.orelse)
                )
                if body and orelse and all(_binding(s) for s in orelse):
                    # The else arm only names the merged items: bind them
                    # first and keep the other arm alone.
                    pre += orelse
                    orelse = []
            return pre + [ast.If(test=test, body=body or [ast.Pass()], orelse=orelse)]
        if isinstance(st, ast.While):
            pre = self._materialize(st)
            test = self.expr(st.test, True)  # re-evaluated: no channel ops
            pre += self.pre
            body = self._rolled(st.body) or [ast.Pass()]
            orelse = self._rolled(st.orelse)
            return pre + [ast.While(test=test, body=body, orelse=orelse)]
        if isinstance(st, ast.For):
            unrolled = self._unroll(st)
            if unrolled is not None:
                return unrolled
            pre = self._materialize(st)
            it = self.expr(st.iter, False)
            pre += self.pre
            self.pre = []
            target = self.expr(st.target, True)
            if self.pre:
                raise Unsupported("channel op in a for-loop target")
            body = self._rolled(st.body) or [ast.Pass()]
            orelse = self._rolled(st.orelse)
            return pre + [ast.For(target=target, iter=it, body=body, orelse=orelse, lineno=0)]
        if isinstance(st, (ast.Pass, ast.Break, ast.Continue)):
            return [st]
        if isinstance(st, ast.Assert):
            test = self.expr(st.test, True)
            msg = self.expr(st.msg, True) if st.msg is not None else None
            return self.pre + [ast.Assert(test=test, msg=msg)]
        raise Unsupported(type(st).__name__)

    def _unroll(self, st: ast.For) -> Optional[List[ast.stmt]]:
        """``st`` written once per item of a trip the unit fixes, its
        variable bound as a constant; None to leave it a loop."""
        read_after = self.template.loop(st)
        if read_after is None:
            return None
        # A loop that reaches no tape still in locals gains only its own
        # overhead (plan._UNROLL_MAX's table): a sixteenth of the budget,
        # which a drop loop (no statement written) always fits.  One that
        # forwards is tried up to four times its budget by the static
        # count, which cannot see the ifs its folds decide.
        forwards = self._forwards(st)
        budget = _UNROLL_MAX if forwards else _UNROLL_MAX // 16
        touched: List[str] = []
        items = self._trip(st.iter, touched)
        if items is None or len(items) * self._weight(st.body) > budget * (4 if forwards else 1):
            return None
        # Nested loops multiply: write the copies, and take them back if
        # they come to more than the budget.
        mark = self.tapes.mark(self.edges), dict(self.folded), dict(self.alias)
        self._commit(touched)
        name = st.target.id
        out: List[ast.stmt] = []
        for value, read in items:
            self.env[name] = (value, read)
            out.extend(self.stmts(st.body))
        self.env.pop(name, None)
        if _size(out) > budget:
            self.tapes.restore(mark[0])
            self.folded, self.alias = mark[1], mark[2]
            self.pre = []
            return None
        out.extend(self.stmts(st.orelse))
        if read_after and items:
            self.alias.pop(name, None)
            out.append(_assign(name, items[-1][1]))
        return out

    def _forwards(self, st: ast.stmt) -> bool:
        """Does ``st`` reach a tape the emitter still keeps in locals?"""
        ops, taped = self.template.channels(st), self.tapes.taped
        return bool(
            (ops & {"pop", "peek"} and self.in_edge is not None and self.in_edge not in taped)
            or ("push" in ops and self.out_edge is not None and self.out_edge not in taped)
        )

    def _weight(self, body: Sequence[ast.stmt]) -> int:
        """Statements one copy of ``body`` writes, at most, the loops in it
        unrolled where their trip is already fixed."""
        total = 0
        for st in body:
            inner = self._weight(getattr(st, "body", ())) + self._weight(getattr(st, "orelse", ()))
            if isinstance(st, ast.For):
                trip = self._trip(st.iter, [])
                inner *= len(trip) if trip is not None else 1
            total += 1 + inner
        return total

    def _trip(self, node, touched: List[str]) -> Optional[List[Tuple[object, ast.expr]]]:
        """``(value, expression)`` of each item ``for`` takes from ``node``,
        or None when the unit does not fix them."""
        if isinstance(node, ast.Call) and self._builtin(node.func, "range") and not node.keywords:
            bounds = [self._value(a, touched) for a in node.args]
            if not 1 <= len(bounds) <= 3 or any(type(b) is not int for b in bounds):
                return None
            try:
                trip = range(*bounds)
            except ValueError:  # a zero step: the loop raises as written
                return None
            if len(trip) > _UNROLL_MAX:
                return None
            return [(v, _literal(v)) for v in trip]
        value = self._value(node, touched)
        if type(value) is not tuple or len(value) > _UNROLL_MAX:
            return None
        items = []
        for k, v in enumerate(value):
            read = _literal(v)
            if read is None:
                read = ast.Subscript(
                    value=self.expr(node, True), slice=ast.Constant(value=k), ctx=ast.Load()
                )
            items.append((v, read))
        return items

    # -- emit-time values ----------------------------------------------------

    def fold(self, node):
        """``node``'s value if the unit fixes it (recording each attribute
        read for the guard), else :data:`_UNKNOWN`."""
        touched: List[str] = []
        value = self._value(node, touched)
        if value is not _UNKNOWN:
            self._commit(touched)
        return value

    def _constant(self, node) -> Optional[ast.expr]:
        """``node`` as a literal if the unit fixes its value through no
        attribute but those already folded (and guarded), else None."""
        touched: List[str] = []
        value = self._value(node, touched)
        if value is _UNKNOWN or any(attr not in self.folded for attr in touched):
            return None
        return _literal(value)

    def _commit(self, touched: List[str]) -> None:
        state = vars(self.filt)
        for attr in touched:
            self.folded[attr] = state[attr]

    def _attribute(self, attr: str):
        """``self.attr``'s value if it is one the unit fixes: a plain
        attribute ``work()`` never stores, holding an immutable value."""
        key = (id(self.filt), attr)
        known = self.tapes.attributes.get(key)
        if known is None:
            known = _UNKNOWN
            if (
                attr not in self.stored_attrs
                and attr not in ("input", "output")
                and plain_attribute(self.filt, attr)
            ):
                value = vars(self.filt)[attr]
                if immutable(value):
                    known = value
            self.tapes.attributes[key] = known
        return known

    def _builtin(self, func, name: str) -> bool:
        return (
            isinstance(func, ast.Name)
            and func.id == name
            and name not in self.assigned
            and name not in self.fn_globals
        )

    def _value(self, node, touched: List[str]):
        if isinstance(node, ast.Constant):
            return node.value
        if isinstance(node, ast.Name):
            if node.id in self.env:
                return self.env[node.id][0]
            if node.id not in self.assigned and node.id in self.fn_globals:
                value = self.fn_globals[node.id]
                return value if immutable(value) else _UNKNOWN
            return _UNKNOWN
        if isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) and node.value.id == self.self_name:
                value = self._attribute(node.attr)
                if value is not _UNKNOWN:
                    touched.append(node.attr)
                return value
            base = self._value(node.value, touched)
            value = getattr(base, node.attr, _UNKNOWN) if type(base) is Rate else _UNKNOWN
            return value if immutable(value) else _UNKNOWN
        if isinstance(node, ast.Subscript):
            base = self._value(node.value, touched)
            index = self._value(node.slice, touched)
            if type(base) is tuple and type(index) is int and -len(base) <= index < len(base):
                return base[index]
            return _UNKNOWN
        if isinstance(node, ast.BinOp):
            op = _BINOPS.get(type(node.op))
            left = self._value(node.left, touched)
            right = self._value(node.right, touched)
            if op is None or type(left) not in _NUMBERS or type(right) not in _NUMBERS:
                return _UNKNOWN
            try:
                return op(left, right)
            except ArithmeticError:
                return _UNKNOWN
        if isinstance(node, ast.UnaryOp):
            operand = self._value(node.operand, touched)
            op = _UNOPS.get(type(node.op))
            return op(operand) if op is not None and type(operand) in _NUMBERS else _UNKNOWN
        if isinstance(node, ast.Compare):
            left = self._value(node.left, touched)
            for op, right_node in zip(node.ops, node.comparators):
                right = self._value(right_node, touched)
                fn = _CMPOPS.get(type(op))
                if fn is None or left is _UNKNOWN or right is _UNKNOWN:
                    return _UNKNOWN
                try:
                    if not fn(left, right):
                        return False
                except TypeError:
                    return _UNKNOWN
                left = right
            return True
        if isinstance(node, ast.BoolOp):
            value = _UNKNOWN
            for operand in node.values:
                value = self._value(operand, touched)
                if value is _UNKNOWN or (not value if isinstance(node.op, ast.And) else value):
                    return value
            return value
        if isinstance(node, ast.Tuple) and isinstance(node.ctx, ast.Load):
            values = tuple(self._value(e, touched) for e in node.elts)
            return _UNKNOWN if any(v is _UNKNOWN for v in values) else values
        if isinstance(node, ast.Call) and self._builtin(node.func, "len") and len(node.args) == 1:
            value = self._value(node.args[0], touched)
            return len(value) if type(value) is tuple and not node.keywords else _UNKNOWN
        return _UNKNOWN

    # -- expressions ---------------------------------------------------------

    def expr(self, node, cond: bool):
        if node is None:
            return None
        if isinstance(node, _BANNED_EXPRS):
            raise Unsupported(type(node).__name__)
        if isinstance(node, ast.Call):
            f = node.func
            if (
                isinstance(f, ast.Attribute)
                and isinstance(f.value, ast.Name)
                and f.value.id == self.self_name
            ):
                if f.attr == "pop":
                    if cond:
                        raise Unsupported("pop() in a conditionally-evaluated position")
                    if node.args or node.keywords:
                        raise Unsupported("pop() with arguments")
                    if self.in_edge is None:
                        raise Unsupported("pop() on a filter with no input edge")
                    return self.tapes.pop(self.in_edge, self.pre, self.loops > 0)
                if f.attr == "peek":
                    if cond:
                        raise Unsupported("peek() in a conditionally-evaluated position")
                    if len(node.args) != 1 or node.keywords:
                        raise Unsupported("peek() with unexpected arguments")
                    if self.in_edge is None:
                        raise Unsupported("peek() on a filter with no input edge")
                    position = self.fold(node.args[0])
                    if type(position) is int and position >= 0:
                        idx = ast.Constant(value=position)
                    else:
                        idx = self.expr(node.args[0], cond)
                    return self.tapes.peek(self.in_edge, idx, self.pre, self.loops > 0)
                if f.attr == "push":
                    raise Unsupported("push() used as an expression")
                raise Unsupported(f"opaque self.{f.attr}() call")
            func = self.expr(node.func, cond)
            args = [self.expr(a, cond) for a in node.args]
            keywords = [
                ast.keyword(arg=k.arg, value=self.expr(k.value, cond))
                for k in node.keywords
            ]
            return ast.Call(func=func, args=args, keywords=keywords)
        if isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) and node.value.id == self.self_name:
                if node.attr in ("input", "output"):  # its cursor is the module's local
                    raise Unsupported(f"work() reaches self.{node.attr} directly")
                if (
                    isinstance(node.ctx, ast.Load)
                    and node.attr not in self.stored_attrs
                    and plain_attribute(self.filt, node.attr)
                ):
                    self.hoisted.add(node.attr)
                    return _name(f"_{self.fvar}_{node.attr}")
                return ast.Attribute(value=_name(self.fvar), attr=node.attr, ctx=node.ctx)
            return ast.Attribute(
                value=self.expr(node.value, cond), attr=node.attr, ctx=node.ctx
            )
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load):
            literal = self._constant(node)
            if literal is not None:
                return literal
        if isinstance(node, ast.Name):
            if node.id == self.self_name:
                raise Unsupported("bare self escapes the work() body")
            if isinstance(node.ctx, ast.Load):
                if node.id in self.env:
                    return self.env[node.id][1]
                if node.id in self.alias:
                    return _name(self.alias[node.id])
                if node.id not in self.assigned and node.id in self.fn_globals:
                    literal = self._constant(node)
                    if literal is not None:
                        return literal
                    self.globals_seen.add(node.id)
                    return _name(f"{self.gprefix}{node.id}")
            return node
        if isinstance(node, ast.BoolOp):
            values = [self.expr(node.values[0], cond)] + [
                self.expr(v, True) for v in node.values[1:]
            ]
            return ast.BoolOp(op=node.op, values=values)
        if isinstance(node, ast.IfExp):
            return ast.IfExp(
                test=self.expr(node.test, cond),
                body=self.expr(node.body, True),
                orelse=self.expr(node.orelse, True),
            )
        if isinstance(node, ast.Compare):
            left = self.expr(node.left, cond)
            comparators = [self.expr(node.comparators[0], cond)] + [
                self.expr(c, True) for c in node.comparators[1:]
            ]
            return ast.Compare(left=left, ops=node.ops, comparators=comparators)
        # Generic recursion: BinOp, UnaryOp, Subscript, Slice, Tuple, List,
        # Dict, Set, Starred, f-strings, Constant, ...
        new = _shallow(node)
        for field, old in ast.iter_fields(node):
            if isinstance(old, list):
                setattr(
                    new,
                    field,
                    [
                        self.expr(x, cond) if isinstance(x, ast.expr) else x
                        for x in old
                    ],
                )
            elif isinstance(old, ast.expr):
                setattr(new, field, self.expr(old, cond))
        return new


# -- core section emission ----------------------------------------------------


def plain_attribute(filt, attr: str) -> bool:
    """Is ``filt.attr`` a plain instance attribute — one whose value can only
    change by a store to it?  (A property or other class-level name may
    compute its value from state the loop body changes.)"""
    return attr in getattr(filt, "__dict__", ()) and not hasattr(type(filt), attr)


#: Most items a tape may hold between units and still be kept in locals.
#: Every unit re-binds all of a tape's carried locals (a pop shifts each one
#: place), a list pops by bumping a cursor whatever it holds.  A loop whose
#: only state is its delay line, ns a period on the reference host:
#:
#:     delay       1     2     4     8    16    32
#:     locals    138   144   176   204   252   542
#:     list      179   183   185   184   182   181
_CARRY_MAX = 4


def _counted_loop(count, body: List[ast.stmt]) -> ast.For:
    """``for _ in range(count): body`` (``count`` an int or a name)."""
    bound = ast.Constant(value=count) if isinstance(count, int) else _name(count)
    return ast.For(
        target=_store("_"),
        iter=ast.Call(func=_name("range"), args=[bound], keywords=[]),
        body=body,
        orelse=[],
        lineno=0,
    )


def _write(lines: List[str], stmts: List[ast.stmt]) -> None:
    """Append ``stmts`` to ``lines`` as source text."""
    if stmts:
        lines.extend(ast.unparse(ast.Module(body=stmts, type_ignores=[])).splitlines())


def _rename(stmts: List[ast.stmt], names: Dict[str, str]) -> None:
    for st in stmts:
        for node in ast.walk(st):
            if isinstance(node, ast.Name) and node.id in names:
                node.id = names[node.id]


def _guard(pairs: Sequence[Tuple[dict, str, object]]) -> Callable[[], bool]:
    """``() -> bool``: does every ``(state, key, value)`` still hold the same
    object under ``state[key]``?  One C-level pass, as the guard of
    :func:`repro.runtime.regions._interchangeable`."""
    states = [state for state, _key, _value in pairs]
    keys = [key for _state, key, _value in pairs]
    values = [value for _state, _key, value in pairs]

    def fresh() -> bool:
        try:
            return all(map(is_, map(getitem, states, keys), values))
        except KeyError:
            return False

    return fresh


class CoreEmitter:
    """Emits the inlined closed loop for one cyclic schedule core.

    The loop body is one *unit* — the core's period, or the round it
    repeats — as straight-line code: a node's firings in a row are written
    one after another, and within a body :class:`WorkInliner` unrolls what
    the unit fixes, both within :data:`_UNROLL_MAX`.  While emitting it the
    emitter simulates every tape as a queue of *symbolic values*: a push
    onto an internal tape binds a fresh local (``_v<n>``, one name per
    value) and queues its name, a pop or a ``peek(k)`` at a fixed ``k``
    reads the queued name and emits nothing.  The two arms of an ``if`` the
    unit does not decide are simulated from the same queues: where each arm
    pops and pushes as many items, they bind the same output locals (the
    *select* form, :meth:`select`).  The ``d`` items a tape holds at every
    unit boundary (a loop's delay, a peek residue) are ``d`` carried locals
    ``_k<edge>_<j>``: loaded from the tape above the loop, re-bound in one
    assignment at the end of the unit, stored back below the loop — so at a
    chunk boundary the tapes hold exactly what the list form leaves there.

    A tape the simulation cannot follow stays a list with a cursor
    (``taped``, each with its reason): an access inside a loop left
    rolled, arms that pop or push different counts, a ``peek`` at a
    computed position, more than :data:`_CARRY_MAX` items to carry, an
    external tape (read through its one running cursor, written through an
    ``append`` bound above the loop), a tape of a filter whose body
    :class:`WorkInliner` refuses.  Outside rolled loops a list's pops only
    advance a count the emitter keeps, and its reads index ``cursor + k``;
    the cursor moves once, at the end of the unit.  A refused filter's
    ``work()`` is called (``called``, each with its reason): it pops and
    pushes through the :class:`~repro.runtime.channel.ListTape` s the core
    binds it to, which hold the very lists the module indexes, and the
    module hands its input cursor over before the call and takes it back
    after.  Both forms live in one unit; arithmetic and its order are those
    of the scalar ``work()`` bodies either way.

    Every attribute a body folded (``folded``) is guarded by identity at
    the top of ``run_chunk``: if one was rebound since the module was
    emitted, the module runs nothing and hands the call to
    :meth:`CoreLoopRunner.stale`, so a stale constant never runs.
    """

    def __init__(self, core: CoreLoopRunner) -> None:
        self.core = core
        self.node_index = {node: i for i, node in enumerate(core.plan.graph.nodes)}
        self.edge_index = core.edge_index
        internal, ext_in, ext_out = core.internal, core.ext_in, core.ext_out
        self.edges = internal + ext_in + ext_out
        self.ext_out = set(ext_out)
        self.popped = set(internal + ext_in)
        #: internal edge -> items on it at every unit boundary (the tapes
        #: hold what sits on the edges between periods)
        self.carried: Dict[object, int] = {e: core.held(e) for e in internal}
        #: edge -> why it stays a list
        self.taped: Dict[object, str] = {e: "external input" for e in ext_in}
        self.taped.update((e, "external output") for e in ext_out)
        for edge, held in self.carried.items():
            if held > _CARRY_MAX:
                self.taped[edge] = f"holds {held} items between periods"
        #: filter node -> why its work() is called rather than inlined
        self.called: Dict[object, str] = {}
        #: must a list read inside a rolled loop be bound before its
        #: statement (which pops, moving the cursor first)?
        self.ordered = True
        #: (filter id, attribute) -> its value if the unit fixes it
        #: (:meth:`WorkInliner._attribute`), read once per emission
        self.attributes: Dict[Tuple[int, str], object] = {}

    def _tape(self, edge) -> str:
        return f"t{self.edge_index[edge]}"

    def _cur(self, edge) -> str:
        return f"t{self.edge_index[edge]}_c"

    def _carry_names(self, edge) -> List[str]:
        return [f"_k{self.edge_index[edge]}_{j}" for j in range(self.carried[edge])]

    def emit(self) -> List[str]:
        """The core's statement lines, at run_chunk body indentation."""
        # A core's period is usually one short round repeated (a unit-delay
        # loop fed 64 items a period is the same four firings 64 times).
        # Past a few copies, emit the round once in a loop: inlining every
        # copy costs emit and compile time in proportion, while the loop's
        # ~0.13 us a period is 16% of DToA's two-round period and under 1%
        # of a 64-round one.
        phases = list(self.core.phases)
        round_, repeats = _repeating_unit(phases)
        if repeats <= _INLINE_ROUNDS:
            round_, repeats = phases, 1
        # Sending a tape back to list form (or a filter to a call) changes
        # how every access to it is emitted: go round again until a pass
        # sends none.
        while True:
            known = len(self.taped), len(self.called)
            unit = self._unit(round_)
            if (len(self.taped), len(self.called)) == known:
                break
        loop = ["for _ in range(scale):"]
        if repeats > 1:
            loop.append(f"    for _ in range({repeats}):")
        indent = "    " * len(loop)
        loop.extend(indent + line for line in unit or ["pass"])
        lines = []
        if self.folded:
            lines += ["if not _fresh():", "    return _core.stale(scale)"]
        lines.append("_core.begin()")
        below: List[str] = []
        for edge in self.edges:
            index, tape = self.edge_index[edge], self._tape(edge)
            if edge in self.taped:
                lines.append(f"{tape} = _core.items({index})")
                if edge in self.ext_out:
                    lines.append(f"{tape}_push = {tape}.append")
                if edge in self.popped:
                    lines.append(f"{self._cur(edge)} = 0")
                    below.append(f"_core.set_cursor({index}, {self._cur(edge)})")
            elif self.carried[edge]:
                names = ", ".join(self._carry_names(edge))
                lines.append(f"{tape} = _core.items({index})")
                lines.append(f"{names}, = {tape}")  # fails unless it holds exactly these
                below.append(f"{tape}[:] = [{names}]")
        for i, attr in sorted(self.hoisted):
            lines.append(f"_f{i}_{attr} = f{i}.{attr}")
        lines.extend(loop)
        lines.extend(below)
        lines.append("_core.end()")
        return lines

    def lists(self) -> List[object]:
        """The internal edges that stay lists: what the core compacts."""
        return [e for e in self.core.internal if e in self.taped]

    def namespace(self) -> dict:
        """The live objects the emitted names refer to."""
        nodes = self.core.plan.graph.nodes
        ns: dict = {f"f{i}": nodes[i].filter for i in self.filter_idx}
        for i, names in self.globals_map.items():
            g = type(nodes[i].filter).work.__globals__
            ns.update((f"_g{i}_{name}", g[name]) for name in names)
        for i in self.reducer_idx:
            ns[f"_rd{i}"] = nodes[i].obj.joiner.reducer
        ns["_core"] = self.core
        if self.folded:
            ns["_fresh"] = _guard(
                [(vars(nodes[i].filter), attr, value) for (i, attr), value in self.folded.items()]
            )
        return ns

    def lowering(self) -> dict:
        """The core's row of ``codegen_report``: its tapes' forms, the loads
        read once above the loop and the attributes folded under the guard."""
        names = {e: f"{e.src.name}->{e.dst.name}" for e in self.edges}
        nodes = self.core.plan.graph.nodes
        return {
            "mode": "inline",
            "forwarded": [names[e] for e in self.carried if e not in self.taped],
            "taped": {names[e]: why for e, why in self.taped.items()},
            "hoisted": sorted(f"{nodes[i].name}.{attr}" for i, attr in self.hoisted),
            "folded": sorted(f"{nodes[i].name}.{attr}" for i, attr in self.folded),
            "called": {node.name: why for node, why in self.called.items()},
        }

    # -- one pass over the unit ----------------------------------------------

    def _unit(self, round_) -> List[str]:
        """The unit's lines under the current ``taped`` set (which the pass
        may grow).  Each node's statements are written out as soon as they
        are final, so a large unit never holds its whole tree at once."""
        self.globals_map: Dict[int, List[str]] = {}
        self.filter_idx: List[int] = []
        self.reducer_idx: List[int] = []
        self.hoisted: set = set()
        #: (node index, attribute) -> the object folded into the module
        self.folded: Dict[Tuple[int, str], object] = {}
        self._values = 0
        #: every ``_v<n>`` bound so far, in order (what an arm bound itself)
        self._born: List[str] = []
        #: list edge -> items popped off it whose cursor bump is still owed
        self.pending: Dict[object, int] = {}
        #: forwarded edge -> names of the items on it, oldest first
        self.queue = {
            e: self._carry_names(e) for e in self.carried if e not in self.taped
        }
        #: names bound once per unit: safe to queue without a copy
        self.symbols = {name for names in self.queue.values() for name in names}
        self._looped = False
        unit: List[str] = []
        for node, count in round_:
            if count > 1:
                # Firings in a row are written one after another unless the
                # copies come to more than the budget: then the first is
                # taken back and one copy runs under a loop.
                mark = self.mark(node.in_edges + node.out_edges)
                first = self._node_stmts(node)
                if count * _size(first) > _UNROLL_MAX:
                    self.restore(mark)
                    self._looped = True
                    stmts = self._settle(node.in_edges)
                    body = self._node_stmts(node)
                    if body:
                        stmts.append(_counted_loop(count, body))
                    _write(unit, stmts)
                    self._looped = False
                    continue
                _write(unit, first)
                count -= 1
            for _ in range(count):
                _write(unit, self._node_stmts(node))
        _write(unit, self._settle(list(self.pending)))
        targets, values = [], []
        for edge, queue in self.queue.items():
            names = self._carry_names(edge)
            if edge not in self.taped and len(queue) != len(names):
                self.taped[edge] = "item count changes across the unit"
            for target, value in zip(names, queue):
                if target != value:
                    targets.append(target)
                    values.append(value)
        if targets:  # one assignment: a carried local may be both read and re-bound
            stores = ast.Tuple(elts=[_store(t) for t in targets], ctx=ast.Store())
            loads = ast.Tuple(elts=[_name(v) for v in values], ctx=ast.Load())
            _write(unit, [ast.Assign(targets=[stores], value=loads, lineno=0)])
        return unit

    # -- tape access -----------------------------------------------------------

    def _symbolic(self, edge, nested: bool) -> bool:
        """Does this access go through the symbolic queue?  One the
        simulation cannot follow sends the tape back to list form."""
        if edge in self.taped:
            return False
        if self._looped:
            self.taped[edge] = "its node fires several times in a row"
        elif nested:
            self.taped[edge] = "accessed inside a loop left rolled"
        return edge not in self.taped

    def _new_value(self, value: ast.expr, out: List[ast.stmt]) -> ast.Name:
        name = self._fresh_name()
        self._born.append(name)
        out.append(_assign(name, value))
        return _name(name)

    def _fresh_name(self) -> str:
        self._values += 1
        name = f"_v{self._values}"
        self.symbols.add(name)
        return name

    def _at(self, edge, position: Optional[ast.expr]) -> ast.expr:
        """The index of the item ``position`` past the front of a list tape:
        its cursor plus the pops not yet bumped."""
        index: ast.expr = _name(self._cur(edge))
        owed = self.pending.get(edge, 0)
        if isinstance(position, ast.Constant):
            owed += position.value
        elif position is not None:
            if owed:
                index = ast.BinOp(left=index, op=ast.Add(), right=ast.Constant(value=owed))
            return ast.BinOp(left=index, op=ast.Add(), right=position)
        if owed:
            index = ast.BinOp(left=index, op=ast.Add(), right=ast.Constant(value=owed))
        return index

    def _advance(self, edge, count: int, out: List[ast.stmt], nested: bool) -> None:
        """Move a list tape's front ``count`` items on: at once inside a
        rolled loop, else owed until the end of the unit."""
        if nested or self._looped:
            out.append(_bump(self._cur(edge), count))
        else:
            self.pending[edge] = self.pending.get(edge, 0) + count

    def _settle(self, edges) -> List[ast.stmt]:
        """The bumps that pay what ``edges`` are owed."""
        bumps = []
        for edge in edges:
            owed = self.pending.pop(edge, 0)
            if owed:
                bumps.append(_bump(self._cur(edge), owed))
        return bumps

    def _list_read(self, edge, position, out, nested: bool) -> ast.expr:
        item = ast.Subscript(
            value=_name(self._tape(edge)), slice=self._at(edge, position), ctx=ast.Load()
        )
        if (nested or self._looped) and self.ordered:
            # hoisted before its statement: a pop in it bumps the cursor first
            return self._new_value(item, out)
        return item

    def pop(self, edge, out: List[ast.stmt], nested: bool = False) -> ast.expr:
        """The next item of ``edge``: a name, or a list read (its setup, if
        any, goes to ``out``)."""
        if self._symbolic(edge, nested):
            if self.queue[edge]:
                return _name(self.queue[edge].pop(0))
            self.taped[edge] = "read past the items its schedule provides"
        item = self._list_read(edge, None, out, nested)
        self._advance(edge, 1, out, nested)
        return item

    def drop(self, edge, out: List[ast.stmt], nested: bool = False) -> None:
        """A pop whose item is unused."""
        if self._symbolic(edge, nested):
            if self.queue[edge]:
                self.queue[edge].pop(0)
                return
            self.taped[edge] = "read past the items its schedule provides"
        self._advance(edge, 1, out, nested)

    def peek(self, edge, position: ast.expr, out: List[ast.stmt], nested: bool = False) -> ast.expr:
        fixed = (
            isinstance(position, ast.Constant)
            and type(position.value) is int
            and position.value >= 0
        )
        if edge not in self.taped and not fixed:
            self.taped[edge] = "peek at a computed position"
        if self._symbolic(edge, nested):
            if position.value < len(self.queue[edge]):
                return _name(self.queue[edge][position.value])
            self.taped[edge] = "read past the items its schedule provides"
        return self._list_read(edge, position, out, nested)

    def push(self, edge, value: ast.expr, out: List[ast.stmt], nested: bool = False) -> None:
        if self._symbolic(edge, nested):
            if not (isinstance(value, ast.Name) and value.id in self.symbols):
                value = self._new_value(value, out)
            self.queue[edge].append(value.id)
            return
        tape = self._tape(edge)
        push = _name(f"{tape}_push") if edge in self.ext_out else ast.Attribute(
            value=_name(tape), attr="append", ctx=ast.Load()
        )
        out.append(ast.Expr(value=ast.Call(func=push, args=[value], keywords=[])))

    def mark(self, edges) -> dict:
        """The state of ``edges``' queues and owed pops, to :meth:`restore`."""
        return {e: (list(self.queue.get(e, ())), self.pending.get(e, 0)) for e in edges}

    def restore(self, mark: dict) -> None:
        for e, (queue, owed) in mark.items():
            if e in self.queue:
                self.queue[e] = list(queue)
            self.pending[e] = owed

    def select(self, edges, arm_a, arm_b) -> Tuple[List[ast.stmt], List[ast.stmt]]:
        """The statements of both arms of a conditional the unit does not
        decide (``arm_a()`` / ``arm_b()`` write them), simulated from the
        same queues of ``edges``.  A forwarded edge stays forwarded where
        both arms leave it as many items: the k-th pushed item is the same
        local in either arm (a local an arm bound itself is renamed to it,
        any other is assigned to it at the arm's end).  A list's owed pops
        are paid inside an arm that owes more or fewer than the other."""
        mark = self.mark(edges)
        first = len(self._born)
        body = arm_a()
        after = {e: (self.queue.get(e), self.pending.get(e, 0)) for e in edges}
        middle = len(self._born)
        self.restore(mark)
        orelse = arm_b()
        arms = (body, orelse)
        fresh = (set(self._born[first:middle]), set(self._born[middle:]))
        renames: Tuple[Dict[str, str], Dict[str, str]] = ({}, {})
        tails: Tuple[List[ast.stmt], List[ast.stmt]] = ([], [])
        targets: set = set()
        for e in edges:
            owed = (after[e][1], self.pending.get(e, 0))
            if owed[0] != owed[1]:
                for side in (0, 1):
                    if owed[side] != mark[e][1]:
                        tails[side].append(_bump(self._cur(e), owed[side] - mark[e][1]))
                self.pending[e] = mark[e][1]
            if e in self.taped:
                continue
            queues = (after[e][0], self.queue[e])
            if len(queues[0]) != len(queues[1]):
                self.taped[e] = "its arms of a conditional pop or push different counts"
                continue
            merged = []
            for pair in zip(*queues):
                if pair[0] == pair[1]:
                    merged.append(pair[0])
                    continue
                for side in (0, 1):
                    name = pair[side]
                    if name in fresh[side] and name not in renames[side] and name not in targets:
                        target = name
                        break
                else:
                    target = self._fresh_name()
                targets.add(target)
                for side in (0, 1):
                    name = pair[side]
                    if name == target:
                        continue
                    if name in fresh[side] and name not in renames[side] and name not in targets:
                        renames[side][name] = target
                    else:
                        tails[side].append(_assign(target, _name(renames[side].get(name, name))))
                merged.append(target)
            self.queue[e] = merged
        for arm, names, tail in zip(arms, renames, tails):
            _rename(arm, names)
            arm.extend(tail)
        return body, orelse

    def _move(self, src, dst, w: int, out: List[ast.stmt]) -> None:
        """``w`` items from the front of ``src`` onto the back of ``dst``."""
        if w > 1 and not (self._symbolic(src, False) or self._symbolic(dst, False)):
            window = ast.Slice(lower=self._at(src, None), upper=self._at(src, ast.Constant(value=w)))
            extend = ast.Attribute(value=_name(self._tape(dst)), attr="extend", ctx=ast.Load())
            items = ast.Subscript(value=_name(self._tape(src)), slice=window, ctx=ast.Load())
            out.append(ast.Expr(value=ast.Call(func=extend, args=[items], keywords=[])))
            self._advance(src, w, out, False)
            return
        for _ in range(w):
            self.push(dst, self.pop(src, out), out)

    # -- per-node statement lowering -----------------------------------------

    def _node_stmts(self, node) -> List[ast.stmt]:
        self.ordered = True
        if node.kind == FILTER:
            return self._filter_stmts(node)
        if node.flavor == NULL:
            return []
        if node.kind == SPLITTER:
            return self._splitter_stmts(node)
        return self._joiner_stmts(node)

    def _filter_stmts(self, node) -> List[ast.stmt]:
        i = self.node_index[node]
        self.filter_idx.append(i)
        if node not in self.called:
            try:
                inliner = WorkInliner(
                    node.filter,
                    fvar=f"f{i}",
                    gprefix=f"_g{i}_",
                    tapes=self,
                    in_edge=node.in_edges[0] if node.in_edges else None,
                    out_edge=node.out_edges[0] if node.out_edges else None,
                )
                stmts = inliner.inline()
            except Unsupported as exc:  # this pass is void: the loop goes round again
                self.called[node] = str(exc)
                for edge in node.in_edges + node.out_edges:
                    self.taped.setdefault(edge, f"{node.name}.work() is called: {exc}")
                return []
            if inliner.globals_seen:
                self.globals_map[i] = sorted(inliner.globals_seen)
            self.hoisted.update((i, attr) for attr in inliner.hoisted)
            self.folded.update(((i, attr), value) for attr, value in inliner.folded.items())
            return stmts
        call = f"f{i}.work()"
        stmts: List[ast.stmt] = []
        if node.in_edges:  # the filter pops at the cursor the module keeps
            edge = node.in_edges[0]
            stmts = self._settle([edge])
            index, cur = self.edge_index[edge], self._cur(edge)
            call = f"_core.set_cursor({index}, {cur})\n{call}\n{cur} = _core.cursor({index})"
        return stmts + ast.parse(call).body

    def _splitter_stmts(self, node) -> List[ast.stmt]:
        in_edge = node.in_edges[0]
        stmts: List[ast.stmt] = []
        if node.flavor == DUPLICATE:
            item = self.pop(in_edge, stmts)
            if not isinstance(item, ast.Name):
                item = self._new_value(item, stmts)
            for e in node.out_edges:
                self.push(e, item, stmts)
            return stmts
        for e in node.out_edges:
            w = node.out_rates[e.src_port]
            if w:
                self._move(in_edge, e, w, stmts)
        return stmts

    def _joiner_stmts(self, node) -> List[ast.stmt]:
        out_edge = node.out_edges[0]
        stmts: List[ast.stmt] = []
        if node.flavor == COMBINE:
            items: List[ast.expr] = [self.pop(e, stmts) for e in node.in_edges]
            reducer = getattr(getattr(node.obj, "joiner", None), "reducer", None)
            value = items[0]
            if reducer is not None:
                i = self.node_index[node]
                self.reducer_idx.append(i)
                value = ast.Call(
                    func=_name(f"_rd{i}"),
                    args=[ast.List(elts=items, ctx=ast.Load())],
                    keywords=[],
                )
            self.push(out_edge, value, stmts)
            return stmts
        for e in node.in_edges:
            w = node.in_rates[e.dst_port]
            if w:
                self._move(e, out_edge, w, stmts)
        return stmts


# -- module emission ----------------------------------------------------------


def emit_module(core: CoreLoopRunner) -> Tuple[str, dict, dict, list]:
    """Emit ``core``'s module: ``(source, namespace, lowering, lists)`` — its
    text, the live objects that text names (:meth:`CoreEmitter.namespace`),
    its report row (:meth:`CoreEmitter.lowering`) and the internal edges it
    keeps on lists (:meth:`CoreEmitter.lists`).
    """
    emitter = CoreEmitter(core)
    body = emitter.emit()
    src_lines = [
        '"""Auto-generated by repro.runtime.codegen_emit — do not edit.',
        "",
        "The inlined closed loop of one core (a feedback loop's cyclic core,",
        "or a plan's whole steady schedule for its small calls):",
        "run_chunk(scale) runs `scale` steady periods of it.  Names like",
        "f3/_g3_x/_rd5/_core/_fresh are bound by the namespace the module",
        "was emitted with.",
        '"""',
        "",
        "",
        "def run_chunk(scale):",
        *("    " + line for line in body),
        "",
    ]
    return "\n".join(src_lines), emitter.namespace(), emitter.lowering(), emitter.lists()
