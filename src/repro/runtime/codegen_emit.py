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
A body the transformer refuses is called from the loop instead, over the
list tapes its filter is bound to (``called``).

The module names what it needs at run time — filter instances, kernel
globals, reducers, the core runner itself — by node and edge index, and
the emitter hands over the namespace that binds those names with the text
(:func:`repro.runtime.codegen.lower_core` compiles and runs the two).
Every core lowers.
"""

from __future__ import annotations

import ast
import hashlib
import weakref
from typing import Dict, List, Optional, Sequence, Tuple

from repro.graph.flatgraph import FILTER, JOINER, SPLITTER
from repro.graph.source import SourceUnavailable, function_ast
from repro.graph.splitjoin import COMBINE, DUPLICATE, NULL
from repro.runtime.plan import _INLINE_ROUNDS, CoreLoopRunner, _repeating_unit


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


def _shallow(node: ast.AST) -> ast.AST:
    """A copy of ``node`` sharing its children (a rewrite replaces fields
    of the copy, never of the shared template)."""
    new = type(node).__new__(type(node))
    new.__dict__.update(node.__dict__)
    return new


class _WorkTemplate:
    """What inlining reads of one ``work`` function, whatever the node:
    its checked definition (shared and never mutated — :class:`WorkInliner`
    builds new nodes wherever it rewrites) and the names it binds."""

    __slots__ = ("fdef", "self_name", "assigned", "stored_attrs", "fn_globals", "accesses")

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
        self.accesses: Dict[Tuple[bool, bool], object] = {}


class _Recorder:
    """Stands in for the emitter while one ``work()`` body is inlined to
    list its channel accesses, in the order inlining meets them:
    ``(op, nested, position)``, ``position`` a literal peek index or None."""

    def __init__(self) -> None:
        self.events: List[Tuple[str, bool, Optional[int]]] = []

    def pop(self, edge, out, nested=False) -> ast.Name:
        self.events.append(("pop", nested, None))
        return _name("_")

    def peek(self, edge, position, out, nested=False) -> ast.Name:
        fixed = (
            isinstance(position, ast.Constant)
            and type(position.value) is int
            and position.value >= 0
        )
        self.events.append(("peek", nested, position.value if fixed else None))
        return _name("_")

    def push(self, edge, value, out, nested=False) -> None:
        self.events.append(("push", nested, None))


def _accesses(filt, has_in: bool, has_out: bool) -> List[Tuple[str, bool, Optional[int]]]:
    """The channel accesses of ``filt``'s inlined ``work()`` (per class and
    edge layout, recorded once per process)."""
    template = _template(type(filt).work)
    key = (has_in, has_out)
    events = template.accesses.get(key)
    if events is None:
        recorder = _Recorder()
        try:
            WorkInliner(
                filt, "f", "_g_", recorder, "in" if has_in else None, "out" if has_out else None
            ).inline()
            events = recorder.events
        except Unsupported as exc:
            events = str(exc)
        template.accesses[key] = events
    if isinstance(events, str):
        raise Unsupported(events)
    return events


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


class WorkInliner:
    """Rewrites one scalar work() body into flat statements over core tapes.

    Channel calls go to ``tapes`` (the :class:`CoreEmitter`), which knows
    each tape's form: ``self.pop()`` / ``self.peek(E)`` become the name that
    holds the item — a forwarded local, or a list read hoisted *before* the
    statement containing it (in evaluation order, so mixed pop/peek
    expressions stay order-exact) — and ``self.push(E)`` (statement
    position only) binds a local or appends.  Each call says whether it sits
    inside a loop or a conditional of the body, where only the list form
    works.  ``self.attr`` becomes ``f<i>.attr`` on the live filter instance,
    so arbitrary state mutation keeps working; an attribute the body never
    stores is read through ``_f<i>_attr``, which the emitter loads once
    above the loop (``hoisted``).  Channel ops inside conditionally-evaluated
    positions (``and``/``or`` tails, ternaries, chained-comparison tails,
    ``while`` tests) raise :class:`Unsupported`, as does any construct
    outside the rewritten subset; :class:`CoreEmitter` then calls that
    filter's ``work()`` from the loop.
    """

    def __init__(self, filt, fvar: str, gprefix: str, tapes, in_edge, out_edge) -> None:
        template = _template(type(filt).work)
        self.fdef = template.fdef
        self.self_name = template.self_name
        self.assigned = template.assigned
        self.stored_attrs = template.stored_attrs
        self.fn_globals = template.fn_globals
        self.filt = filt
        self.fvar = fvar
        self.tapes, self.in_edge, self.out_edge = tapes, in_edge, out_edge
        self.gprefix = gprefix
        self.globals_seen: set = set()
        self.hoisted: set = set()
        self.depth = 0  # loops and conditionals of the body around this point
        self.pre: List[ast.stmt] = []

    def inline(self) -> List[ast.stmt]:
        return self.stmts(self.fdef.body)

    # -- statements ----------------------------------------------------------

    def stmts(self, body: Sequence[ast.stmt]) -> List[ast.stmt]:
        out: List[ast.stmt] = []
        for st in body:
            out.extend(self.stmt(st))
        return out

    def _nested(self, body: Sequence[ast.stmt]) -> List[ast.stmt]:
        self.depth += 1
        out = self.stmts(body)
        self.depth -= 1
        return out

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
                self.tapes.push(self.out_edge, val, self.pre, self.depth > 0)
                return self.pre
            value = self.expr(st.value, False)
            if isinstance(value, ast.Name):  # a lone pop/peek: the item is unused
                return self.pre
            return self.pre + [ast.Expr(value=value)]
        if isinstance(st, ast.Assign):
            value = self.expr(st.value, False)
            targets = [self.expr(t, False) for t in st.targets]
            return self.pre + [ast.Assign(targets=targets, value=value, lineno=0)]
        if isinstance(st, ast.AugAssign):
            value = self.expr(st.value, False)
            target = self.expr(st.target, False)
            return self.pre + [ast.AugAssign(target=target, op=st.op, value=value)]
        if isinstance(st, ast.AnnAssign):
            if st.value is None:
                return []
            value = self.expr(st.value, False)
            target = self.expr(st.target, False)
            return self.pre + [ast.Assign(targets=[target], value=value, lineno=0)]
        if isinstance(st, ast.If):
            test = self.expr(st.test, False)
            pre = self.pre
            body = self._nested(st.body) or [ast.Pass()]
            orelse = self._nested(st.orelse)
            return pre + [ast.If(test=test, body=body, orelse=orelse)]
        if isinstance(st, ast.While):
            test = self.expr(st.test, True)  # re-evaluated: no channel ops
            pre = self.pre
            body = self._nested(st.body) or [ast.Pass()]
            orelse = self._nested(st.orelse)
            return pre + [ast.While(test=test, body=body, orelse=orelse)]
        if isinstance(st, ast.For):
            it = self.expr(st.iter, False)
            pre = self.pre
            self.pre = []
            target = self.expr(st.target, True)
            if self.pre:
                raise Unsupported("channel op in a for-loop target")
            body = self._nested(st.body) or [ast.Pass()]
            orelse = self._nested(st.orelse)
            return pre + [ast.For(target=target, iter=it, body=body, orelse=orelse, lineno=0)]
        if isinstance(st, (ast.Pass, ast.Break, ast.Continue)):
            return [st]
        if isinstance(st, ast.Assert):
            test = self.expr(st.test, True)
            msg = self.expr(st.msg, True) if st.msg is not None else None
            return self.pre + [ast.Assert(test=test, msg=msg)]
        raise Unsupported(type(st).__name__)

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
                    return self.tapes.pop(self.in_edge, self.pre, self.depth > 0)
                if f.attr == "peek":
                    if cond:
                        raise Unsupported("peek() in a conditionally-evaluated position")
                    if len(node.args) != 1 or node.keywords:
                        raise Unsupported("peek() with unexpected arguments")
                    if self.in_edge is None:
                        raise Unsupported("peek() on a filter with no input edge")
                    idx = self.expr(node.args[0], cond)
                    return self.tapes.peek(self.in_edge, idx, self.pre, self.depth > 0)
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
        if isinstance(node, ast.Name):
            if node.id == self.self_name:
                raise Unsupported("bare self escapes the work() body")
            if (
                isinstance(node.ctx, ast.Load)
                and node.id not in self.assigned
                and node.id in self.fn_globals
            ):
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


class CoreEmitter:
    """Emits the inlined closed loop for one cyclic schedule core.

    The loop body is one *unit* — the core's period, or the round it
    repeats — as straight-line code.  While emitting it the emitter
    simulates every tape as a queue of *symbolic values*: a push onto an
    internal tape binds a fresh local (``_v<n>``, one name per value) and
    queues its name, a pop or a ``peek(k)`` at a literal ``k`` reads the
    queued name and emits nothing.  The ``d`` items a tape holds at every
    unit boundary (a loop's delay, a peek residue) are ``d`` carried locals
    ``_k<edge>_<j>``: loaded from the tape above the loop, re-bound in one
    assignment at the end of the unit, stored back below the loop — so at a
    chunk boundary the tapes hold exactly what the list form leaves there.

    A tape the simulation cannot follow stays a list with a cursor
    (``taped``, each with its reason): an access inside a loop or a
    conditional, a ``peek`` at a computed position, a node fired several
    times in a row, more than :data:`_CARRY_MAX` items to carry, an
    external tape (read through its one running cursor, written through an
    ``append`` bound above the loop), a tape of a filter whose body
    :class:`WorkInliner` refuses.  That filter's ``work()`` is called
    (``called``, each with its reason): it pops and pushes through the
    :class:`~repro.runtime.channel.ListTape` s the core binds it to, which
    hold the very lists the module indexes, and the module hands its input
    cursor over before the call and takes it back after.  Both forms live
    in one unit; arithmetic and its order are those of the scalar
    ``work()`` bodies either way.
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
        # Sending a tape back to list form changes how every access to it
        # is emitted: go round again until a pass sends none.  Those passes
        # replay each body's recorded channel accesses, and only the last
        # inlines the bodies.
        while True:
            known = len(self.taped)
            self._unit(round_, dry=True)
            if len(self.taped) == known:
                break
        unit = self._unit(round_) or [ast.Pass()]
        if repeats > 1:
            unit = [_counted_loop(repeats, unit)]
        lines = ["_core.begin()"]
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
        loop = _counted_loop("scale", unit)
        lines.extend(ast.unparse(loop).splitlines())
        lines.extend(below)
        lines.append("_core.end(scale)")
        return lines

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
        return ns

    def lowering(self) -> dict:
        """The core's row of ``codegen_report``: its tapes' forms and the
        loads read once above the loop."""
        names = {e: f"{e.src.name}->{e.dst.name}" for e in self.edges}
        nodes = self.core.plan.graph.nodes
        return {
            "mode": "inline",
            "forwarded": [names[e] for e in self.carried if e not in self.taped],
            "taped": {names[e]: why for e, why in self.taped.items()},
            "hoisted": sorted(f"{nodes[i].name}.{attr}" for i, attr in self.hoisted),
            "called": {node.name: why for node, why in self.called.items()},
        }

    # -- one pass over the unit ----------------------------------------------

    def _unit(self, round_, dry: bool = False) -> List[ast.stmt]:
        """The unit's statements under the current ``taped`` set (which the
        pass may grow); a ``dry`` pass decides the tapes' forms alone and
        builds no statement that reads or writes a list."""
        self._dry = dry
        self.globals_map: Dict[int, List[str]] = {}
        self.filter_idx: List[int] = []
        self.reducer_idx: List[int] = []
        self.hoisted: set = set()
        self._values = 0
        #: forwarded edge -> names of the items on it, oldest first
        self.queue = {
            e: self._carry_names(e) for e in self.carried if e not in self.taped
        }
        #: names bound once per unit: safe to queue without a copy
        self.symbols = {name for names in self.queue.values() for name in names}
        unit: List[ast.stmt] = []
        for node, count in round_:
            self._looped = count > 1
            if dry and node.kind == FILTER:
                self._filter_accesses(node)
                continue
            stmts = self._node_stmts(node)
            if stmts and count > 1:
                stmts = [_counted_loop(count, stmts)]
            unit.extend(stmts)
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
            unit.append(
                ast.Assign(
                    targets=[ast.Tuple(elts=[_store(t) for t in targets], ctx=ast.Store())],
                    value=ast.Tuple(elts=[_name(v) for v in values], ctx=ast.Load()),
                    lineno=0,
                )
            )
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
            self.taped[edge] = "accessed inside a loop or a conditional"
        return edge not in self.taped

    def _new_value(self, value: ast.expr, out: List[ast.stmt]) -> ast.Name:
        self._values += 1
        name = f"_v{self._values}"
        self.symbols.add(name)
        if not self._dry:
            out.append(ast.Assign(targets=[_store(name)], value=value, lineno=0))
        return _name(name)

    def _read(self, edge, position: Optional[ast.expr], out: List[ast.stmt]) -> ast.Name:
        if self._dry:
            return self._new_value(None, out)
        index: ast.expr = _name(self._cur(edge))
        if position is not None:
            index = ast.BinOp(left=index, op=ast.Add(), right=position)
        item = ast.Subscript(value=_name(self._tape(edge)), slice=index, ctx=ast.Load())
        return self._new_value(item, out)

    def pop(self, edge, out: List[ast.stmt], nested: bool = False) -> ast.Name:
        """The name holding the next item of ``edge``; list reads go to ``out``."""
        if self._symbolic(edge, nested):
            if self.queue[edge]:
                return _name(self.queue[edge].pop(0))
            self.taped[edge] = "read past the items its schedule provides"
        item = self._read(edge, None, out)
        if not self._dry:
            out.append(_bump(self._cur(edge), 1))
        return item

    def peek(self, edge, position: ast.expr, out: List[ast.stmt], nested: bool = False) -> ast.Name:
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
        return self._read(edge, position, out)

    def push(self, edge, value: ast.expr, out: List[ast.stmt], nested: bool = False) -> None:
        if self._symbolic(edge, nested):
            if not (isinstance(value, ast.Name) and value.id in self.symbols):
                value = self._new_value(value, out)
            self.queue[edge].append(value.id)
            return
        if self._dry:
            return
        tape = self._tape(edge)
        push = _name(f"{tape}_push") if edge in self.ext_out else ast.Attribute(
            value=_name(tape), attr="append", ctx=ast.Load()
        )
        out.append(ast.Expr(value=ast.Call(func=push, args=[value], keywords=[])))

    def _move(self, src, dst, w: int, out: List[ast.stmt]) -> None:
        """``w`` items from the front of ``src`` onto the back of ``dst``."""
        if w > 1 and not (self._symbolic(src, False) or self._symbolic(dst, False)):
            if self._dry:
                return
            ts, cs, td = self._tape(src), self._cur(src), self._tape(dst)
            window = ast.Slice(
                lower=_name(cs),
                upper=ast.BinOp(left=_name(cs), op=ast.Add(), right=ast.Constant(value=w)),
            )
            extend = ast.Attribute(value=_name(td), attr="extend", ctx=ast.Load())
            items = ast.Subscript(value=_name(ts), slice=window, ctx=ast.Load())
            out.append(ast.Expr(value=ast.Call(func=extend, args=[items], keywords=[])))
            out.append(_bump(cs, w))
            return
        for _ in range(w):
            self.push(dst, self.pop(src, out), out)

    # -- per-node statement lowering -----------------------------------------

    def _node_stmts(self, node) -> List[ast.stmt]:
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
        if node in self.called:
            call = f"f{i}.work()"
            if node.in_edges:  # the filter pops at the cursor the module keeps
                edge = node.in_edges[0]
                index, cur = self.edge_index[edge], self._cur(edge)
                call = f"_core.set_cursor({index}, {cur})\n{call}\n{cur} = _core.cursor({index})"
            return ast.parse(call).body
        inliner = WorkInliner(
            node.filter,
            fvar=f"f{i}",
            gprefix=f"_g{i}_",
            tapes=self,
            in_edge=node.in_edges[0] if node.in_edges else None,
            out_edge=node.out_edges[0] if node.out_edges else None,
        )
        stmts = inliner.inline()
        if inliner.globals_seen:
            self.globals_map[i] = sorted(inliner.globals_seen)
        self.hoisted.update((i, attr) for attr in inliner.hoisted)
        return stmts

    def _filter_accesses(self, node) -> None:
        """One firing's channel accesses without its statements: all a dry
        pass needs to decide the tapes' forms."""
        in_edge = node.in_edges[0] if node.in_edges else None
        out_edge = node.out_edges[0] if node.out_edges else None
        scratch: List[ast.stmt] = []
        try:
            events = _accesses(node.filter, in_edge is not None, out_edge is not None)
        except Unsupported as exc:
            self.called[node] = str(exc)
            for edge in node.in_edges + node.out_edges:
                self.taped.setdefault(edge, f"{node.name}.work() is called: {exc}")
            return
        for op, nested, position in events:
            if op == "pop":
                self.pop(in_edge, scratch, nested)
            elif op == "peek":
                index = _name("_") if position is None else ast.Constant(value=position)
                self.peek(in_edge, index, scratch, nested)
            else:
                self.push(out_edge, _name("_"), scratch, nested)

    def _splitter_stmts(self, node) -> List[ast.stmt]:
        in_edge = node.in_edges[0]
        stmts: List[ast.stmt] = []
        if node.flavor == DUPLICATE:
            item = self.pop(in_edge, stmts)
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


def emit_module(core: CoreLoopRunner) -> Tuple[str, dict, dict]:
    """Emit ``core``'s module: ``(source, namespace, lowering)`` — its text,
    the live objects that text names (:meth:`CoreEmitter.namespace`) and
    its report row (:meth:`CoreEmitter.lowering`).
    """
    emitter = CoreEmitter(core)
    body = emitter.emit()
    src_lines = [
        '"""Auto-generated by repro.runtime.codegen_emit — do not edit.',
        "",
        "The inlined closed loop of one feedback core: run_chunk(scale) runs",
        "`scale` steady periods of it.  Names like f3/_g3_x/_rd5/_core are",
        "bound by the namespace the module was emitted with.",
        '"""',
        "",
        "",
        "def run_chunk(scale):",
        *("    " + line for line in body),
        "",
    ]
    return "\n".join(src_lines), emitter.namespace(), emitter.lowering()
