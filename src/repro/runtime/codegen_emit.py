"""Source emission for the whole-program codegen engine.

Given a compiled :class:`~repro.runtime.plan.ExecutionPlan`, this module
emits **one self-contained Python source module** whose ``run_chunk(scale)``
function executes ``scale`` steady periods with no interpreter dispatch
loop: the plan's phase list becomes straight-line statements, lifted kernel
ASTs are spliced in as module-level functions, fused SISO chains unroll into
per-stage statements over scratch tapes, and a segmented feedback core
(:class:`~repro.runtime.plan.CoreLoopRunner`) becomes an inlined closed
loop — ``self.pop()``/``peek``/``push`` rewritten by a statement-level AST
transformer to reads and bindings of locals where the emitter can follow a
tape's contents through the loop body, to list indexing where it cannot.

The module is *source*, not closures, so it can be cached on disk and
rebound to a structurally identical plan later (see
:mod:`repro.runtime.codegen` for the cache and the binder).  Everything a
bound module needs at run time — filter instances, channels, executors,
kernel globals — is injected into the module namespace under deterministic
names derived from node/edge indices, so emission and binding can happen in
different processes.

Per-block lowering modes (reported through ``engine_report()`` and the
``SL305`` diagnostic):

* ``inline`` — the block's computation is spliced into the module (a lifted
  kernel called through :func:`~repro.runtime.vectorize.run_lifted`, or a
  core work() body rewritten to flat statements);
* ``call`` — a direct call to an existing batched executor (hand
  ``work_batch``, vectorized splitter/joiner, a lowered splitjoin
  :class:`~repro.runtime.regions.RegionPhase`) — no dispatch loop, but the
  body lives outside the module;
* ``fallback`` — an uncertified filter keeps its adaptive
  :class:`~repro.runtime.vectorize.BatchExecutor` (trial machinery and
  demotion intact); these blocks are what ``SL305`` reports.
"""

from __future__ import annotations

import ast
import copy
import hashlib
from typing import Dict, List, Optional, Sequence, Tuple

from repro.graph.flatgraph import FILTER, JOINER, SPLITTER
from repro.graph.source import SourceUnavailable, function_ast
from repro.graph.splitjoin import COMBINE, DUPLICATE, NULL
from repro.runtime.plan import CompiledPhase, CoreLoopRunner
from repro.runtime.vectorize import BatchExecutor

#: Bump on any change to the emitted module's shape or binding contract;
#: part of the cache key, so stale on-disk modules are never rebound.
EMITTER_VERSION = 4


class Unsupported(Exception):
    """A construct the emitter cannot lower; callers fall back."""


# -- per-phase lowering mode ---------------------------------------------------


def _kernel_splicable(cls: type) -> bool:
    """Can this class's work() source be spliced as a module-level kernel?"""
    try:
        fn = cls.work
        if fn.__code__.co_freevars:
            return False
        fdef = _work_fdef(fn)
        args = fdef.args
        return (
            len(args.args) == 1
            and not args.posonlyargs
            and not args.kwonlyargs
            and args.vararg is None
            and args.kwarg is None
            and not args.defaults
        )
    except Unsupported:
        return False


def resolve_phase_mode(ph: CompiledPhase) -> str:
    """Lowering mode for one flat phase; certifies lazily when needed.

    Runs post-init (the static certification passes read live attribute
    state).  A successful certification is recorded on the executor so
    ``vectorization_report()`` agrees with the emitted module.
    """
    node = ph.node
    if node.kind != FILTER:
        return "call"
    fire = ph.fire
    if not isinstance(fire, BatchExecutor):
        return "call"  # hand work_batch
    if fire.mode == "lifted" and fire.trusted:
        return "inline" if _kernel_splicable(type(node.filter)) else "call"
    if fire.mode is None and fire._allow_trusted and fire._certify():
        fire.mode = "lifted"
        fire.trusted = True
        return "inline" if _kernel_splicable(type(node.filter)) else "call"
    return "fallback"


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
    """Cache key: structural signature + per-class work code + emitter rev.

    The structural signature pins the plan *shape*; the per-class code
    hashes pin the spliced bodies, so editing a filter's ``work()`` (same
    class name, same rates) invalidates cached modules.
    """
    parts: List[str] = [repr(signature), version, str(EMITTER_VERSION)]
    # A region's tier is decided from live state, not structure: a module
    # must never be rebound to a plan that lowered differently.  (The
    # parallel engine keys its struct cache on a bare interpreter, which
    # lowers nothing.)
    region_report = getattr(plan, "region_report", None)
    if region_report is not None:
        # Rows are in graph order; names may be auto-generated per build.
        parts.append(repr([row["tier"] for row in region_report()]))
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


def kernel_source(cls: type, kname: str) -> str:
    """The class's work() source as a module-level kernel definition.

    The body is verbatim — vectorization comes from the channel shims bound
    by :func:`~repro.runtime.vectorize.run_lifted`, and the binder rebuilds
    the function with its original ``__globals__`` (``math`` swapped for
    the exact vector-math namespace), exactly like
    :func:`~repro.runtime.vectorize.lift_work`.
    """
    fdef = copy.copy(_work_fdef(cls.work))  # only the def node is edited
    fdef.name = kname
    fdef.decorator_list = []
    return ast.unparse(fdef)


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


def _parse_stmt(src: str) -> ast.stmt:
    return ast.parse(src).body[0]


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
    ``while`` tests) raise :class:`Unsupported` — the whole core then falls
    back to the :class:`~repro.runtime.plan.CoreLoopRunner`.
    """

    def __init__(self, filt, fvar: str, gprefix: str, tapes, in_edge, out_edge) -> None:
        fn = type(filt).work
        fdef = copy.deepcopy(_work_fdef(fn))  # expr() rewrites nodes in place
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
        self.filt = filt
        self.fvar = fvar
        self.tapes, self.in_edge, self.out_edge = tapes, in_edge, out_edge
        self.gprefix = gprefix
        self.fn_globals = fn.__globals__
        self.assigned = _assigned_names(fdef)
        self.stored_attrs = {
            node.attr
            for node in ast.walk(fdef)
            if isinstance(node, ast.Attribute)
            and not isinstance(node.ctx, ast.Load)
            and isinstance(node.value, ast.Name)
            and node.value.id == self.self_name
        }
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
            return self.pre + [ast.Assign(targets=targets, value=value)]
        if isinstance(st, ast.AugAssign):
            value = self.expr(st.value, False)
            target = self.expr(st.target, False)
            return self.pre + [ast.AugAssign(target=target, op=st.op, value=value)]
        if isinstance(st, ast.AnnAssign):
            if st.value is None:
                return []
            value = self.expr(st.value, False)
            target = self.expr(st.target, False)
            return self.pre + [ast.Assign(targets=[target], value=value)]
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
            return pre + [ast.For(target=target, iter=it, body=body, orelse=orelse)]
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
        for field, old in ast.iter_fields(node):
            if isinstance(old, list):
                setattr(
                    node,
                    field,
                    [
                        self.expr(x, cond) if isinstance(x, ast.expr) else x
                        for x in old
                    ],
                )
            elif isinstance(old, ast.expr):
                setattr(node, field, self.expr(old, cond))
        return node


# -- core section emission ----------------------------------------------------


def plain_attribute(filt, attr: str) -> bool:
    """Is ``filt.attr`` a plain instance attribute — one whose value can only
    change by a store to it?  (A property or other class-level name may
    compute its value from state the loop body changes.)"""
    return attr in getattr(filt, "__dict__", ()) and not hasattr(type(filt), attr)


#: Copies of a core's round that are still inlined rather than looped over.
_INLINE_ROUNDS = 8

#: Most items a tape may hold between units and still be kept in locals.
#: Every unit re-binds all of a tape's carried locals (a pop shifts each one
#: place), a list pops by bumping a cursor whatever it holds.  A loop whose
#: only state is its delay line, ns a period on the reference host:
#:
#:     delay       1     2     4     8    16    32
#:     locals    138   144   176   204   252   542
#:     list      179   183   185   184   182   181
_CARRY_MAX = 4


def _repeating_unit(phases: list) -> Tuple[list, int]:
    """``(unit, k)`` with ``unit * k == phases`` and ``unit`` the shortest."""
    n = len(phases)
    for size in range(1, n // 2 + 1):
        if n % size == 0 and phases == phases[:size] * (n // size):
            return phases[:size], n // size
    return phases, 1


def _counted_loop(count, body: List[ast.stmt]) -> ast.For:
    """``for _ in range(count): body`` (``count`` an int or a name)."""
    bound = ast.Constant(value=count) if isinstance(count, int) else _name(count)
    return ast.For(
        target=_store("_"),
        iter=ast.Call(func=_name("range"), args=[bound], keywords=[]),
        body=body,
        orelse=[],
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
    ``append`` bound above the loop).  Both forms live in one unit;
    arithmetic and its order are those of the scalar ``work()`` bodies
    either way.
    """

    def __init__(self, plan, core: CoreLoopRunner, node_index, edge_index) -> None:
        self.plan = plan
        self.core = core
        self.node_index = node_index
        self.edge_index = edge_index
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
        # is emitted: go round again until a pass sends none.
        while True:
            known = len(self.taped)
            unit = self._unit(round_)
            if len(self.taped) == known:
                break
        if not unit:
            raise Unsupported("empty cyclic core")
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
        lines.extend(ast.unparse(ast.fix_missing_locations(loop)).splitlines())
        lines.extend(below)
        lines.append("_core.end(scale)")
        return lines

    def meta(self) -> dict:
        """What the binder needs and ``codegen_report`` shows, by index."""
        index = self.edge_index
        return {
            "filters": self.filter_idx,
            "globals": {str(k): v for k, v in self.globals_map.items()},
            "reducers": self.reducer_idx,
            "forwarded": {
                str(index[e]): held for e, held in self.carried.items() if e not in self.taped
            },
            "taped": {str(index[e]): why for e, why in self.taped.items()},
            "hoisted": [list(pair) for pair in sorted(self.hoisted)],
        }

    # -- one pass over the unit ----------------------------------------------

    def _unit(self, round_) -> List[ast.stmt]:
        """The unit's statements under the current ``taped`` set (which the
        pass may grow)."""
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
            unit.append(_parse_stmt(f"{', '.join(targets)} = {', '.join(values)}"))
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
        out.append(ast.Assign(targets=[_store(name)], value=value))
        return _name(name)

    def _read(self, edge, position: Optional[ast.expr], out: List[ast.stmt]) -> ast.Name:
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
        out.append(_parse_stmt(f"{self._cur(edge)} += 1"))
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
        tape = self._tape(edge)
        push = _name(f"{tape}_push") if edge in self.ext_out else ast.Attribute(
            value=_name(tape), attr="append", ctx=ast.Load()
        )
        out.append(ast.Expr(value=ast.Call(func=push, args=[value], keywords=[])))

    def _move(self, src, dst, w: int, out: List[ast.stmt]) -> None:
        """``w`` items from the front of ``src`` onto the back of ``dst``."""
        if w > 1 and not (self._symbolic(src, False) or self._symbolic(dst, False)):
            ts, cs, td = self._tape(src), self._cur(src), self._tape(dst)
            out.append(_parse_stmt(f"{td}.extend({ts}[{cs}:{cs} + {w}])"))
            out.append(_parse_stmt(f"{cs} += {w}"))
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
        if node.kind == JOINER:
            return self._joiner_stmts(node)
        raise Unsupported(f"unknown node kind {node.kind!r}")

    def _filter_stmts(self, node) -> List[ast.stmt]:
        i = self.node_index[node]
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
        self.filter_idx.append(i)
        return stmts

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


def _indent(lines: Sequence[str], level: int = 1) -> List[str]:
    pad = "    " * level
    return [pad + line if line else line for line in lines]


def _kernel_call_lines(i: int, count: int) -> List[str]:
    """Guarded inline-kernel invocation with the runtime demotion net."""
    return [
        f"_n = {count} * scale",
        f"if _dm.get({i}):",
        f"    _run_loop(f{i}, _n)",
        "else:",
        "    try:",
        f"        _run_lifted(f{i}, _K{i}, _n)",
        "    except Exception:",
        f"        _dm[{i}] = True",
        f"        _run_loop(f{i}, _n)",
    ]


def emit_module(plan, fingerprint: str) -> Tuple[str, dict]:
    """Emit the plan's fused source module; returns ``(source, meta)``.

    ``meta`` (also embedded in the source as ``__codegen_meta__``) records
    the per-block lowering so a cached module can be rebound without
    re-running mode resolution, and so ``engine_report()`` can show
    codegen-vs-fallback per block.
    """
    node_index = {node: i for i, node in enumerate(plan.graph.nodes)}
    edge_index = {edge: i for i, edge in enumerate(plan.graph.edges)}
    meta_blocks: List[dict] = []
    kernel_defs: List[str] = []
    kernels_done: set = set()
    body: List[str] = []

    def add_kernel(node) -> None:
        i = node_index[node]
        if i not in kernels_done:
            kernels_done.add(i)
            kernel_defs.append(kernel_source(type(node.filter), f"_K{i}"))

    def emit_phase(ph: CompiledPhase, out: List[str]) -> dict:
        node = ph.node
        i = node_index[node]
        mode = resolve_phase_mode(ph)
        out.append(f"# {node.name}: {mode}")
        if mode == "inline":
            add_kernel(node)
            out.extend(_kernel_call_lines(i, ph.count))
        else:
            out.append(f"x{i}({ph.count} * scale)")
        return {"kind": "phase", "node": i, "mode": mode, "name": node.name}

    for obj in plan.blocks:
        kind = obj.kind
        if kind == "phase":
            meta_blocks.append(emit_phase(obj, body))
        elif kind == "fused":
            stages: Sequence[CompiledPhase] = obj.stages
            names = "+".join(st.node.name for st in stages)
            body.append(f"# fused chain: {names}")
            stage_meta: List[dict] = []
            chain_idx = len(meta_blocks)
            inner: List[str] = []
            restore: List[str] = []
            last = len(stages) - 1
            for si, st in enumerate(stages):
                node = st.node
                i = node_index[node]
                if si:
                    tape = f"tp{chain_idx}_{si - 1}"
                    inner.append(f"f{i}.input = {tape}")
                    restore.append(f"f{i}.input = ch{edge_index[node.in_edges[0]]}")
                if si < last:
                    tape = f"tp{chain_idx}_{si}"
                    inner.append(f"f{i}.output = {tape}")
                    restore.append(f"f{i}.output = ch{edge_index[node.out_edges[0]]}")
                stage_meta.append(emit_phase(st, inner))
            body.append("try:")
            body.extend(_indent(inner))
            body.append("finally:")
            body.extend(_indent(restore))
            for st in stages[:-1]:
                e = st.node.out_edges[0]
                moved = st.count * e.push_rate
                body.append(f"ch{edge_index[e]}.pushed_count += {moved} * scale")
                body.append(f"ch{edge_index[e]}.popped_count += {moved} * scale")
            meta_blocks.append(
                {
                    "kind": "fused",
                    "nodes": [node_index[st.node] for st in stages],
                    "stages": stage_meta,
                    "name": names,
                }
            )
        elif kind == "region":
            modes = [
                resolve_phase_mode(ph) for ph in obj.members if ph.node.kind == FILTER
            ]
            mode = "fallback" if "fallback" in modes else "call"
            body.append(f"# region {obj.name}: {obj.tier} ({mode})")
            body.append(f"rg{len(meta_blocks)}(scale)")
            meta_blocks.append(
                {
                    "kind": "region",
                    "mode": mode,
                    "tier": obj.tier,
                    "nodes": [node_index[ph.node] for ph in obj.members],
                    "name": obj.name,
                }
            )
        elif kind == "core":
            core: CoreLoopRunner = obj
            core_nodes = sorted(node_index[n] for n in core.nodes)
            body.append(f"# cyclic core: {'+'.join(sorted(n.name for n in core.nodes))}")
            try:
                emitter = CoreEmitter(plan, core, node_index, edge_index)
                lines = emitter.emit()
            except Unsupported as exc:
                body.append(f"# core fallback ({exc})")
                body.append("_core_run(scale)")
                meta_blocks.append(
                    {
                        "kind": "core",
                        "mode": "fallback",
                        "nodes": core_nodes,
                        "reason": str(exc),
                    }
                )
            else:
                body.extend(lines)
                meta_blocks.append(
                    {
                        "kind": "core",
                        "mode": "inline",
                        "nodes": core_nodes,
                        **emitter.meta(),
                    }
                )
        else:
            raise Unsupported(f"a {kind} block has no codegen lowering")

    meta = {
        "emitter": EMITTER_VERSION,
        "fingerprint": fingerprint,
        "blocks": meta_blocks,
    }
    src_lines = [
        '"""Auto-generated by repro.runtime.codegen — do not edit.',
        "",
        "One fused steady-state module for a compiled ExecutionPlan:",
        "run_chunk(scale) executes `scale` steady periods with no engine",
        "dispatch loop.  Names like f3/x3/ch2/_K3 are injected by the",
        "binder (repro.runtime.codegen.bind_module) before first use.",
        '"""',
        "",
        f"__codegen_meta__ = {meta!r}",
        "",
    ]
    for kdef in kernel_defs:
        src_lines.append(kdef)
        src_lines.append("")
    src_lines.append("")
    src_lines.append("def run_chunk(scale):")
    src_lines.extend(_indent(body))
    src_lines.append("")
    return "\n".join(src_lines), meta
