"""Linear extraction: detecting linear filters from their ``work`` code.

The paper's *linear dataflow analysis* symbolically executes a filter's
``work`` function over an abstract domain where every value is either a
*constant* or an *affine form* ``c0 + Σ c_i · peek(i)``.  If every pushed
item resolves to an affine form (and the filter mutates no state), the
filter is linear and the analysis yields its :class:`LinearRep`.

Supported ``work`` subset (mirroring StreamIt's C-like bodies):

* locals, tuple assignment, ``if``/``for range(...)``/``while`` with
  compile-time-constant control flow (loops are unrolled),
* ``+ - * /`` with the usual linearity rules (an affine form may only be
  multiplied/divided by a constant),
* reads of instance attributes set in ``__init__`` (compile-time constants),
  constant subscripts, ``len``/``range``/``min``/``max``/``abs``/``math.*``
  over constants,
* ``self.pop()``, ``self.peek(i)``, ``self.push(e)`` (also via
  ``self.input`` / ``self.output``).

Any write to ``self`` makes the filter *stateful* (never linear); any
data-dependent branch, index, or nonlinear operator makes it non-linear.
The analysis distinguishes the two: statefulness also gates the fission
transformations used by the parallelizers.
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set, Tuple, Union

import numpy as np

from repro.errors import ExtractionError
from repro.graph.base import Filter
from repro.graph.source import SourceUnavailable, function_ast
from repro.linear.linrep import LinearRep

_MAX_STEPS = 4_000_000


class _NotLinear(Exception):
    """Internal: the filter is not linear (with a human-readable reason)."""


class _Break(Exception):
    pass


class _Continue(Exception):
    pass


class _Return(Exception):
    pass


class Affine:
    """An affine form over the input window: ``const + Σ coeffs[i]·peek(i)``."""

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


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float, bool, np.integer, np.floating))


def _to_affine(value: Any) -> Affine:
    if isinstance(value, Affine):
        return value
    if _is_number(value):
        return Affine({}, float(value))
    raise _NotLinear(f"value {value!r} cannot appear in stream arithmetic")


@dataclass(frozen=True)
class ExtractionResult:
    """Outcome of linear extraction on one filter."""

    rep: Optional[LinearRep]
    stateful: bool
    reason: str

    @property
    def linear(self) -> bool:
        return self.rep is not None


# ---------------------------------------------------------------------------
# State mutation pre-scan
# ---------------------------------------------------------------------------

_CHANNEL_ATTRS = {"input", "output"}
_CHANNEL_METHODS = {"pop", "peek", "push"}


def _is_self(node: ast.expr) -> bool:
    return isinstance(node, ast.Name) and node.id == "self"


def _self_attr(node: ast.expr) -> Optional[str]:
    """If ``node`` is ``self.<attr>``, return the attribute name."""
    if isinstance(node, ast.Attribute) and _is_self(node.value):
        return node.attr
    return None


def mutated_attributes(work_ast: ast.AST) -> Set[str]:
    """Names of ``self`` attributes written (or conservatively mutated)."""
    mutated: Set[str] = set()

    class Scanner(ast.NodeVisitor):
        def _target(self, node: ast.expr) -> None:
            attr = _self_attr(node)
            if attr is not None:
                mutated.add(attr)
                return
            if isinstance(node, ast.Subscript):
                attr = _self_attr(node.value)
                if attr is not None:
                    mutated.add(attr)
            if isinstance(node, (ast.Tuple, ast.List)):
                for elt in node.elts:
                    self._target(elt)

        def visit_Assign(self, node: ast.Assign) -> None:
            for target in node.targets:
                self._target(target)
            self.generic_visit(node)

        def visit_AugAssign(self, node: ast.AugAssign) -> None:
            self._target(node.target)
            self.generic_visit(node)

        def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
            if node.target is not None:
                self._target(node.target)
            self.generic_visit(node)

        def visit_Call(self, node: ast.Call) -> None:
            # self.<attr>.<method>(...) mutates <attr> unless it is a
            # channel access (self.input.pop() etc.); portal sends are also
            # conservatively treated as state effects.
            if isinstance(node.func, ast.Attribute):
                owner_attr = _self_attr(node.func.value)
                if owner_attr is not None and owner_attr not in _CHANNEL_ATTRS:
                    mutated.add(owner_attr)
            self.generic_visit(node)

    Scanner().visit(work_ast)
    return mutated


# ---------------------------------------------------------------------------
# The abstract interpreter
# ---------------------------------------------------------------------------


def work_source_ast(filt: Filter) -> ast.FunctionDef:
    """Parse the filter's ``work`` method into a function AST."""
    try:
        fn = function_ast(type(filt).work)
    except SourceUnavailable as exc:
        raise ExtractionError(f"cannot obtain source of {type(filt).__name__}.work: {exc}")
    if not isinstance(fn, ast.FunctionDef):
        raise ExtractionError(f"{type(filt).__name__}.work is not a plain function")
    return fn


class _SelfProxy:
    """Sentinel for the ``self`` name during abstract interpretation."""


class _ChannelProxy:
    """Sentinel for ``self.input`` / ``self.output``."""

    def __init__(self, direction: str) -> None:
        self.direction = direction


class _Analyzer:
    def __init__(self, filt: Filter) -> None:
        self.filt = filt
        self.rate = filt.rate
        self.env: Dict[str, Any] = {"self": _SelfProxy()}
        self.globals = type(filt).work.__globals__
        self.popped = 0
        self.rows: List[Affine] = []
        self.steps = 0
        self.mutated = mutated_attributes(work_source_ast(filt))

    # -- bookkeeping ---------------------------------------------------------

    def _tick(self) -> None:
        self.steps += 1
        if self.steps > _MAX_STEPS:
            raise ExtractionError(
                f"{self.filt.name}: work-function analysis exceeded "
                f"{_MAX_STEPS} steps (unbounded loop?)"
            )

    # -- channel ops ----------------------------------------------------------

    def do_pop(self) -> Affine:
        if self.popped >= self.rate.pop:
            raise ExtractionError(
                f"{self.filt.name}: work pops more than its declared pop "
                f"rate ({self.rate.pop})"
            )
        value = Affine.of_peek(self.popped)
        self.popped += 1
        return value

    def do_peek(self, index: Any) -> Affine:
        if isinstance(index, Affine):
            raise _NotLinear("peek with a data-dependent index")
        if not _is_number(index):
            raise ExtractionError(f"{self.filt.name}: peek index {index!r} is not a number")
        offset = self.popped + int(index)
        if int(index) < 0 or offset >= self.rate.peek:
            raise ExtractionError(
                f"{self.filt.name}: peek({int(index)}) after {self.popped} pops "
                f"exceeds the declared peek rate ({self.rate.peek})"
            )
        return Affine.of_peek(offset)

    def do_push(self, value: Any) -> None:
        if len(self.rows) >= self.rate.push:
            raise ExtractionError(
                f"{self.filt.name}: work pushes more than its declared push "
                f"rate ({self.rate.push})"
            )
        self.rows.append(_to_affine(value))

    # -- statements ------------------------------------------------------------

    def exec_body(self, body: List[ast.stmt]) -> None:
        for stmt in body:
            self.exec_stmt(stmt)

    def exec_stmt(self, stmt: ast.stmt) -> None:
        self._tick()
        if isinstance(stmt, ast.Expr):
            self.eval(stmt.value)
        elif isinstance(stmt, ast.Assign):
            value = self.eval(stmt.value)
            for target in stmt.targets:
                self.assign(target, value)
        elif isinstance(stmt, ast.AugAssign):
            current = self.eval(_load_of(stmt.target))
            value = self.binop(type(stmt.op), current, self.eval(stmt.value))
            self.assign(stmt.target, value)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self.assign(stmt.target, self.eval(stmt.value))
        elif isinstance(stmt, ast.If):
            test = self.eval(stmt.test)
            if isinstance(test, Affine):
                raise _NotLinear("branch on a data-dependent condition")
            self.exec_body(stmt.body if test else stmt.orelse)
        elif isinstance(stmt, ast.For):
            self.exec_for(stmt)
        elif isinstance(stmt, ast.While):
            self.exec_while(stmt)
        elif isinstance(stmt, ast.Break):
            raise _Break()
        elif isinstance(stmt, ast.Continue):
            raise _Continue()
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self.eval(stmt.value)
            raise _Return()
        elif isinstance(stmt, ast.Pass):
            pass
        elif isinstance(stmt, ast.Assert):
            pass  # assertions carry no stream semantics
        else:
            raise _NotLinear(f"unsupported statement {type(stmt).__name__}")

    def exec_for(self, stmt: ast.For) -> None:
        iterable = self.eval(stmt.iter)
        if isinstance(iterable, Affine):
            raise _NotLinear("iteration over a data-dependent value")
        try:
            items = list(iterable)
        except TypeError:
            raise _NotLinear(f"cannot iterate over {iterable!r}")
        broke = False
        for item in items:
            self._tick()
            self.assign(stmt.target, item)
            try:
                self.exec_body(stmt.body)
            except _Break:
                broke = True
                break
            except _Continue:
                continue
        if not broke and stmt.orelse:
            self.exec_body(stmt.orelse)

    def exec_while(self, stmt: ast.While) -> None:
        while True:
            self._tick()
            test = self.eval(stmt.test)
            if isinstance(test, Affine):
                raise _NotLinear("while on a data-dependent condition")
            if not test:
                break
            try:
                self.exec_body(stmt.body)
            except _Break:
                return
            except _Continue:
                continue
        if stmt.orelse:
            self.exec_body(stmt.orelse)

    # -- assignment --------------------------------------------------------------

    def assign(self, target: ast.expr, value: Any) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = value
        elif isinstance(target, (ast.Tuple, ast.List)):
            try:
                values = list(value)
            except TypeError:
                raise _NotLinear(f"cannot unpack {value!r}")
            if len(values) != len(target.elts):
                raise ExtractionError(f"{self.filt.name}: unpacking arity mismatch")
            for elt, item in zip(target.elts, values):
                self.assign(elt, item)
        elif isinstance(target, ast.Subscript):
            container = self.eval(target.value)
            index = self.eval(target.slice)
            if isinstance(index, Affine):
                raise _NotLinear("store with a data-dependent index")
            if isinstance(container, list):
                container[int(index)] = value
            else:
                raise _NotLinear(
                    f"subscript store into {type(container).__name__} "
                    "(only local lists are mutable in work)"
                )
        elif isinstance(target, ast.Attribute):
            raise _NotLinear("work mutates filter state (assignment to self attribute)")
        else:
            raise _NotLinear(f"unsupported assignment target {type(target).__name__}")

    # -- expressions -----------------------------------------------------------

    def eval(self, node: ast.expr) -> Any:
        self._tick()
        if isinstance(node, ast.Constant):
            return node.value
        if isinstance(node, ast.Name):
            if node.id in self.env:
                return self.env[node.id]
            if node.id in self.globals:
                return self.globals[node.id]
            builtins_ns = self.globals.get("__builtins__", {})
            if isinstance(builtins_ns, dict) and node.id in builtins_ns:
                return builtins_ns[node.id]
            if hasattr(builtins_ns, node.id):
                return getattr(builtins_ns, node.id)
            raise ExtractionError(f"{self.filt.name}: unknown name {node.id!r} in work")
        if isinstance(node, ast.Attribute):
            return self.eval_attribute(node)
        if isinstance(node, ast.BinOp):
            return self.binop(type(node.op), self.eval(node.left), self.eval(node.right))
        if isinstance(node, ast.UnaryOp):
            operand = self.eval(node.operand)
            if isinstance(node.op, ast.USub):
                return operand.neg() if isinstance(operand, Affine) else -operand
            if isinstance(node.op, ast.UAdd):
                return operand
            if isinstance(node.op, ast.Not):
                if isinstance(operand, Affine):
                    raise _NotLinear("boolean not of a data-dependent value")
                return not operand
            raise _NotLinear(f"unsupported unary operator {type(node.op).__name__}")
        if isinstance(node, ast.Call):
            return self.eval_call(node)
        if isinstance(node, ast.Subscript):
            return self.eval_subscript(node)
        if isinstance(node, ast.Compare):
            return self.eval_compare(node)
        if isinstance(node, ast.BoolOp):
            values = [self.eval(v) for v in node.values]
            if any(isinstance(v, Affine) for v in values):
                raise _NotLinear("boolean operation on a data-dependent value")
            if isinstance(node.op, ast.And):
                result = values[0]
                for v in values[1:]:
                    result = result and v
                return result
            result = values[0]
            for v in values[1:]:
                result = result or v
            return result
        if isinstance(node, (ast.List, ast.Tuple)):
            items = [self.eval(elt) for elt in node.elts]
            return items if isinstance(node, ast.List) else tuple(items)
        if isinstance(node, ast.IfExp):
            test = self.eval(node.test)
            if isinstance(test, Affine):
                raise _NotLinear("conditional expression on a data-dependent value")
            return self.eval(node.body if test else node.orelse)
        raise _NotLinear(f"unsupported expression {type(node).__name__}")

    def eval_attribute(self, node: ast.Attribute) -> Any:
        value = self.eval(node.value)
        if isinstance(value, _SelfProxy):
            if node.attr in _CHANNEL_ATTRS:
                return _ChannelProxy(node.attr)
            if node.attr in self.mutated:
                raise _NotLinear(
                    f"reads attribute {node.attr!r} that work also mutates (stateful)"
                )
            try:
                return getattr(self.filt, node.attr)
            except AttributeError:
                raise ExtractionError(
                    f"{self.filt.name}: work reads undefined attribute self.{node.attr}"
                )
        if isinstance(value, Affine):
            raise _NotLinear("attribute access on a data-dependent value")
        try:
            return getattr(value, node.attr)
        except AttributeError:
            raise ExtractionError(
                f"{self.filt.name}: no attribute {node.attr!r} on {value!r}"
            )

    def eval_subscript(self, node: ast.Subscript) -> Any:
        container = self.eval(node.value)
        index = self.eval(node.slice)
        if isinstance(container, Affine):
            raise _NotLinear("subscript of a data-dependent value")
        if isinstance(index, Affine):
            raise _NotLinear("subscript with a data-dependent index")
        try:
            return container[index]
        except Exception as exc:
            raise ExtractionError(f"{self.filt.name}: bad subscript in work: {exc}")

    def eval_compare(self, node: ast.Compare) -> Any:
        left = self.eval(node.left)
        for op, comparator in zip(node.ops, node.comparators):
            right = self.eval(comparator)
            if isinstance(left, Affine) or isinstance(right, Affine):
                raise _NotLinear("comparison of a data-dependent value")
            import operator as op_mod

            table = {
                ast.Eq: op_mod.eq,
                ast.NotEq: op_mod.ne,
                ast.Lt: op_mod.lt,
                ast.LtE: op_mod.le,
                ast.Gt: op_mod.gt,
                ast.GtE: op_mod.ge,
                ast.Is: op_mod.is_,
                ast.IsNot: op_mod.is_not,
            }
            fn = table.get(type(op))
            if fn is None:
                if isinstance(op, ast.In):
                    fn = lambda a, b: a in b
                elif isinstance(op, ast.NotIn):
                    fn = lambda a, b: a not in b
                else:
                    raise _NotLinear(f"unsupported comparison {type(op).__name__}")
            if not fn(left, right):
                return False
            left = right
        return True

    def binop(self, op_type: type, left: Any, right: Any) -> Any:
        left_aff = isinstance(left, Affine)
        right_aff = isinstance(right, Affine)
        if not left_aff and not right_aff:
            import operator as op_mod

            table = {
                ast.Add: op_mod.add,
                ast.Sub: op_mod.sub,
                ast.Mult: op_mod.mul,
                ast.Div: op_mod.truediv,
                ast.FloorDiv: op_mod.floordiv,
                ast.Mod: op_mod.mod,
                ast.Pow: op_mod.pow,
                ast.LShift: op_mod.lshift,
                ast.RShift: op_mod.rshift,
                ast.BitAnd: op_mod.and_,
                ast.BitOr: op_mod.or_,
                ast.BitXor: op_mod.xor,
            }
            fn = table.get(op_type)
            if fn is None:
                raise _NotLinear(f"unsupported operator {op_type.__name__}")
            return fn(left, right)
        if op_type is ast.Add:
            return _to_affine(left).add(_to_affine(right))
        if op_type is ast.Sub:
            return _to_affine(left).add(_to_affine(right).neg())
        if op_type is ast.Mult:
            if left_aff and right_aff:
                raise _NotLinear("product of two data-dependent values")
            if left_aff:
                return left.scale(float(right))
            return right.scale(float(left))
        if op_type is ast.Div:
            if right_aff:
                raise _NotLinear("division by a data-dependent value")
            return left.scale(1.0 / float(right))
        raise _NotLinear(
            f"nonlinear operator {op_type.__name__} on a data-dependent value"
        )

    def eval_call(self, node: ast.Call) -> Any:
        func = node.func
        # Channel operations, in either spelling.
        if isinstance(func, ast.Attribute):
            owner = func.value
            method = func.attr
            if _is_self(owner) and method in _CHANNEL_METHODS:
                return self.channel_call(method, node)
            owner_value_is_channel = (
                isinstance(owner, ast.Attribute)
                and _is_self(owner.value)
                and owner.attr in _CHANNEL_ATTRS
            )
            if owner_value_is_channel and method in _CHANNEL_METHODS:
                return self.channel_call(method, node)
            if _is_self(owner) or (isinstance(owner, ast.Attribute) and _is_self(owner.value)):
                raise _NotLinear(f"call to method {method!r} on self (side effects)")
        callee = self.eval(func)
        args = [self.eval(arg) for arg in node.args]
        if node.keywords:
            raise _NotLinear("keyword arguments in work calls")
        if any(isinstance(a, Affine) for a in args):
            raise _NotLinear(
                f"call to {getattr(callee, '__name__', callee)!r} with a "
                "data-dependent argument"
            )
        allowed = (
            range, len, abs, min, max, int, float, bool, round, sum, list, tuple,
            enumerate, zip, reversed, sorted,
        )
        if callee in allowed or getattr(callee, "__module__", None) in ("math", "numpy"):
            try:
                return callee(*args)
            except Exception as exc:
                raise ExtractionError(f"{self.filt.name}: error calling {callee!r}: {exc}")
        if callable(callee) and getattr(callee, "__module__", None) == "builtins":
            raise _NotLinear(f"unsupported builtin call {callee!r}")
        raise _NotLinear(f"call to non-analyzable function {callee!r}")

    def channel_call(self, method: str, node: ast.Call) -> Any:
        if method == "pop":
            if node.args:
                raise ExtractionError(f"{self.filt.name}: pop() takes no arguments")
            return self.do_pop()
        if method == "peek":
            if len(node.args) != 1:
                raise ExtractionError(f"{self.filt.name}: peek() takes one argument")
            return self.do_peek(self.eval(node.args[0]))
        if method == "push":
            if len(node.args) != 1:
                raise ExtractionError(f"{self.filt.name}: push() takes one argument")
            self.do_push(self.eval(node.args[0]))
            return None
        raise ExtractionError(f"unknown channel method {method}")  # pragma: no cover


def _load_of(target: ast.expr) -> ast.expr:
    """Clone an assignment target as a load expression (for AugAssign)."""
    clone = ast.copy_location(ast.parse(ast.unparse(target), mode="eval").body, target)
    return clone


# ---------------------------------------------------------------------------
# Public API
# ---------------------------------------------------------------------------


def try_extract(filt: Filter) -> ExtractionResult:
    """Run linear extraction, reporting the rep or the reason it failed.

    The alias-aware pre-screen from :mod:`repro.analysis.linearity` gates
    the abstract interpreter: it rejects stateful filters *including* ones
    whose writes hide behind local aliases or helper methods (which
    :func:`mutated_attributes`'s purely syntactic scan misses), and keeps
    the interpreter — whose subscript stores can write through an alias
    into a live attribute list — away from instances it could corrupt.
    """
    if filt.rate.pop == 0 or filt.rate.push == 0:
        return ExtractionResult(None, stateful=False, reason="source or sink filter")
    from repro.analysis.linearity import affine_prescreen

    candidate, reason = affine_prescreen(filt)
    if not candidate:
        return ExtractionResult(None, stateful=True, reason=reason)
    fn = work_source_ast(filt)
    analyzer = _Analyzer(filt)
    if analyzer.mutated:
        return ExtractionResult(
            None,
            stateful=True,
            reason=f"stateful: work mutates {sorted(analyzer.mutated)}",
        )
    try:
        try:
            analyzer.exec_body(fn.body)
        except _Return:
            pass
    except _NotLinear as exc:
        return ExtractionResult(None, stateful=False, reason=f"not linear: {exc}")
    except (_Break, _Continue):
        raise ExtractionError(f"{filt.name}: break/continue outside a loop in work")
    if analyzer.popped != filt.rate.pop:
        raise ExtractionError(
            f"{filt.name}: work popped {analyzer.popped} items, declared "
            f"pop={filt.rate.pop}"
        )
    if len(analyzer.rows) != filt.rate.push:
        raise ExtractionError(
            f"{filt.name}: work pushed {len(analyzer.rows)} items, declared "
            f"push={filt.rate.push}"
        )
    peek = filt.rate.peek
    A = np.zeros((filt.rate.push, peek))
    b = np.zeros(filt.rate.push)
    for r, row in enumerate(analyzer.rows):
        for index, coeff in row.coeffs.items():
            A[r, index] = coeff
        b[r] = row.const
    return ExtractionResult(
        LinearRep(A, b, pop=filt.rate.pop), stateful=False, reason="linear"
    )


def extract_linear(filt: Filter) -> Optional[LinearRep]:
    """The paper's linear extraction: the filter's rep, or None."""
    return try_extract(filt).rep


def is_stateful(filt: Filter) -> bool:
    """True if the filter's work function mutates instance state.

    Stateless filters can be fissed (data-parallelized); stateful ones
    cannot.  Peeking does not make a filter stateful, but fissing a peeking
    filter requires duplication (see :mod:`repro.transforms.fission`).
    """
    try:
        fn = work_source_ast(filt)
    except ExtractionError:
        return True  # conservatively stateful if unanalyzable
    return bool(mutated_attributes(fn))
