"""Static work estimation: cycles per work-function invocation.

The StreamIt compiler drives partitioning and load balancing with a static
estimate of each filter's work per firing.  We reproduce that role with a
deterministic AST cost walk over the filter's ``work`` function:

* arithmetic / comparison operators cost 1 unit (one issue slot on the
  modeled single-issue core), transcendental calls cost
  ``TRANSCENDENTAL_COST``,
* channel operations (``pop``/``peek``/``push``) cost 1 unit each,
* ``for range(...)`` loops are scaled by their trip count when the bounds
  resolve to compile-time constants (literals, instance attributes,
  ``len`` of instance sequences); otherwise a default trip count is
  assumed,
* ``if`` branches cost the maximum of their arms (worst case, as a static
  scheduler must assume).

Estimates are cached per filter *class + rate signature* since the walk is
pure.
"""

from __future__ import annotations

import ast
from typing import Any, Dict, Optional

import numpy as np

from repro.graph.base import Filter
from repro.graph.flatgraph import FILTER, FlatGraph, FlatNode
from repro.graph.source import SourceUnavailable, function_ast

#: Assumed trip count when a loop bound is not statically resolvable.
DEFAULT_TRIP = 8

#: Cost of transcendental / library math calls (sin, cos, exp, sqrt, ...).
TRANSCENDENTAL_COST = 16

#: Cost charged per item moved by a splitter or joiner firing.
ITEM_MOVE_COST = 1

_cache: Dict[Any, float] = {}


class _ConstEval:
    """Best-effort constant evaluation against a filter instance."""

    def __init__(self, filt: Filter) -> None:
        self.filt = filt
        self.globals = type(filt).work.__globals__

    def eval(self, node: ast.expr, env: Dict[str, Any]) -> Optional[Any]:
        try:
            return self._eval(node, env)
        except Exception:
            return None

    def _eval(self, node: ast.expr, env: Dict[str, Any]) -> Any:
        if isinstance(node, ast.Constant):
            return node.value
        if isinstance(node, ast.Name):
            if node.id in env:
                return env[node.id]
            if node.id in self.globals:
                return self.globals[node.id]
            raise ValueError(node.id)
        if isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) and node.value.id == "self":
                return getattr(self.filt, node.attr)
            base = self._eval(node.value, env)
            return getattr(base, node.attr)
        if isinstance(node, ast.BinOp):
            left = self._eval(node.left, env)
            right = self._eval(node.right, env)
            ops = {
                ast.Add: lambda a, b: a + b,
                ast.Sub: lambda a, b: a - b,
                ast.Mult: lambda a, b: a * b,
                ast.Div: lambda a, b: a / b,
                ast.FloorDiv: lambda a, b: a // b,
                ast.Mod: lambda a, b: a % b,
                ast.Pow: lambda a, b: a**b,
            }
            return ops[type(node.op)](left, right)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            return -self._eval(node.operand, env)
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and node.func.id == "len":
                return len(self._eval(node.args[0], env))
            if isinstance(node.func, ast.Name) and node.func.id in ("int", "min", "max", "abs"):
                fn = {"int": int, "min": min, "max": max, "abs": abs}[node.func.id]
                return fn(*[self._eval(a, env) for a in node.args])
            raise ValueError("call")
        raise ValueError(type(node).__name__)


class _CostWalker:
    def __init__(self, filt: Filter) -> None:
        self.filt = filt
        self.const = _ConstEval(filt)

    def body_cost(self, body, env: Dict[str, Any]) -> float:
        return sum(self.stmt_cost(stmt, env) for stmt in body)

    def stmt_cost(self, stmt: ast.stmt, env: Dict[str, Any]) -> float:
        if isinstance(stmt, ast.Expr):
            return self.expr_cost(stmt.value, env)
        if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            value = getattr(stmt, "value", None)
            return 1 + (self.expr_cost(value, env) if value is not None else 0)
        if isinstance(stmt, ast.AugAssign):
            return 2 + self.expr_cost(stmt.value, env)
        if isinstance(stmt, ast.If):
            test = self.expr_cost(stmt.test, env)
            return test + max(
                self.body_cost(stmt.body, env),
                self.body_cost(stmt.orelse, env) if stmt.orelse else 0,
            )
        if isinstance(stmt, ast.For):
            return self.for_cost(stmt, env)
        if isinstance(stmt, ast.While):
            return DEFAULT_TRIP * (
                self.expr_cost(stmt.test, env) + self.body_cost(stmt.body, env)
            )
        if isinstance(stmt, ast.Return):
            return self.expr_cost(stmt.value, env) if stmt.value is not None else 0
        if isinstance(stmt, (ast.Break, ast.Continue, ast.Pass)):
            return 0
        return 1

    def for_cost(self, stmt: ast.For, env: Dict[str, Any]) -> float:
        trips = DEFAULT_TRIP
        if (
            isinstance(stmt.iter, ast.Call)
            and isinstance(stmt.iter.func, ast.Name)
            and stmt.iter.func.id == "range"
        ):
            args = [self.const.eval(a, env) for a in stmt.iter.args]
            if all(a is not None for a in args):
                try:
                    trips = len(range(*[int(a) for a in args]))
                except (TypeError, ValueError):
                    trips = DEFAULT_TRIP
        else:
            iterable = self.const.eval(stmt.iter, env)
            if iterable is not None:
                try:
                    trips = len(iterable)
                except TypeError:
                    trips = DEFAULT_TRIP
        # Loop overhead of 1 per iteration plus the body.
        body = self.body_cost(stmt.body, env)
        return trips * (1 + body)

    def expr_cost(self, node: ast.expr, env: Dict[str, Any]) -> float:
        if node is None:
            return 0
        if isinstance(node, (ast.Constant, ast.Name)):
            return 0
        if isinstance(node, ast.Attribute):
            return self.expr_cost(node.value, env)
        if isinstance(node, ast.BinOp):
            return 1 + self.expr_cost(node.left, env) + self.expr_cost(node.right, env)
        if isinstance(node, ast.UnaryOp):
            return 1 + self.expr_cost(node.operand, env)
        if isinstance(node, ast.BoolOp):
            return len(node.values) - 1 + sum(self.expr_cost(v, env) for v in node.values)
        if isinstance(node, ast.Compare):
            return (
                len(node.ops)
                + self.expr_cost(node.left, env)
                + sum(self.expr_cost(c, env) for c in node.comparators)
            )
        if isinstance(node, ast.Subscript):
            return 1 + self.expr_cost(node.value, env) + self.expr_cost(node.slice, env)
        if isinstance(node, ast.Call):
            return self.call_cost(node, env)
        if isinstance(node, (ast.Tuple, ast.List)):
            return sum(self.expr_cost(e, env) for e in node.elts)
        if isinstance(node, ast.IfExp):
            return (
                self.expr_cost(node.test, env)
                + max(self.expr_cost(node.body, env), self.expr_cost(node.orelse, env))
            )
        return 1

    def call_cost(self, node: ast.Call, env: Dict[str, Any]) -> float:
        args = sum(self.expr_cost(a, env) for a in node.args)
        name = None
        if isinstance(node.func, ast.Attribute):
            name = node.func.attr
        elif isinstance(node.func, ast.Name):
            name = node.func.id
        if name in ("pop", "peek", "push"):
            return 1 + args
        transcendental = {
            "sin", "cos", "tan", "exp", "log", "log2", "log10", "sqrt",
            "atan", "atan2", "asin", "acos", "sinh", "cosh", "tanh", "pow",
            "hypot", "floor", "ceil",
        }
        if name in transcendental:
            return TRANSCENDENTAL_COST + args
        return 2 + args


def work_per_firing(filt: Filter) -> float:
    """Estimated cycles per invocation of the filter's work function."""
    key = (type(filt), filt.rate, _state_signature(filt))
    cached = _cache.get(key)
    if cached is not None:
        return cached
    try:
        fn = function_ast(type(filt).work)
        cost = _CostWalker(filt).body_cost(fn.body, {})
    except SourceUnavailable:
        # Fall back to a rate-proportional estimate for unanalyzable work.
        cost = 2.0 * (filt.rate.peek + filt.rate.push) + 4.0
    cost = max(cost, 1.0)
    _cache[key] = cost
    return cost


def _state_signature(filt: Filter) -> tuple:
    """Attributes that influence loop trip counts, for cache keying."""
    items = []
    for attr, value in sorted(vars(filt).items()):
        if isinstance(value, (int, float)):
            items.append((attr, value))
        elif isinstance(value, (tuple, list, np.ndarray)):
            items.append((attr, len(value)))
    return tuple(items)


def node_work(node: FlatNode) -> float:
    """Estimated cycles for one firing of any flat node."""
    if node.kind == FILTER:
        return work_per_firing(node.filter)
    moved = node.total_pop + node.total_push
    return ITEM_MOVE_COST * moved


def steady_state_work(graph: FlatGraph, reps: Dict[FlatNode, int]) -> Dict[FlatNode, float]:
    """Per-node work for one steady-state period."""
    return {node: node_work(node) * reps[node] for node in graph.nodes}
