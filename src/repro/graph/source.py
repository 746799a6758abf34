"""The one source -> AST provider for filter methods.

Every pass that reads a ``work()`` body — the effects and rate analyses,
the work estimator, linear extraction, the codegen emitter — gets its tree
from :func:`function_ast`, so a function's source is fetched and parsed
once per process however many filter instances share it.

The returned tree is **shared and read-only**: a consumer that rewrites
nodes takes a ``copy.deepcopy`` first.
"""

from __future__ import annotations

import ast
import inspect
import textwrap
import weakref

__all__ = ["SourceUnavailable", "function_ast"]


class SourceUnavailable(Exception):
    """The method's source text cannot be recovered (C ext, exec, REPL)."""


#: unwrapped function object -> its parsed definition.  Keyed on the function
#: (not on ``(cls, name)``), so re-assigning ``cls.work`` misses; weak, so a
#: function defined inside a test dies with its class.  Failures are not
#: stored: a later call retries (and raises again).
_ASTS: "weakref.WeakKeyDictionary[object, ast.FunctionDef]" = (
    weakref.WeakKeyDictionary()
)


def function_ast(fn) -> ast.FunctionDef:
    """The shared ``FunctionDef`` of ``fn`` (raises :class:`SourceUnavailable`).

    Decorator wrappers are looked through (``inspect.unwrap``).  Do not
    mutate the result — ``copy.deepcopy`` it before rewriting.
    """
    fn = inspect.unwrap(fn)
    try:
        return _ASTS[fn]
    except KeyError:
        pass
    except TypeError as exc:  # not weak-referenceable: a C method, no source
        raise SourceUnavailable(str(exc))
    try:
        source = textwrap.dedent(inspect.getsource(fn))
        node = ast.parse(source).body[0]
    except (OSError, TypeError, SyntaxError, IndexError) as exc:
        raise SourceUnavailable(str(exc))
    if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        raise SourceUnavailable("not a plain function definition")
    _ASTS[fn] = node
    return node
