"""The one source -> AST provider for filter methods.

Every pass that reads a ``work()`` body — the effects and rate analyses,
the work estimator, linear extraction, the codegen emitter — gets its tree
from :func:`function_ast`, so a function's source is fetched and parsed
once per process however many filter instances share it.

The returned tree is **shared and read-only**: a consumer that rewrites
nodes takes a ``copy.deepcopy`` first.

The text is read through :mod:`linecache`, from the function's code
object: no tokenizer pass over the file (``inspect.getsource``'s) finds
where the definition ends, except for a layout that line span misses (a
decorated or multi-line ``def`` whose body holds no instruction).
"""

from __future__ import annotations

import ast
import inspect
import linecache
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
        try:
            node = ast.parse(_definition_text(fn)).body[0]
        except SyntaxError:  # the span stopped short of the body
            node = ast.parse(textwrap.dedent(inspect.getsource(fn))).body[0]
    except (OSError, TypeError, AttributeError, SyntaxError, IndexError) as exc:
        raise SourceUnavailable(str(exc))
    if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        raise SourceUnavailable("not a plain function definition")
    _ASTS[fn] = node
    return node


def _indent(line: str) -> int:
    return len(line) - len(line.lstrip())


def _definition_text(fn) -> str:
    """``fn``'s definition, decorators included: its file's lines from the
    code's first line to the last one an instruction starts on, then on over
    the blank lines and the lines indented deeper than the ``def`` — the
    body's end may hold no instruction (a docstring-only body, a trailing
    ``pass``)."""
    code = fn.__code__
    linecache.checkcache(code.co_filename)  # the file may have changed since
    lines = linecache.getlines(code.co_filename, fn.__globals__)
    first = code.co_firstlineno - 1
    if not 0 <= first < len(lines):
        raise OSError(f"no source lines for {code.co_filename}")
    end = max((line for _, _, line in code.co_lines() if line is not None), default=first)
    end = max(end, first + 1)
    indent = _indent(lines[first])
    while end < len(lines) and (not lines[end].strip() or _indent(lines[end]) > indent):
        end += 1
    return textwrap.dedent("".join(lines[first:end]))
