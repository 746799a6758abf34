"""Structural semantic checks — the paper's "StreaMIT restrictions".

Most restrictions are enforced at construction time (static rates, weight
arity, single use of each stream instance, non-NULL feedback split/join).
:func:`validate` performs the whole-graph checks that need the flattened
form — including the static ``work()`` analysis from
:mod:`repro.analysis`, which promotes rate mismatches and out-of-bounds
peeks from runtime channel underflows to build-time errors — and returns
the flat graph so callers can reuse it.
"""

from __future__ import annotations

import warnings
from collections import Counter
from typing import List

from repro.errors import ValidationError
from repro.graph.base import Filter, Stream
from repro.graph.flatgraph import FILTER, FlatGraph, flatten


def validate(stream: Stream) -> FlatGraph:
    """Check all whole-graph semantic restrictions; return the flat graph.

    Raises :class:`ValidationError` on the first violation found.  Definite
    static-analysis errors (declared-rate mismatches proven from the
    ``work()`` AST, out-of-bounds peeks, unsound ``stateless=True`` claims)
    are violations; analysis *warnings* — genuinely unanalyzable filters —
    never block a build.
    """
    _check_unique_instances(stream)
    graph = flatten(stream)
    _check_rate_invariants(graph)
    _check_edge_rates(graph)
    _check_work_declared(graph)
    _check_static_semantics(graph)
    # Cycle sanity: topological_order raises if a zero-delay cycle exists.
    graph.topological_order()
    return graph


def _check_unique_instances(stream: Stream) -> None:
    counts = Counter(s.uid for s in stream.streams())
    dupes = [uid for uid, c in counts.items() if c > 1]
    if dupes:
        names = [s.name for s in stream.streams() if s.uid in dupes]
        raise ValidationError(
            f"stream instances appear more than once in the graph: {sorted(set(names))}"
        )


def _check_rate_invariants(graph: FlatGraph) -> None:
    """Declared rates must be sane: non-negative ints with peek >= pop."""
    for node in graph.filter_nodes():
        filt = node.filter
        rate = filt.rate
        for field_name in ("peek", "pop", "push"):
            value = getattr(rate, field_name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                raise ValidationError(
                    f"filter {filt.name!r} ({type(filt).__name__}) declares an "
                    f"illegal {field_name} rate {value!r}: rates must be "
                    f"non-negative integers"
                )
        if rate.peek < rate.pop:
            raise ValidationError(
                f"filter {filt.name!r} ({type(filt).__name__}) declares "
                f"peek={rate.peek} < pop={rate.pop}: a filter must be able to "
                f"inspect every item it consumes"
            )


def _check_edge_rates(graph: FlatGraph) -> None:
    for edge in graph.edges:
        if edge.push_rate == 0 and edge.pop_rate > 0 and not edge.initial:
            raise ValidationError(
                f"channel {edge.src.name!r} -> {edge.dst.name!r} is starved: "
                f"producer {edge.src.name!r} declares push=0 per firing but "
                f"consumer {edge.dst.name!r} declares pop={edge.pop_rate}"
            )
        if edge.push_rate > 0 and edge.pop_rate == 0:
            raise ValidationError(
                f"channel {edge.src.name!r} -> {edge.dst.name!r} overflows: "
                f"producer {edge.src.name!r} declares push={edge.push_rate} "
                f"per firing but consumer {edge.dst.name!r} never pops"
            )


def _check_work_declared(graph: FlatGraph) -> None:
    for node in graph.nodes:
        if node.kind != FILTER:
            continue
        filt = node.filter
        if type(filt).work is Filter.work:
            raise ValidationError(
                f"filter {filt.name!r} ({type(filt).__name__}) does not "
                f"implement work()"
            )


def _check_static_semantics(graph: FlatGraph) -> None:
    """Run the static work() analysis; raise on definite errors.

    Suppressed diagnostics (``lint_suppress``) never raise.  An internal
    analyzer failure is reported as a ``RuntimeWarning``, not hidden —
    validation must not be less reliable than the analyses it hosts.
    """
    from repro.analysis import analyze_graph

    try:
        bag = analyze_graph(graph)
    except Exception as exc:
        warnings.warn(
            f"static analysis failed during validate(): {type(exc).__name__}: {exc}",
            RuntimeWarning,
            stacklevel=3,
        )
        return
    errors = bag.errors()
    if errors:
        details = "\n  ".join(d.format() for d in errors)
        raise ValidationError(
            f"static analysis found {len(errors)} error(s):\n  {details}"
        )
