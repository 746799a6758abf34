"""Steady-state repetitions: the SDF balance equations.

For every channel ``src -> dst`` with per-firing production ``u`` and
consumption ``o``, a periodic (steady-state) schedule must fire the nodes
``r_src``/``r_dst`` times with ``r_src * u == r_dst * o``, so that channel
occupancy is unchanged over a period.  The minimal positive integer solution
is the *repetitions vector*.

The solver propagates exact rational rates over the edge constraints —
gcd-reduced ``(numerator, denominator)`` integer pairs, which cost a
fraction of :class:`fractions.Fraction` arithmetic — and scales to the
least integer solution, raising :class:`SchedulingError` on
inconsistent rates (a graph with no periodic schedule — e.g. a mis-weighted
split-join).
"""

from __future__ import annotations

from math import gcd, lcm
from typing import Dict, List, Tuple

from repro.errors import SchedulingError
from repro.graph.flatgraph import FlatGraph, FlatNode


def repetitions(graph: FlatGraph) -> Dict[FlatNode, int]:
    """Compute the minimal steady-state repetitions vector.

    Zero-rate edges impose no constraint.  If the nonzero-rate constraint
    graph is disconnected, each connected component is normalized
    independently (components exchange no data, so their relative rates are
    arbitrary; minimality per component is the canonical choice).
    """
    rate: Dict[FlatNode, Tuple[int, int]] = {}
    components: List[List[FlatNode]] = []

    for start in graph.nodes:
        if start in rate:
            continue
        rate[start] = (1, 1)
        component = [start]
        stack = [start]
        while stack:
            node = stack.pop()
            num, den = rate[node]
            for edge in node.in_edges + node.out_edges:
                if edge.push_rate == 0 or edge.pop_rate == 0:
                    continue
                if edge.src is node:
                    other = edge.dst
                    top, bottom = num * edge.push_rate, den * edge.pop_rate
                else:
                    other = edge.src
                    top, bottom = num * edge.pop_rate, den * edge.push_rate
                g = gcd(top, bottom)
                implied = (top // g, bottom // g)
                if other in rate:
                    if rate[other] != implied:
                        raise SchedulingError(
                            f"inconsistent stream rates at {edge.src.name} -> "
                            f"{edge.dst.name}: no periodic schedule exists "
                            f"(expected rate {_text(implied)}, got {_text(rate[other])})"
                        )
                else:
                    rate[other] = implied
                    component.append(other)
                    stack.append(other)
        components.append(component)

    result: Dict[FlatNode, int] = {}
    for component in components:
        denom_lcm = lcm(*(rate[n][1] for n in component))
        ints = [rate[n][0] * (denom_lcm // rate[n][1]) for n in component]
        g = gcd(*ints) if len(ints) > 1 else ints[0]
        for node, value in zip(component, ints):
            result[node] = value // g
    return result


def _text(ratio: Tuple[int, int]) -> str:
    """A rate as :class:`fractions.Fraction` prints it."""
    num, den = ratio
    return str(num) if den == 1 else f"{num}/{den}"


def steady_state_items(graph: FlatGraph, reps: Dict[FlatNode, int]) -> Dict[object, int]:
    """Items flowing over each edge during one steady-state period."""
    return {edge: reps[edge.src] * edge.push_rate for edge in graph.edges}
