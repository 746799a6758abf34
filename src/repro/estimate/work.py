"""Static work estimation: cycles per work-function invocation.

The StreamIt compiler drives partitioning and load balancing with a static
estimate of each filter's work per firing.  Ours is the cost table the
symbolic executor charges as it runs ``work()`` (``RateReport.work``; the
table is in :mod:`repro.analysis.executor`), read through
:func:`analyze_rates` and its memo.
"""

from __future__ import annotations

from typing import Dict

from repro.analysis.rates import BUDGET_EXCEEDED, analyze_rates
from repro.graph.base import Filter
from repro.graph.flatgraph import FILTER, FlatGraph, FlatNode

#: Cost charged per item moved by a splitter or joiner firing.
ITEM_MOVE_COST = 1


def work_per_firing(filt: Filter) -> float:
    """Estimated cycles per invocation of the filter's work function."""
    report = analyze_rates(filt)
    cost = report.work
    if cost is None or BUDGET_EXCEEDED in report.dynamic:
        # Source unavailable, or a run that gave up (its charge is a lower
        # bound): at least a rate-proportional estimate.
        cost = max(cost or 0.0, 2.0 * (filt.rate.peek + filt.rate.push) + 4.0)
    return max(cost, 1.0)


def node_work(node: FlatNode) -> float:
    """Estimated cycles for one firing of any flat node."""
    if node.kind == FILTER:
        return work_per_firing(node.filter)
    moved = node.total_pop + node.total_push
    return ITEM_MOVE_COST * moved


def steady_state_work(graph: FlatGraph, reps: Dict[FlatNode, int]) -> Dict[FlatNode, float]:
    """Per-node work for one steady-state period."""
    return {node: node_work(node) * reps[node] for node in graph.nodes}
