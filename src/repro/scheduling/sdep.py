"""Information wavefronts: the ``max``/``min`` tape transfer functions.

For tapes ``a`` upstream of ``b`` the paper defines:

* ``max[a->b](x)`` — the maximum number of items that can appear on tape
  ``b`` given that ``x`` items (ever) appear on tape ``a``;
* ``min[a->b](x)`` — the minimum number of items that must appear on tape
  ``a`` for ``x`` items to appear on tape ``b``.

These compose over pipelines (Equation "compose" in the paper)::

    max[x->z] = max[y->z] . max[x->y]
    min[x->z] = min[x->y] . min[y->z]

This module provides both:

1. **Closed forms** — exact formulas for filters (the paper's expressions)
   and for splitters/joiners, plus composition.  One deliberate deviation:
   the paper's split/join formulas are written at *item* granularity, but
   (like the StreamIt compiler's schedulers) we treat a splitter/joiner
   firing as an atomic *cycle* — a round-robin splitter with weights ``w``
   consumes ``sum(w)`` items and distributes them in one step.  The closed
   forms here use cycle granularity so that they agree exactly with the
   execution model and with the simulation oracle.

2. A **simulation oracle** (:class:`WavefrontOracle`) — computes
   ``max``/``min`` for *any* pair of tapes in any graph (including the
   weighted round-robin and feedback cases the paper leaves open) by
   demand-driven abstract execution over channel occupancies.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, floor
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import SchedulingError
from repro.graph.flatgraph import FILTER, FlatEdge, FlatGraph, FlatNode
from repro.graph.splitjoin import DUPLICATE

# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TransferFunction:
    """A pair of ``max``/``min`` maps across one graph region.

    ``max_fn(x)``: most items producible downstream given ``x`` upstream.
    ``min_fn(x)``: fewest items needed upstream for ``x`` downstream.
    Both are monotone non-decreasing over non-negative integers.
    """

    max_fn: Callable[[int], int]
    min_fn: Callable[[int], int]

    def max(self, x: int) -> int:
        return self.max_fn(x)

    def min(self, x: int) -> int:
        return self.min_fn(x)

    def then(self, downstream: "TransferFunction") -> "TransferFunction":
        """Sequential composition: ``self`` feeding into ``downstream``.

        Implements the paper's composition law:
        ``max = max_down . max_up`` and ``min = min_up . min_down``.
        """
        up, down = self, downstream
        return TransferFunction(
            max_fn=lambda x: down.max_fn(up.max_fn(x)),
            min_fn=lambda x: up.min_fn(down.min_fn(x)),
        )


def identity_tf() -> TransferFunction:
    """The transfer function of a wire (or Identity filter chain)."""
    return TransferFunction(lambda x: x, lambda x: x)


def filter_tf(peek: int, pop: int, push: int) -> TransferFunction:
    """The paper's closed forms for a single filter.

    ``max(x) = push * floor((x - (peek-pop)) / pop)`` for ``x >= peek-pop``
    (else 0), and ``min(x) = ceil(x / push) * pop + (peek - pop)``.

    Note the paper's ``min`` formula yields ``peek - pop`` at ``x == 0``;
    we follow the operational reading (0 items are needed to produce 0
    items) and return 0 there, which matches the oracle.
    """
    if pop <= 0 or push <= 0:
        raise SchedulingError("filter transfer functions require pop > 0 and push > 0")
    extra = peek - pop

    def max_fn(x: int) -> int:
        if x < extra:
            return 0
        return push * ((x - extra) // pop)

    def min_fn(x: int) -> int:
        if x <= 0:
            return 0
        return ceil(x / push) * pop + extra

    return TransferFunction(max_fn, min_fn)


def splitter_branch_tf(weights: Sequence[int], branch: int, duplicate: bool = False) -> TransferFunction:
    """Transfer function from a splitter's input to one output branch.

    Cycle granularity: one splitter firing consumes ``sum(weights)`` items
    (1 for duplicate) and pushes ``weights[branch]`` to the branch (1 for
    duplicate).
    """
    if duplicate:
        return identity_tf()
    w = tuple(weights)
    total = sum(w)
    wi = w[branch]
    if wi == 0:
        return TransferFunction(lambda x: 0, lambda x: 0 if x <= 0 else _INFEASIBLE)

    def max_fn(x: int) -> int:
        return (x // total) * wi

    def min_fn(x: int) -> int:
        if x <= 0:
            return 0
        return ceil(x / wi) * total

    return TransferFunction(max_fn, min_fn)


def joiner_branch_tf(weights: Sequence[int], branch: int, combine: bool = False) -> TransferFunction:
    """Transfer function from one joiner input branch to the joiner output.

    Cycle granularity: one joiner firing pops ``weights[branch]`` from the
    branch (1 for combine) and pushes ``sum(weights)`` items (1 for
    combine).  ``max`` here answers: with ``x`` items on *this* branch and
    unbounded items on the others, how many items can the joiner output?
    """
    if combine:
        return identity_tf()
    w = tuple(weights)
    total = sum(w)
    wi = w[branch]
    if wi == 0:
        return TransferFunction(lambda x: _INFEASIBLE, lambda x: 0)

    def max_fn(x: int) -> int:
        return (x // wi) * total

    def min_fn(x: int) -> int:
        if x <= 0:
            return 0
        return ceil(x / total) * wi

    return TransferFunction(max_fn, min_fn)


#: Sentinel for "no finite number of items suffices" (zero-weight branches).
_INFEASIBLE = 10**18


# ---------------------------------------------------------------------------
# Simulation oracle
# ---------------------------------------------------------------------------


class WavefrontOracle:
    """Computes ``max``/``min`` between arbitrary tapes by simulation.

    The oracle runs a demand-driven abstract execution over channel
    occupancies: to grow tape ``b`` it repeatedly tries to fire ``b``'s
    producer, recursively pulling items from upstream.  The producer of the
    seeded tape ``a`` is frozen, so ``a``'s content is exactly the given
    ``x``; all true sources fire on demand without bound.

    Initial delay items on tapes count toward their item totals, mirroring
    how :class:`~repro.runtime.channel.Channel` counts ``n(t)``.
    """

    def __init__(self, graph: FlatGraph, max_firings: int = 10_000_000) -> None:
        self.graph = graph
        self.max_firings = max_firings
        self._reach: Dict[FlatNode, frozenset] = {}
        self._max_cache: Dict[Tuple[int, int, int], int] = {}
        #: (id(a), id(b)) -> max[a->b] from 0 up, and the simulation state
        #: that extends it (:meth:`_table`).
        self._tables: Dict[Tuple[int, int], tuple] = {}
        self._min_cache: Dict[Tuple[int, int, int], int] = {}
        self._reps: Optional[Dict[FlatNode, int]] = None
        #: node -> its (edge, peek, pop, producer) inputs and (edge, push)
        #: outputs.
        self._rates: Dict[FlatNode, tuple] = {}

    def _period_items(self, tape: FlatEdge) -> Optional[int]:
        """Items pushed onto ``tape`` per steady-state period.

        Returns None for graphs with no periodic schedule (rate-imbalanced
        programs under verification) — callers then skip the periodic
        reduction and compute directly.
        """
        if self._reps is None:
            from repro.scheduling.rates import repetitions

            try:
                self._reps = repetitions(self.graph)
            except SchedulingError:
                self._reps = {}
        if not self._reps:
            return None
        return self._reps[tape.src] * tape.push_rate

    # -- reachability --------------------------------------------------------

    def downstream_nodes(self, node: FlatNode) -> frozenset:
        """All nodes reachable from ``node`` along data-flow edges."""
        cached = self._reach.get(node)
        if cached is not None:
            return cached
        seen = set()
        stack = [node]
        while stack:
            cur = stack.pop()
            for edge in cur.out_edges:
                if edge.dst not in seen:
                    seen.add(edge.dst)
                    stack.append(edge.dst)
        result = frozenset(seen)
        self._reach[node] = result
        return result

    def is_upstream(self, a: FlatEdge, b: FlatEdge) -> bool:
        """True if tape ``a`` is upstream of tape ``b``."""
        return a is b or b.src in self.downstream_nodes(a.dst) or b.src is a.dst

    # -- max -----------------------------------------------------------------

    def max_items(self, a: FlatEdge, b: FlatEdge, x: int) -> int:
        """``max[a->b](x)``: most items ever on ``b`` given ``x`` ever on ``a``.

        ``x`` counts all items on ``a`` including any initial delay items.
        SDF steady-state periodicity makes the function affine beyond a
        short transient — ``max(x + k·P_a) = max(x) + k·P_b`` — which the
        oracle exploits to answer large-``x`` queries (e.g. message
        thresholds deep into a run) in O(1).  Below the transient it reads
        the pair's table where a ``min`` query has built it (:meth:`_table`)
        and otherwise simulates ``x`` once (one query needs no table); so
        does a negative ``x`` (a latency-0 send) or a graph with no
        periodic schedule.
        """
        if a is b:
            return x
        if not self.is_upstream(a, b):
            raise SchedulingError(
                f"max[a->b] undefined: {a!r} is not upstream of {b!r}"
            )
        p_a = self._period_items(a)
        p_b = self._period_items(b)
        periods = 0
        if x >= 0 and p_a is not None and p_b is not None:
            transient = 8 * p_a + len(a.initial) + 64
            if x > transient:
                periods = (x - transient + p_a - 1) // p_a
            x -= periods * p_a
            entry = self._tables.get((id(a), id(b)))
            if entry is not None and x < len(entry[0]):
                return entry[0][x] + periods * p_b
        key = (id(a), id(b), x)
        value = self._max_cache.get(key)
        if value is None:
            value = self._max_cache[key] = self._max_items_direct(a, b, x)
        return value + periods * p_b if periods else value

    def _table(self, a: FlatEdge, b: FlatEdge, top: int, until: int) -> List[int]:
        """``[max[a->b](x) for x in 0..]``, tabulated once per pair, as far
        as ``top`` or the first entry reaching ``until``, whichever is first.

        One incremental pull simulation: ``a``'s producer frozen, ``b``'s
        producer fired as often as the items on ``a`` allow, then one more
        item put on ``a`` and the pull resumed.  Firing rules are monotone
        (more input never disables a firing), so the state reached with
        ``x`` items is one the run with ``x + 1`` passes through, and
        resuming from it gives what a fresh simulation would.  The state is
        kept with the table, so a later query extends it.
        """
        key = (id(a), id(b))
        entry = self._tables.get(key)
        if entry is None:
            occ: Dict[FlatEdge, int] = {e: len(e.initial) for e in self.graph.edges}
            occ[a] = -1  # the first step below puts it at 0
            pull = self._puller(occ, a.src)
            entry = self._tables[key] = ([], occ, [len(b.initial)], pull)
        table, occ, produced, pull = entry
        producer, push = b.src, b.push_rate
        while len(table) <= top and (not table or table[-1] < until):
            occ[a] += 1
            # Below its peek rate, ``a`` enables nothing new: the last
            # pull would fail again exactly where it failed.
            if occ[a] >= a.peek_rate or not table:
                while pull(producer):
                    produced[0] += push
            table.append(produced[0])
        return table

    def _max_items_direct(self, a: FlatEdge, b: FlatEdge, x: int) -> int:
        occ: Dict[FlatEdge, int] = {e: len(e.initial) for e in self.graph.edges}
        occ[a] = x
        produced_on_b = len(b.initial)
        pull = self._puller(occ, a.src)
        # Fire b's producer as many times as possible.
        while pull(b.src):
            produced_on_b += b.push_rate
        return produced_on_b

    def _puller(self, occ: Dict[FlatEdge, int], frozen: FlatNode) -> Callable[[FlatNode], bool]:
        """``pull(node)``: fire ``node`` once over the occupancies ``occ``,
        pulling its inputs recursively, or say False where it cannot
        (``frozen`` never fires); one firing budget across every pull."""
        rates = self._rates
        budget = [self.max_firings]
        visiting: set = set()

        def pull(node: FlatNode) -> bool:
            if node is frozen or node in visiting:
                return False
            if budget[0] <= 0:
                raise SchedulingError("wavefront oracle exceeded firing budget")
            rate = rates.get(node)
            if rate is None:
                rate = rates[node] = (
                    [(e, e.peek_rate, e.pop_rate, e.src) for e in node.in_edges],
                    [(e, e.push_rate) for e in node.out_edges],
                )
            ins, outs = rate
            visiting.add(node)
            try:
                for edge, needed, _pop, src in ins:
                    while occ[edge] < needed:
                        if not pull(src):
                            return False
            finally:
                visiting.discard(node)
            budget[0] -= 1
            for edge, _needed, pop, _src in ins:
                occ[edge] -= pop
            for edge, push in outs:
                occ[edge] += push
            return True

        return pull

    # -- min -----------------------------------------------------------------

    def min_items(self, a: FlatEdge, b: FlatEdge, x: int) -> int:
        """``min[a->b](x)``: fewest items on ``a`` so ``x`` can appear on ``b``.

        The least ``y`` with ``max[a->b](y) >= x`` (both counts include
        initial delay items).  On a periodic graph that is a search of the
        pair's table below the transient, and past it the period ``k`` that
        first reaches ``x`` and a search of the table's last period; on any
        other graph, an exponential + binary search over ``max``.
        """
        if a is b:
            return x
        if x <= len(b.initial):
            return 0
        key = (id(a), id(b), x)
        cached = self._min_cache.get(key)
        if cached is not None:
            return cached
        p_a = self._period_items(a)
        p_b = self._period_items(b)
        if p_a is not None and p_b is not None:
            transient = 8 * p_b + len(b.initial) + 64
            if x > transient:
                periods = (x - transient + p_b - 1) // p_b
                value = self.min_items(a, b, x - periods * p_b) + periods * p_a
                self._min_cache[key] = value
                return value
            value = self._min_tabled(a, b, x, p_a, p_b)
            self._min_cache[key] = value
            return value
        lo, hi = 0, max(1, len(a.initial))
        while self.max_items(a, b, hi) < x:
            hi *= 2
            if hi > 10**12:
                raise self._infeasible(a, b, x)
        while lo < hi:
            mid = (lo + hi) // 2
            if self.max_items(a, b, mid) >= x:
                hi = mid
            else:
                lo = mid + 1
        self._min_cache[key] = lo
        return lo

    def _min_tabled(self, a: FlatEdge, b: FlatEdge, x: int, p_a: int, p_b: int) -> int:
        """The least ``y`` with ``max_items(a, b, y) >= x`` on a periodic
        graph: beyond ``a``'s transient ``T``, ``max(y) = table[y - k·P_a] +
        k·P_b`` with ``y - k·P_a`` in ``(T - P_a, T]``."""
        from bisect import bisect_left

        top = 8 * p_a + len(a.initial) + 64
        table = self._table(a, b, top, x)
        if table[-1] >= x:
            return bisect_left(table, x)
        if p_b <= 0:
            raise self._infeasible(a, b, x)
        k = -(-(x - table[top]) // p_b)
        return bisect_left(table, x - k * p_b, top - p_a + 1, top + 1) + k * p_a

    @staticmethod
    def _infeasible(a: FlatEdge, b: FlatEdge, x: int) -> SchedulingError:
        return SchedulingError(
            f"min[a->b]({x}) infeasible: no amount of items on "
            f"{a!r} yields {x} items on {b!r}"
        )


def output_tape(graph: FlatGraph, node: FlatNode) -> FlatEdge:
    """The (single) output tape of a filter node."""
    if len(node.out_edges) != 1:
        raise SchedulingError(f"{node.name} does not have a unique output tape")
    return node.out_edges[0]


def pipeline_tf(stages: Sequence[TransferFunction]) -> TransferFunction:
    """Compose a sequence of per-stage transfer functions, upstream first."""
    tf = identity_tf()
    for stage in stages:
        tf = tf.then(stage)
    return tf


def delivery_firings(
    threshold: Optional[int],
    produced: int,
    push: int,
    direction: str,
) -> int:
    """How many more firings of a message *receiver* are safe before its
    pending teleport message must be (re)checked for delivery.

    The batched engine fires a receiver ``k`` firings at a time; ``k`` must
    not step over the SDEP-derived delivery point.  ``threshold`` is the
    item count on the receiver's output tape at which the message is due
    (``None`` for best-effort: due immediately, so the step is a single
    firing), ``produced`` is ``pushed_count`` on that tape so far, and
    ``push`` the receiver's per-firing push rate.

    * ``downstream`` messages are delivered *before* the first firing whose
      completion would carry ``produced`` strictly past the threshold, so up
      to ``(threshold - produced) // push`` firings may run first.
    * ``upstream`` messages are delivered *after* the firing that reaches
      ``produced >= threshold`` — ``ceil((threshold - produced) / push)``
      firings away.

    Always returns at least 1 (the engine re-checks between steps; a filter
    that pushes nothing can never cross a threshold, so it runs one firing
    at a time under a pending message).
    """
    if threshold is None or push <= 0:
        return 1
    gap = threshold - produced
    if gap <= 0:
        return 1
    if direction == "downstream":
        return max(1, gap // push)
    return max(1, -(-gap // push))


def delivery_on_boundary(
    threshold: Optional[int],
    delivered_n: int,
    push: int,
    direction: str,
) -> bool:
    """Did a delivery land exactly on its SDEP boundary?

    ``delivered_n`` is the item count on the receiver's output tape at the
    moment the message was delivered.  Per the wavefront semantics:

    * ``downstream`` — delivery happens before the first firing that would
      push past ``threshold``: ``delivered_n <= threshold < delivered_n +
      push``;
    * ``upstream`` — delivery happens after the firing that reaches
      ``threshold``: ``delivered_n - push < threshold <= delivered_n``.

    Best-effort messages (``threshold is None``) have no boundary to land
    on; they are vacuously on time.  Observability uses this to cross-check
    recorded teleport latencies against the SDEP computation (ISSUE E12).
    """
    if threshold is None:
        return True
    if push <= 0:
        return delivered_n >= threshold if direction == "upstream" else True
    if direction == "downstream":
        return delivered_n <= threshold < delivered_n + push
    return delivered_n - push < threshold <= delivered_n
