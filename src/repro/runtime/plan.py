"""Compiled, batched execution of stream programs.

The scalar :class:`~repro.runtime.interpreter.Interpreter` walks its
schedule one firing at a time through per-firing dict lookups and
Python-list channels.  An :class:`ExecutionPlan` compiles the same
:class:`~repro.scheduling.steady.ProgramSchedule` into a preresolved firing
program executed over :class:`~repro.runtime.array_channel.ArrayChannel`
tapes:

* **executor arrays** — each schedule phase becomes a direct ``fire(n)``
  callable (no per-firing dict lookups, no messaging checks on the fast
  path);
* **run-length batching** — consecutive firings of one node execute as a
  single ``work_batch(n)`` call when the filter provides one, as a
  *generically lifted* vector kernel when
  :mod:`~repro.runtime.vectorize` proves the filter stateless, and as a
  hoisted-I/O ``work()`` loop otherwise;
* **splitter/joiner vectorization** — distribution cycles become
  reshape/interleave block copies instead of item loops;
* **operator fusion** — maximal chains of adjacent single-input/
  single-output fire-nodes execute back to back through private
  :class:`_FusionTape` scratch channels that *adopt* each stage's output
  array (zero-copy handoff, no slide-to-front compaction, no per-stage
  ArrayChannel traffic on the real graph edges);
* **region lowering** — a certified flat splitjoin (``SL405``) whose members
  are one contiguous run of a single-sweep schedule runs as *one*
  :class:`~repro.runtime.regions.RegionPhase`: a single kernel over the
  unsplit tape (``collapse``),
  one static gather (``permute``), or per-branch kernels over column views
  writing the joiner's output in place (``columns``);
* **one block list, one pass** — the result is :attr:`ExecutionPlan.blocks`,
  the steady program every back end reads.  Each block (a phase, a fused
  chain, a region, a teleport endpoint, the cyclic core) has a ``kind``,
  ``run(scale)`` and ``span(scale)``; ``run_steady`` is one loop of passes,
  each running every block once with its firing count scaled by the periods
  the pass covers (chunked so buffers stay bounded).  A schedule that is a
  pure topological pass is its own block order; where feedback interleaves
  it, the feedforward prefix and suffix are blocks either side of one
  :class:`CoreLoopRunner`, the only block that iterates period-at-a-time —
  data always flows forward, so running the prefix ``P`` periods ahead
  merely buffers more, and the suffix drains exactly what the core produced;
* **batched teleport messaging** — a portal-bound pass covers as many
  periods as the latencies its senders state leave the receivers free to
  run ahead (:attr:`ExecutionPlan.message_slack`, Eq. mc1 read as a
  schedule input); a :class:`SenderPhase` interleaves its firings with
  delivery checks and a :class:`ReceiverPhase` splits its batch exactly at
  the SDEP-derived delivery points
  (:meth:`~repro.runtime.messaging.PendingMessage.firings_until_due`), so
  message timing is identical to the scalar engine's per-firing semantics;
* **plan caching** — the schedule/fusion/segment analysis is memoized on
  a structural graph signature, so repeated ``Interpreter`` constructions
  over the same program shape (the bench harness, parameter sweeps) skip
  recompilation.

The engine's output contract: identical items, in identical order, to the
scalar interpreter — bit-for-bit wherever the batched kernels preserve each
firing's floating-point operation order (all data movement, the
loop-sequential app filters, the generic lifter, and the FFT filters do;
``LinearFilter``'s GEMM may differ from ``n`` GEMVs in the last ulp).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import StreamItError
from repro.graph.composites import SplitJoin
from repro.graph.flatgraph import FILTER, JOINER, SPLITTER, FlatGraph, FlatNode
from repro.graph.splitjoin import COMBINE, DUPLICATE, NULL
from repro.runtime.array_channel import ArrayChannel
from repro.runtime.channel import ChannelUnderflow
from repro.runtime.messaging import Portal
from repro.runtime.vectorize import BatchExecutor

#: Per-edge item cap for one superbatched chunk (512 KiB of float64).
_CHUNK_ITEM_CAP = 1 << 16


# -- node executors ----------------------------------------------------------
#
# Module-level factories so both an ExecutionPlan and the parallel runtime's
# workers (which execute plan subgraphs over mixed ArrayChannel/RingChannel
# maps) compile the same batched ``fire(n)`` callables.


def make_filter_executor(
    node: FlatNode, allow_trusted: bool = True
) -> Callable[[int], None]:
    filt = node.filter
    if type(filt).supports_work_batch:
        return filt.work_batch
    # Teleport receivers mutate configuration attributes at delivery
    # points, so a build-time static proof cannot speak for every batch:
    # they must earn lifting through the empirical trial instead.
    return BatchExecutor(filt, allow_trusted=allow_trusted)


def make_splitter_executor(
    node: FlatNode, channels: Dict[object, object]
) -> Callable[[int], None]:
    if node.flavor == NULL:
        return lambda n: None
    in_chan = channels[node.in_edges[0]]
    outs = [channels[e] for e in node.out_edges]
    if node.flavor == DUPLICATE:

        def fire_duplicate(n: int) -> None:
            block = in_chan.pop_block(n)
            for chan in outs:
                chan.push_block(block)

        return fire_duplicate

    weights = [node.out_rates[e.src_port] for e in node.out_edges]
    total = node.in_rates[0]

    def fire_roundrobin(n: int) -> None:
        cycles = in_chan.pop_block(n * total).reshape(n, total)
        offset = 0
        for chan, w in zip(outs, weights):
            if w:
                chan.push_block(cycles[:, offset : offset + w])
            offset += w

    return fire_roundrobin


def make_joiner_executor(
    node: FlatNode, channels: Dict[object, object]
) -> Callable[[int], None]:
    if node.flavor == NULL:
        return lambda n: None
    out_chan = channels[node.out_edges[0]]
    ins = [channels[e] for e in node.in_edges]
    if node.flavor == COMBINE:
        reducer = getattr(getattr(node.obj, "joiner", None), "reducer", None)
        if reducer is None:
            # The default reducer keeps the first branch's item.
            def fire_combine(n: int) -> None:
                first = ins[0].pop_block(n)
                for chan in ins[1:]:
                    chan.drop(n)
                out_chan.push_block(first)

            return fire_combine

        def fire_combine_reduce(n: int) -> None:
            for _ in range(n):
                out_chan.push(reducer([chan.pop() for chan in ins]))

        return fire_combine_reduce

    weights = [node.in_rates[e.dst_port] for e in node.in_edges]
    total = node.out_rates[0]
    # An ArrayChannel hands out its own tail to interleave into; a ring
    # (parallel engine) still takes one finished block.
    in_place = isinstance(out_chan, ArrayChannel)

    def fire_roundrobin(n: int) -> None:
        blocks = [chan.pop_block(n * w) for chan, w in zip(ins, weights)]
        if in_place:
            cycles = out_chan.alloc_block(n * total).reshape(n, total)
        else:
            cycles = np.empty((n, total))
        offset = 0
        for block, w in zip(blocks, weights):
            if w:
                cycles[:, offset : offset + w] = block.reshape(n, w)
            offset += w
        if not in_place:
            out_chan.push_block(cycles)

    return fire_roundrobin


def make_node_executor(
    node: FlatNode,
    channels: Dict[object, object],
    allow_trusted: bool = True,
) -> Callable[[int], None]:
    """Batched ``fire(n)`` executor for any node kind."""
    if node.kind == FILTER:
        return make_filter_executor(node, allow_trusted)
    if node.kind == SPLITTER:
        return make_splitter_executor(node, channels)
    if node.kind == JOINER:
        return make_joiner_executor(node, channels)
    raise StreamItError(f"unknown node kind {node.kind!r}")


def single_topological_sweep(graph: FlatGraph, schedule) -> bool:
    """True when the schedule is one topological pass over the graph.

    Each node's firings must be contiguous (a single run in the phase
    sequence) and every edge's producer run must precede its consumer run.
    This is the legality condition for both period superbatching and for
    batched teleport messaging (a sender's phase then strictly separates
    the receiver firings before and after it, so delivery points can be
    computed per phase instead of per firing).
    """
    position: Dict[FlatNode, int] = {}
    last: Optional[FlatNode] = None
    for node, _count in schedule:
        if node is last:
            continue
        if node in position:
            return False
        position[node] = len(position)
        last = node
    for edge in graph.edges:
        if edge.src not in position or edge.dst not in position:
            return False
        if position[edge.src] >= position[edge.dst]:
            return False
    return True


# -- plan cache -------------------------------------------------------------

#: signature -> analysis dict; see :func:`_analyze`.
_PLAN_CACHE: "OrderedDict[tuple, dict]" = OrderedDict()
_PLAN_CACHE_MAX = 128

#: Cumulative cache statistics (for tests and diagnostics); increments
#: mirror into the always-on metrics registry as repro_plan_cache_total.
from repro.obs.metrics import METRICS as _METRICS
from repro.obs.metrics import MeteredStats as _MeteredStats

plan_cache_stats = _MeteredStats(
    _METRICS.counter(
        "repro_plan_cache_total", "Plan-analysis cache events (hit/miss/eviction)"
    ),
    lambda key: {"event": key},
    {"hits": 0, "misses": 0, "evictions": 0},
)


def clear_plan_cache() -> None:
    _PLAN_CACHE.clear()
    plan_cache_stats["hits"] = 0
    plan_cache_stats["misses"] = 0
    plan_cache_stats["evictions"] = 0


def plan_cache_summary() -> Dict[str, int]:
    """Counters plus current size/bound of the in-memory analysis cache."""
    summary: Dict[str, int] = dict(plan_cache_stats)
    summary["size"] = len(_PLAN_CACHE)
    summary["max"] = _PLAN_CACHE_MAX
    return summary


def _plan_signature(graph: FlatGraph, program, senders, receivers) -> tuple:
    """Structural fingerprint of (graph, schedule, messaging endpoints).

    Two programs with the same signature have identical plan *shape* —
    phases, fusion chains, single-sweep legality — even though they are built
    from distinct filter instances, so the analysis is reusable.
    """
    index = {node: i for i, node in enumerate(graph.nodes)}
    nodes = tuple(
        (
            n.kind,
            n.flavor,
            type(n.obj).__qualname__ if n.obj is not None else None,
            n.in_rates,
            n.out_rates,
            n.peek_extra,
        )
        for n in graph.nodes
    )
    edges = tuple(
        (index[e.src], e.src_port, index[e.dst], e.dst_port, len(e.initial))
        for e in graph.edges
    )
    init = tuple((index[n], c) for n, c in program.init)
    steady = tuple((index[n], c) for n, c in program.steady)
    msg = (
        tuple(sorted(index[n] for n in senders)),
        tuple(sorted(index[n] for n in receivers)),
    )
    return (nodes, edges, init, steady, msg)


# -- fusion scratch tapes ----------------------------------------------------


class _FusionTape(ArrayChannel):
    """Private channel between fused stages: adopts pushed arrays zero-copy.

    A fused chain is balanced and starts empty, so every stage's entire
    output is consumed by the next stage within the same composite firing —
    the pushed block can simply *become* the buffer instead of being copied
    into one.
    """

    __slots__ = ()

    def push_block(self, block: np.ndarray) -> None:
        if self._head == self._tail:
            self.adopt_block(block)
        else:
            ArrayChannel.push_block(self, block)

    def release(self) -> None:
        """Forget the (drained) adopted block so it can be freed."""
        self._buf = _NO_ITEMS
        self._head = self._tail = 0


#: Shared backing store of every released scratch tape (never written:
#: a push to an empty tape adopts, a scalar push reserves a fresh buffer).
_NO_ITEMS = np.empty(0, dtype=np.float64)


def timed(tracer, run: Callable[[int], None], span) -> Callable[[int], None]:
    """``run`` under a span: the one way a traced engine times a block.

    ``span(scale)`` gives ``(name, category, args)`` of one ``run(scale)``.
    A plan built with tracing on calls these in place of the bare ``run``s;
    one built with it off never sees them, so it reads no clock.
    """
    from time import perf_counter

    complete = tracer.complete

    def run_timed(scale: int) -> None:
        t0 = perf_counter()
        run(scale)
        dur = perf_counter() - t0
        name, cat, args = span(scale)
        complete(name, cat, t0, dur, args=args)

    return run_timed


@dataclass
class CompiledPhase:
    """One entry of the preresolved firing program: fire ``node`` ``count``
    times per period via ``fire(count)``.

    The plainest *block* of a steady program.  Every block carries ``kind``,
    ``run(scale)`` — its share of ``scale`` periods — and ``span(scale)``,
    the ``(name, category, args)`` a traced ``run(scale)`` is recorded as.
    """

    node: FlatNode
    count: int
    fire: Callable[[int], None]

    kind = "phase"

    def run(self, scale: int) -> None:
        self.fire(self.count * scale)

    def span(self, scale: int) -> Tuple[str, str, Dict[str, int]]:
        from repro.obs.tracer import CAT_KERNEL

        node = self.node
        firings = self.count * scale
        push = node.out_edges[0].push_rate if node.out_edges else 0
        return node.name, CAT_KERNEL, {"firings": firings, "items": firings * push}


@dataclass
class SenderPhase(CompiledPhase):
    """A teleport sender: one ``work()`` at a time on the real channels —
    its output counter drives wavefront thresholds *during* the firing —
    with a delivery check either side of each (a sender may receive too).

    A pass fires this sender's periods ``done … done+scale-1`` back to
    back, ahead of every later sender's first: each send is stamped with
    where the scalar schedule has it (``index`` is the sender's place in
    that schedule).  ``fire`` is the executor ``vectorization_report``
    lists for the node; a sender never calls it.
    """

    plan: "ExecutionPlan"
    index: int

    kind = "sender"

    def run(self, scale: int) -> None:
        plan = self.plan
        interp = plan.interp
        node, count, index = self.node, self.count, self.index
        work = node.filter.work
        period = plan.periods_done
        plan.scale_in_flight = scale
        interp._current_node = node
        try:
            for k in range(count * scale):
                interp._send_order = (period + k // count, index, k % count)
                interp._deliver_before(node)
                work()
                interp._deliver_after(node)
        finally:
            interp._current_node = None
            plan.scale_in_flight = 1


@dataclass
class ReceiverPhase(CompiledPhase):
    """A teleport receiver: while messages are pending it fires in
    sub-batches that stop exactly at each one's delivery point."""

    plan: "ExecutionPlan"

    kind = "receiver"

    def run(self, scale: int) -> None:
        interp = self.plan.interp
        node, fire = self.node, self.fire
        out_edge = node.out_edges[0] if node.out_edges else None
        chan = self.plan.channels[out_edge] if out_edge is not None else None
        push_b = out_edge.push_rate if out_edge is not None else 0
        left = self.count * scale
        while left > 0:
            interp._deliver_before(node)
            queue = interp._pending.get(node)
            if not queue:
                # Queue drained; no new messages can arrive while this
                # (non-sender) node is firing.
                fire(left)
                return
            produced = chan.pushed_count if chan is not None else 0
            step = min(msg.firings_until_due(produced, push_b) for msg in queue)
            step = max(1, min(step, left))
            fire(step)
            interp._deliver_after(node)
            left -= step


class FusedPhase:
    """A maximal chain of adjacent SISO fire-nodes run as one composite.

    ``run(scale)`` rebinds each stage filter's channels so intermediate
    results flow through :class:`_FusionTape` scratch tapes instead of the
    real graph edges (whose history counters are bumped afterwards so
    introspection still sees every item)."""

    __slots__ = ("stages", "_tapes", "_bumps")

    kind = "fused"

    def __init__(self, stages: Sequence[CompiledPhase], channels) -> None:
        self.stages: Tuple[CompiledPhase, ...] = tuple(stages)
        self._tapes = [
            _FusionTape(name=f"fused:{st.node.name}") for st in self.stages[:-1]
        ]
        # Real channels bypassed by the chain: (channel, items per period).
        self._bumps = [
            (channels[st.node.out_edges[0]], st.count * st.node.out_edges[0].push_rate)
            for st in self.stages[:-1]
        ]

    def span(self, scale: int) -> Tuple[str, str, Dict[str, int]]:
        from repro.obs.tracer import CAT_FUSED

        last = self.stages[-1]
        push = last.node.out_edges[0].push_rate if last.node.out_edges else 0
        return (
            "+".join(st.node.name for st in self.stages),
            CAT_FUSED,
            {
                "firings": sum(st.count for st in self.stages) * scale,
                "items": last.count * scale * push,
            },
        )

    def release(self) -> None:
        for tape in self._tapes:
            tape.release()

    def run(self, scale: int) -> None:
        stages = self.stages
        tapes = self._tapes
        last = len(stages) - 1
        for i, st in enumerate(stages):
            filt = st.node.filter
            old_in, old_out = filt.input, filt.output
            if i:
                filt.input = tapes[i - 1]
            if i < last:
                filt.output = tapes[i]
            try:
                st.fire(st.count * scale)
            finally:
                filt.input = old_in
                filt.output = old_out
        for chan, per_period in self._bumps:
            items = per_period * scale
            chan.pushed_count += items
            chan.popped_count += items


class _LTape:
    """Plain-list FIFO used inside a :class:`CoreLoopRunner` chunk.

    ``items``/``cursor`` instead of head-sliced lists: a pop is one index
    increment, a push one ``list.append`` — the cheapest per-item operations
    CPython offers.  Values stay Python floats, so arithmetic matches the
    scalar engine bit-for-bit.
    """

    __slots__ = ("name", "items", "cursor")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.items: List[float] = []
        self.cursor = 0

    def pop(self) -> float:
        c = self.cursor
        if c >= len(self.items):
            raise ChannelUnderflow(f"pop on empty core tape {self.name!r}")
        self.cursor = c + 1
        return self.items[c]

    def peek(self, index: int) -> float:
        j = self.cursor + index
        if index < 0 or j >= len(self.items):
            raise ChannelUnderflow(f"peek({index}) beyond core tape {self.name!r}")
        return self.items[j]

    def push(self, item: float) -> None:
        self.items.append(item)

    def compact(self) -> None:
        if self.cursor:
            del self.items[: self.cursor]
            self.cursor = 0


class CoreLoopRunner:
    """Executes a cyclic schedule core over hoisted Python-list tapes.

    The cyclic core of a feedback-interleaved schedule fires each node ~once
    per period, where block-kernel setup costs more than it saves.  Instead
    of per-firing ArrayChannel traffic, one ``run(scale)`` call moves all
    channel I/O to plain lists for the whole chunk:

    * edges internal to the core become persistent :class:`_LTape` scratch
      tapes (seeded once by detaching the post-init channel contents);
    * external inputs are snapshot to a list per chunk, and exactly the
      consumed prefix is dropped from the real channel afterwards;
    * external outputs accumulate in a list and land as one ``push_block``;
    * the flattened per-period op sequence — bound ``work`` methods and
      closure splitters/joiners — runs ``scale`` times in a tight loop.

    Firing order inside a period is exactly the steady schedule's, and every
    item round-trips through Python floats, so results are bit-identical to
    the scalar engine.  History counters of bypassed internal edges are
    bumped in bulk (the :class:`FusedPhase` convention).
    """

    kind = "core"

    def __init__(
        self, phases: Sequence[Tuple[FlatNode, int]], channels, graph_edges: Sequence
    ) -> None:
        self.phases: Tuple[Tuple[FlatNode, int], ...] = tuple(phases)
        self.channels = channels
        self.nodes = {node for node, _ in self.phases}
        self.name = "core:" + "+".join(sorted(n.name for n in self.nodes))
        nodes = self.nodes
        own = dict.fromkeys(  # an ordered set: first-seen over the phases' edge lists
            e for n, _ in self.phases for e in (*n.in_edges, *n.out_edges)
        )
        #: The core's edges by where their ends lie, in the one order the
        #: interpreted loop, the emitter and a module bound in another
        #: process all agree on.
        self.internal = [e for e in own if e.src in nodes and e.dst in nodes]
        self.ext_in = [e for e in own if e.src not in nodes]
        self.ext_out = [e for e in own if e.dst not in nodes]
        #: Graph-wide index of each of those edges (what a generated module
        #: names a tape by).
        self.edge_index = {e: i for i, e in enumerate(graph_edges) if e in own}
        self._ops: Optional[Tuple[Callable[[], None], ...]] = None

    def span(self, scale: int) -> Tuple[str, str, Dict[str, int]]:
        from repro.obs.tracer import CAT_CORE

        firings = sum(count for _node, count in self.phases) * scale
        return self.name, CAT_CORE, {"firings": firings, "items": 0}

    # -- compilation (lazy: runs after init, when channels hold real state) --

    def _build(self) -> None:
        tapes = self._tapes = {
            e: _LTape(f"core:{e.src.name}->{e.dst.name}") for e in self.edge_index
        }
        self._by_index = {i: tapes[e] for e, i in self.edge_index.items()}
        counts: Dict[FlatNode, int] = {}
        for node, count in self.phases:
            counts[node] = counts.get(node, 0) + count
        # Internal tapes inherit the live post-init channel contents
        # (feedback delay items); the channels stay empty from here on,
        # with their history counters bumped in bulk per chunk.
        for edge in self.internal:
            tapes[edge].items = self.channels[edge].detach_all()
        self._ext_in = [(self.channels[e], tapes[e]) for e in self.ext_in]
        self._ext_out = [(self.channels[e], tapes[e]) for e in self.ext_out]
        self._internal = [tapes[e] for e in self.internal]
        self._bumps = [
            (self.channels[e], counts[e.src] * e.push_rate) for e in self.internal
        ]
        bind, restore = [], []
        for node in self.nodes:
            if node.kind != FILTER:
                continue
            filt = node.filter
            tin = tapes[node.in_edges[0]] if node.in_edges else None
            tout = tapes[node.out_edges[0]] if node.out_edges else None
            cin = self.channels[node.in_edges[0]] if node.in_edges else None
            cout = self.channels[node.out_edges[0]] if node.out_edges else None
            bind.append((filt, tin, tout))
            restore.append((filt, cin, cout))
        self._bind = bind
        self._restore = restore
        ops: List[Callable[[], None]] = []
        for node, count in self.phases:
            op = self._node_op(node)
            ops.extend([op] * count)
        self._ops = tuple(ops)

    def _node_op(self, node: FlatNode) -> Callable[[], None]:
        if node.kind == FILTER:
            return node.filter.work
        if node.flavor == NULL:
            return lambda: None
        if node.kind == SPLITTER:
            tin = self._tapes[node.in_edges[0]]
            outs = [self._tapes[e] for e in node.out_edges]
            if node.flavor == DUPLICATE:

                def fire_duplicate() -> None:
                    item = tin.pop()
                    for t in outs:
                        t.items.append(item)

                return fire_duplicate
            weights = [node.out_rates[e.src_port] for e in node.out_edges]
            pairs = [(t, w) for t, w in zip(outs, weights) if w]

            def fire_split() -> None:
                for t, w in pairs:
                    if w == 1:
                        t.items.append(tin.pop())
                    else:
                        for _ in range(w):
                            t.items.append(tin.pop())

            return fire_split
        # Joiner.
        tout = self._tapes[node.out_edges[0]]
        ins = [self._tapes[e] for e in node.in_edges]
        if node.flavor == COMBINE:
            reducer = getattr(getattr(node.obj, "joiner", None), "reducer", None)
            if reducer is None:
                reducer = lambda items: items[0]

            def fire_combine() -> None:
                tout.items.append(reducer([t.pop() for t in ins]))

            return fire_combine
        weights = [node.in_rates[e.dst_port] for e in node.in_edges]
        pairs = [(t, w) for t, w in zip(ins, weights) if w]

        def fire_join() -> None:
            for t, w in pairs:
                if w == 1:
                    tout.items.append(t.pop())
                else:
                    for _ in range(w):
                        tout.items.append(t.pop())

        return fire_join

    # -- execution -----------------------------------------------------------
    #
    # ``begin`` / ``end`` are the chunk boundary, whoever runs the chunk in
    # between: ``run`` below, or a generated module's inlined loop, which
    # reaches its tapes through ``items`` and hands back the read positions
    # it kept in locals through ``set_cursor``.  Either can take the next
    # chunk over from the other.

    def held(self, edge) -> int:
        """Items on ``edge``'s tape at a chunk boundary."""
        if self._ops is None:
            self._build()
        tape = self._tapes[edge]
        return len(tape.items) - tape.cursor

    def items(self, index: int) -> list:
        return self._by_index[index].items

    def set_cursor(self, index: int, cursor: int) -> None:
        self._by_index[index].cursor = cursor

    def begin(self) -> None:
        """Snapshot every external input into its tape."""
        if self._ops is None:
            self._build()
        for chan, tape in self._ext_in:
            tape.items = chan.peek_block(len(chan)).tolist()
            tape.cursor = 0

    def end(self, scale: int) -> None:
        """Drop the consumed input prefix, land the accumulated outputs as
        one ``push_block`` each, compact the internal tapes and bulk-bump
        the bypassed history counters."""
        for chan, tape in self._ext_in:
            if tape.cursor:
                chan.drop(tape.cursor)
        for chan, tape in self._ext_out:
            if tape.items:
                chan.push_block(np.asarray(tape.items, dtype=np.float64))
                tape.items = []
        for tape in self._internal:
            tape.compact()
        for chan, per_period in self._bumps:
            moved = per_period * scale
            chan.pushed_count += moved
            chan.popped_count += moved

    def run(self, scale: int) -> None:
        self.begin()
        for filt, tin, tout in self._bind:
            filt.input = tin
            filt.output = tout
        try:
            ops = self._ops
            for _ in range(scale):
                for op in ops:
                    op()
        finally:
            for filt, cin, cout in self._restore:
                filt.input = cin
                filt.output = cout
        self.end(scale)


class ExecutionPlan:
    """The batched engine's compiled form of one interpreter's schedule."""

    def __init__(self, interp) -> None:
        self.interp = interp
        self.graph = interp.graph
        self.channels = interp.channels
        self.messaging = interp.has_messaging
        self._senders, self._receivers = self._messaging_endpoints(interp)
        self._executors: Dict[FlatNode, Callable[[int], None]] = {}

        program = interp.program
        signature = _plan_signature(
            self.graph, program, self._senders, self._receivers
        )
        analysis = _PLAN_CACHE.get(signature)
        if analysis is not None:
            plan_cache_stats["hits"] += 1
            _PLAN_CACHE.move_to_end(signature)
        else:
            plan_cache_stats["misses"] += 1
        #: This plan's cache outcome + the cumulative counters at build time.
        self.cache_stats = {
            "hit": analysis is not None,
            "hits": plan_cache_stats["hits"],
            "misses": plan_cache_stats["misses"],
        }
        tracer = interp.tracer
        if tracer.enabled:
            from repro.obs.tracer import CAT_PLAN

            tracer.instant(
                "plan.cache_hit" if self.cache_stats["hit"] else "plan.cache_miss",
                CAT_PLAN,
                args=dict(self.cache_stats),
            )

        self.init_blocks = self._compile(program.init)
        steady = self._compile(program.steady)
        if analysis is None:
            analysis = self._analyze(program, steady)
            _PLAN_CACHE[signature] = analysis
            while len(_PLAN_CACHE) > _PLAN_CACHE_MAX:
                _PLAN_CACHE.popitem(last=False)
                plan_cache_stats["evictions"] += 1
        self.single_sweep: bool = analysis["single_sweep"]
        self.chunk_periods: int = analysis["chunk_periods"]
        self.fusion_ranges: Tuple[Tuple[int, int], ...] = analysis["fusion_ranges"]
        self._steady_flat = steady
        self._analysis = analysis
        #: Periods a portal-bound pass may cover; derived on first use (it
        #: reads instance latencies, so it is no part of ``analysis``).
        self._message_slack: Optional[float] = None
        self._message_rows: List[Tuple[Dict[str, object], str]] = []
        #: Periods the pass a sender is firing in covers (1 outside one).
        self.scale_in_flight = 1
        #: Steady periods completed before the pass now running; -1 while
        #: the init schedule runs.  Senders stamp their sends from it.
        self.periods_done = 0
        #: Per splitjoin: (name, branches, its RegionPhase or None, the
        #: reason it has none); see :meth:`region_report`.
        self._region_rows: List[tuple] = []
        #: Provisional until :meth:`_lower_regions` (end of ``run_init``)
        #: has replaced every lowerable splitjoin by its RegionPhase.
        self._set_blocks(
            self._apply_fusion(steady, self.fusion_ranges, {})
            if self.single_sweep
            else self._segmented(steady, analysis["segments_idx"])
        )

    def _set_blocks(self, blocks: List[object]) -> None:
        """Make ``blocks`` the steady program.

        ``blocks`` is what every back end reads: a batched pass runs them in
        order, the emitter writes one section per block, the binder walks a
        cached module's meta against them.  ``_steps`` is what a pass
        actually calls, one ``run(scale)`` per block — under tracing (fixed
        when the interpreter was built) each through :func:`timed`.
        """
        self.blocks = blocks
        tracer = self.interp.tracer
        if tracer.enabled:
            self._steps = tuple(timed(tracer, b.run, b.span) for b in blocks)
        else:
            self._steps = tuple(b.run for b in blocks)

    # -- messaging endpoints --------------------------------------------------

    @staticmethod
    def _messaging_endpoints(interp):
        senders = set()
        receivers = set()
        for portal in getattr(interp, "_portals", ()):
            for recv in portal.receivers:
                receivers.add(interp.graph.node_for(recv))
        for node in interp.graph.filter_nodes():
            if any(isinstance(v, Portal) for v in vars(node.filter).values()):
                senders.add(node)
        return senders, receivers

    # -- compilation ----------------------------------------------------------

    def _compile(self, schedule) -> List[CompiledPhase]:
        phases: List[CompiledPhase] = []
        for node, count in schedule:
            if phases and phases[-1].node is node:
                phases[-1].count += count
                continue
            fire = self._executor(node)
            if node in self._senders:
                phases.append(SenderPhase(node, count, fire, self, len(phases)))
            elif node in self._receivers:
                phases.append(ReceiverPhase(node, count, fire, self))
            else:
                phases.append(CompiledPhase(node, count, fire))
        return phases

    def _executor(self, node: FlatNode) -> Callable[[int], None]:
        if node not in self._executors:
            self._executors[node] = make_node_executor(
                node, self.channels, allow_trusted=node not in self._receivers
            )
        return self._executors[node]

    def vectorization_report(self) -> Dict[str, Dict[str, object]]:
        """Per-filter executor outcome: mode, trust, and downgrade reason.

        Executors resolve lazily, so entries show ``"untried"`` until the
        plan has run at least once.
        """
        report: Dict[str, Dict[str, object]] = {}
        for node, fire in self._executors.items():
            if node.kind != FILTER:
                continue
            if isinstance(fire, BatchExecutor):
                downgrade = fire.downgrade
                report[node.name] = {
                    "kind": fire.kind,
                    "trusted": fire.trusted,
                    "code": downgrade.code if downgrade is not None else None,
                    "reason": downgrade.message if downgrade is not None else None,
                }
            else:
                report[node.name] = {
                    "kind": "work_batch",
                    "trusted": True,
                    "code": None,
                    "reason": None,
                }
        return report

    # -- analysis -------------------------------------------------------------

    def _analyze(self, program, steady: List[CompiledPhase]) -> dict:
        # A portal-bound schedule is always a single sweep here: the
        # interpreter runs any other on the scalar engine (SL302).
        single_sweep = single_topological_sweep(self.graph, program.steady)
        if single_sweep:
            segments_idx = ((), ())
            fusion_ranges = self._fusion_ranges(steady, program.init.counts())
        else:
            segments_idx = self._segment_sets()
            fusion_ranges = ()
        return {
            "single_sweep": single_sweep,
            "chunk_periods": self._chunk_periods(program),
            "segments_idx": segments_idx,
            "fusion_ranges": fusion_ranges,
        }

    def _segment_sets(self) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """Partition nodes of a feedback-interleaved program into segments.

        Returns node-index tuples ``(prefix, suffix)``.  The *prefix* is the
        upstream-closed set of nodes with no ancestor inside a cycle; the
        *suffix* is the downstream-closed set (minus the prefix) with no
        descendant inside a cycle.  Data only flows forward, so hoisting all
        prefix firings of a chunk before the cyclic core — and deferring all
        suffix firings after it — never underflows a channel: consumers only
        ever see *more* items available than in the interleaved order.
        """
        nodes = list(self.graph.nodes)
        prefix: set = set()
        changed = True
        while changed:
            changed = False
            for node in nodes:
                if node not in prefix and all(
                    e.src in prefix for e in node.in_edges
                ):
                    prefix.add(node)
                    changed = True
        suffix: set = set()
        changed = True
        while changed:
            changed = False
            for node in nodes:
                if (
                    node not in prefix
                    and node not in suffix
                    and all(e.dst in suffix for e in node.out_edges)
                ):
                    suffix.add(node)
                    changed = True
        index = {node: i for i, node in enumerate(nodes)}
        return (
            tuple(sorted(index[n] for n in prefix)),
            tuple(sorted(index[n] for n in suffix)),
        )

    def _segmented(
        self,
        steady: List[CompiledPhase],
        segments_idx: Tuple[Tuple[int, ...], Tuple[int, ...]],
    ) -> List[object]:
        """The block list of a feedback-interleaved program, from the cached
        node-index sets: the feedforward prefix as batched phases
        (aggregated per-period firings, topologically ordered within the
        segment), one :class:`CoreLoopRunner` for the cyclic core, then the
        suffix likewise."""
        pre_idx, suf_idx = segments_idx
        nodes = list(self.graph.nodes)
        pre_set = {nodes[i] for i in pre_idx}
        suf_set = {nodes[i] for i in suf_idx}

        def aggregate(members: set) -> List[CompiledPhase]:
            counts: Dict[FlatNode, int] = {}
            for ph in steady:
                if ph.node in members:
                    counts[ph.node] = counts.get(ph.node, 0) + ph.count
            # Kahn topological order over the segment's internal edges.
            indeg = {
                n: sum(1 for e in n.in_edges if e.src in members) for n in counts
            }
            ready = [n for n in nodes if n in counts and indeg[n] == 0]
            ordered: List[FlatNode] = []
            while ready:
                node = ready.pop(0)
                ordered.append(node)
                for e in node.out_edges:
                    if e.dst in indeg:
                        indeg[e.dst] -= 1
                        if indeg[e.dst] == 0:
                            ready.append(e.dst)
            return [
                CompiledPhase(node, counts[node], self._executor(node))
                for node in ordered
            ]

        # Core phases fire at n≈1 each period, where block-kernel setup costs
        # more than it saves — run the whole cyclic core over hoisted list
        # tapes instead (one I/O transfer per chunk, not per firing).
        core_phases = [
            (ph.node, ph.count)
            for ph in steady
            if ph.node not in pre_set and ph.node not in suf_set
        ]
        core = CoreLoopRunner(core_phases, self.channels, self.graph.edges)
        return aggregate(pre_set) + [core] + aggregate(suf_set)

    def _fusion_ranges(
        self, phases: List[CompiledPhase], init_counts: Dict[FlatNode, int]
    ) -> Tuple[Tuple[int, int], ...]:
        """Maximal fusable runs ``(start, end)`` (inclusive) over ``phases``.

        Stage ``u`` links to the next phase ``v`` when the pair forms an
        exclusive producer→consumer couple whose intermediate tape starts
        empty after init and is exactly drained each period — then ``v`` can
        read ``u``'s output straight off a scratch tape.  Splitters, joiners,
        peeking consumers, and messaging endpoints break chains.
        """

        def fusable(ph: CompiledPhase) -> bool:
            node = ph.node
            return (
                node.kind == FILTER
                and node not in self._senders
                and node not in self._receivers
            )

        def links(u: CompiledPhase, v: CompiledPhase) -> bool:
            if not (fusable(u) and fusable(v)):
                return False
            nu, nv = u.node, v.node
            if len(nu.out_edges) != 1 or len(nv.in_edges) != 1:
                return False
            e = nu.out_edges[0]
            if e.dst is not nv or e.push_rate <= 0 or e.pop_rate <= 0:
                return False
            if e.peek_rate != e.pop_rate:
                return False
            if u.count * e.push_rate != v.count * e.pop_rate:
                return False
            occupancy = (
                len(e.initial)
                + init_counts.get(nu, 0) * e.push_rate
                - init_counts.get(nv, 0) * e.pop_rate
            )
            return occupancy == 0

        ranges: List[Tuple[int, int]] = []
        i = 0
        while i < len(phases) - 1:
            j = i
            while j + 1 < len(phases) and links(phases[j], phases[j + 1]):
                j += 1
            if j > i:
                ranges.append((i, j))
            i = j + 1 if j > i else i + 1
        return tuple(ranges)

    def _apply_fusion(
        self,
        phases: List[CompiledPhase],
        ranges: Tuple[Tuple[int, int], ...],
        regions: Dict[int, object],
    ) -> List[object]:
        """The steady program: ``regions`` (keyed by the index of their
        first member phase) replace their members — including any fused
        chain inside a branch — and the remaining ``ranges`` fuse."""
        chains = dict(ranges)
        out: List[object] = []
        pos = 0
        while pos < len(phases):
            if pos in regions:
                out.append(regions[pos])
                pos += len(regions[pos].members)
            elif pos in chains:
                end = chains[pos]
                out.append(FusedPhase(phases[pos : end + 1], self.channels))
                pos = end + 1
            else:
                out.append(phases[pos])
                pos += 1
        return out

    # -- region lowering ------------------------------------------------------

    def _lower_regions(self) -> None:
        """Decide, once, how every splitjoin runs.

        Runs at the end of ``run_init`` — after the ``init()`` hooks and the
        init schedule — because which tier is sound depends on live filter
        state.  Structural verdicts (member ranges, gather maps) are shared
        through the plan cache; certification and tiers are per plan.
        """
        splitters = [
            n for n in self.graph.nodes
            if n.kind == SPLITTER and isinstance(n.obj, SplitJoin)
        ]
        if not splitters:
            return
        try:
            from repro.analysis.graph import certified_fusion_regions

            certified = {r.splitter: r for r in certified_fusion_regions(self.graph)}
            uncertified = (
                "not certified (SL405): stateful or inexact-rate branch filter, "
                "nested splitjoin, or initial items"
            )
        except Exception as exc:  # the plan must run whatever the analyzer does
            certified = {}
            uncertified = f"certifier failed: {type(exc).__name__}: {exc}"
        from repro.runtime.regions import RegionPhase

        index = {node: i for i, node in enumerate(self.graph.nodes)}
        structure = self._analysis.setdefault("regions", {})
        caches = self._analysis.setdefault("region_caches", {})
        lowered: Dict[int, object] = {}
        for splitter in splitters:
            region = certified.get(splitter)
            key = index[splitter]
            verdict: object = uncertified
            if region is not None:
                # Only the range is cached: a refusal names this plan's nodes.
                verdict = structure.get(key) or self._region_range(region)
            phase = None
            if not isinstance(verdict, str):
                start, end = structure[key] = verdict
                phase = lowered[start] = RegionPhase(
                    region,
                    self._steady_flat[start : end + 1],
                    self.channels,
                    caches.setdefault(key, {}),
                )
            self._region_rows.append(
                (splitter.obj.name, len(splitter.out_edges), phase, verdict)
            )
        if lowered:
            self._set_blocks(
                self._apply_fusion(self._steady_flat, self.fusion_ranges, lowered)
            )
        tracer = self.interp.tracer
        if tracer.enabled:
            from repro.obs.tracer import CAT_PLAN

            tracer.instant(
                "plan.regions",
                CAT_PLAN,
                args={"splitjoins": len(splitters), "tiers": self.region_tiers()},
            )

    def _region_range(self, region) -> object:
        """``(first, last)`` member index in the flat steady phase list when
        the region can run as one phase, else the reason it cannot.  Depends
        only on what the plan signature covers."""
        if not self.single_sweep:
            return "the steady schedule is not a single topological sweep"
        if region.joiner.flavor == COMBINE:
            return "COMBINE joiner"
        for node in region.members:
            if node in self._senders or node in self._receivers:
                return f"messaging endpoint {node.name!r} inside the region"
        if not all(region.branches):
            return "a branch has no filter"
        init_counts = self.interp.program.init.counts()
        internal = list(region.splitter.out_edges) + [
            n.out_edges[0] for n in region.filters
        ]
        for e in internal:
            if e.push_rate <= 0 or e.pop_rate <= 0:
                return f"zero-weight edge {e.src.name}->{e.dst.name}"
            if e.peek_rate != e.pop_rate:
                where = "head" if e.src is region.splitter else "stage"
                return f"peeking {where} {e.dst.name!r}"
            if (
                len(e.initial)
                + init_counts.get(e.src, 0) * e.push_rate
                - init_counts.get(e.dst, 0) * e.pop_rate
            ):
                return f"init residue on {e.src.name}->{e.dst.name}"
        position = {ph.node: i for i, ph in enumerate(self._steady_flat)}
        spots = sorted(position[n] for n in region.members)
        if spots[-1] - spots[0] + 1 != len(spots):
            return "members are not one contiguous run of the steady schedule"
        return spots[0], spots[-1]

    def region_report(self) -> List[Dict[str, object]]:
        """``[{name, tier | None, branches, reason}]``, one row per splitjoin
        in graph order (``engine_report()["regions"]``); ``reason`` says why
        ``tier`` is None.  Empty until ``run_init`` has decided."""
        rows = []
        for name, branches, phase, verdict in self._region_rows:
            tier, reason = (
                (phase.tier, phase.reason) if phase is not None else (None, verdict)
            )
            rows.append(
                {"name": name, "tier": tier, "branches": branches, "reason": reason}
            )
        return rows

    def region_tiers(self) -> Dict[str, int]:
        """How many regions run lowered by each tier (``collapse`` /
        ``permute`` / ``columns``); refused and demoted ones do not count."""
        tiers: Dict[str, int] = {}
        for row in self.region_report():
            if row["tier"] is not None:
                tiers[row["tier"]] = tiers.get(row["tier"], 0) + 1
        return tiers

    def release_scratch(self) -> None:
        """Let go of every drained scratch tape's last block (``close()``)."""
        for block in self.blocks:
            if block.kind == "fused":
                block.release()

    @property
    def fused_chains(self) -> List[Tuple[str, ...]]:
        """Stage names of each fused chain (introspection/testing)."""
        return [
            tuple(st.node.name for st in block.stages)
            for block in self.blocks
            if block.kind == "fused"
        ]

    def _chunk_periods(self, program) -> int:
        """Periods per superbatched pass, bounding per-edge buffer growth.

        A static heuristic: 512 KiB of float64 on the busiest edge.
        ``plan.chunk_periods`` is read at run time, so a caller may assign
        a different value after construction.
        """
        per_period = 1
        for edge in self.graph.edges:
            per_period = max(per_period, program.reps.get(edge.src, 0) * edge.push_rate)
        return max(1, _CHUNK_ITEM_CAP // per_period)

    # -- execution ------------------------------------------------------------

    def run_init(self) -> None:
        self.periods_done = -1
        for block in self.init_blocks:
            block.run(1)
        self.periods_done = 0
        self._lower_regions()

    def _pass_steps(self) -> Sequence[Callable[[int], None]]:
        """What one pass over ``scale`` periods calls, in order."""
        return self._steps

    def run_steady(self, periods: int) -> None:
        """Run ``periods`` steady periods in passes of up to ``chunk_periods``
        (so buffers stay bounded), every firing count of a pass scaled by
        the periods it covers.  Fusion and region lowering regroup the
        phases and never change what fires, so the interpreter credits its
        firing counts from the schedule (:attr:`Interpreter.fired`)."""
        steps = self._pass_steps()
        cap = self.chunk_periods
        if self.messaging and periods > 1:
            # One period never asks for the slack: a job's first call and a
            # per-call probe must not pay its ``min_items`` searches.
            cap = min(cap, self.message_slack)
        left = periods
        while left > 0:
            scale = min(left, cap)
            for step in steps:
                step(scale)
            self.periods_done += scale
            left -= scale

    def scalar_position(self, recv: FlatNode, pushed: int, direction: str) -> int:
        """``n(O_recv)`` where the scalar schedule has it at the send now in
        flight, given the ``pushed`` it physically stands at mid-pass: an
        upstream receiver has already run the whole pass, a downstream one
        has not started it (traces only)."""
        into = self.interp._send_order[0] - self.periods_done
        per_period = self.interp.program.reps[recv] * recv.out_edges[0].push_rate
        if direction == "upstream":
            return pushed - (self.scale_in_flight - 1 - into) * per_period
        return pushed + into * per_period

    @property
    def message_slack(self) -> float:
        """Steady periods one pass of a portal-bound plan may cover.

        The minimum, over every send ``work()`` can make and every receiver
        of its portal, of the periods that receiver may run ahead of the
        sender before the stated latency binds — Eq. mc1 through
        :meth:`ConstraintSystem.slack_periods` and the run's own wavefront
        oracle.  1 as soon as one send is best-effort or states no
        compile-time latency (SL307), one receiver sends itself, or one
        endpoint has no output tape; ``inf`` when nothing binds.  Derived
        once, from the latencies of the first multi-period ``run_steady``;
        ``post_message`` raises if a later send undercuts it.
        """
        if self._message_slack is None:
            from time import perf_counter

            t0 = perf_counter()
            self._derive_message_slack()
            tracer = self.interp.tracer
            if tracer.enabled:  # inside the first multi-period run_steady
                from repro.obs.tracer import CAT_PLAN

                tracer.complete(
                    "plan.message_slack",
                    CAT_PLAN,
                    t0,
                    perf_counter() - t0,
                    args={"constraints": len(self._message_rows)},
                )
        return self._message_slack

    def _derive_message_slack(self) -> None:
        from repro.analysis.effects import send_sites
        from repro.scheduling.sdep import WavefrontOracle

        interp = self.interp
        reps = interp.program.reps
        if interp._oracle is None:
            interp._oracle = WavefrontOracle(self.graph)
        # Tape counts at this period boundary and the next two.
        boundaries = [
            {
                e: chan.pushed_count + k * reps[e.src] * e.push_rate
                for e, chan in self.channels.items()
            }
            for k in range(3)
        ]
        rows: List[Tuple[Dict[str, object], str]] = []
        seen = set()
        for node in (n for n in self.graph.nodes if n in self._senders):
            filt = node.filter
            for site in send_sites(filt):
                portal = getattr(filt, site.attr)
                for receiver in portal.receivers:
                    key = (node, receiver, site.attr, site.method, site.latency)
                    if key in seen:  # a second call site saying the same
                        continue
                    seen.add(key)
                    direction, slack, why = self._send_slack(
                        node, receiver, site, boundaries
                    )
                    row = {
                        "sender": filt.name,
                        "receiver": receiver.name,
                        "portal": portal.name,
                        "method": site.method,
                        "direction": direction,
                        "latency": "best-effort" if site.latency is None else site.latency,
                        "slack_periods": slack,
                    }
                    rows.append((row, why))
        self._message_rows = rows
        bounds = [r["slack_periods"] for r, _ in rows if r["slack_periods"] is not None]
        self._message_slack = max(1, min(bounds)) if bounds else float("inf")

    def _send_slack(self, node: FlatNode, receiver, site, boundaries) -> tuple:
        """``(direction, slack_periods, why)`` of one send to one receiver;
        ``why`` names the reason wherever the slack is 1 by rule, not by
        Eq. mc1, and a slack of None is no bound."""
        from repro.analysis.effects import UNRESOLVED
        from repro.errors import MessagingError
        from repro.scheduling.constraints import ConstraintSystem, MessageConstraint

        recv = self.graph.node_for(receiver)
        if site.latency is None:
            return None, 1, "delivery is best-effort"
        if site.latency == UNRESOLVED:
            return None, 1, site.reason
        if recv in self._senders:
            return None, 1, "the receiver holds a Portal itself"
        if not (node.out_edges and recv.out_edges):
            return None, 1, "an endpoint has no output tape"
        try:
            system = ConstraintSystem(
                self.graph,
                [MessageConstraint(node.filter, receiver, site.latency)],
                oracle=self.interp._oracle,
            )
        except MessagingError as exc:  # endpoints on parallel branches
            return None, 1, str(exc)
        reps = self.interp.program.reps
        slacks = [system.slack_periods(counts, 0, reps) for counts in boundaries]
        return system.direction(0), None if slacks[0] is None else min(slacks), ""

    def messaging_report(self) -> Optional[Dict[str, object]]:
        """``engine_report()["messaging"]``: the chunk a portal-bound plan
        runs at, every (send, receiver) constraint behind it, and which one
        binds.  None until the slack has been derived."""
        if self._message_slack is None:
            return None
        chunk = min(self.chunk_periods, self._message_slack)
        limited_by: object = "plan.chunk_periods (the per-edge buffer cap)"
        for row, why in self._message_rows:
            slack = row["slack_periods"]
            if slack is not None and max(1, slack) == chunk:
                limited_by = row
                if why:
                    method = f".{row['method']}" if row["method"] else ""
                    limited_by = f"{row['sender']} -> {row['receiver']}{method}: {why}"
                break
        return {
            "chunk_periods": chunk,
            "constraints": [row for row, _ in self._message_rows],
            "limited_by": limited_by,
        }


def compile_and_run(
    stream,
    periods: int = 1,
    engine: str = "batched",
    check: bool = True,
    strict: bool = False,
):
    """Build an interpreter with the given engine, run it, return it.

    The one-call entry used by the benchmarks and examples::

        interp = compile_and_run(app, periods=1000)
        print(sink.collected[:8])
    """
    from repro.runtime.interpreter import Interpreter

    interp = Interpreter(stream, check=check, engine=engine, strict=strict)
    interp.run(periods)
    return interp
