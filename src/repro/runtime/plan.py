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
  *generically lifted* vector kernel when the static vectorization proof
  certifies the filter (:mod:`~repro.runtime.vectorize`) and the call has
  at least :data:`~repro.runtime.vectorize.LIFT_MIN_FIRINGS` firings, and
  as a hoisted-I/O ``work()`` loop otherwise;
* **splitter/joiner vectorization** — distribution cycles become
  reshape/interleave block copies instead of item loops;
* **region lowering** — a certified flat splitjoin (``SL405``) whose members
  are one contiguous run of a single-sweep schedule runs as *one*
  :class:`~repro.runtime.regions.RegionPhase` when a tier fits it: a single
  kernel over the unsplit tape (``collapse``) or one static gather
  (``permute``); any other splitjoin's members stay blocks of the walk;
* **one block list, one pass** — the result is :attr:`ExecutionPlan.blocks`,
  the steady program.  Each block (a phase, a region, a teleport
  endpoint, the cyclic core) has a ``kind``, ``run(scale)`` and
  ``span(scale)``; ``run_steady`` is one loop of passes, each running every
  block once with its firing count scaled by the periods the pass covers
  (chunked so buffers stay bounded).  A schedule that is a pure topological
  pass is its own block order; where feedback interleaves it, the
  feedforward prefix and suffix are blocks either side of one
  :class:`CoreLoopRunner`, the only block that iterates period-at-a-time —
  data always flows forward, so running the prefix ``P`` periods ahead
  merely buffers more, and the suffix drains exactly what the core produced;
* **tape storage** — an edge between two blocks whose consumer drains it
  within the pass (a *transit* edge) holds items only from its producer's
  step to its consumer's step, so at the first pass of more than one period
  the transit edges that are never live at the same step share one buffer
  (:meth:`ExecutionPlan._share_storage`);
* **core lowering** — the core is also the only block that runs generated
  code: at the first steady pass it lowers itself into a small module of its
  own (:func:`~repro.runtime.codegen.lower_core`), its tapes kept in locals
  where the emitter can follow them;
* **the small-call form** — a call of few periods, once the plan's
  one-period calls have paid for it, runs the whole steady schedule as one
  such module instead of the walk (:class:`SmallCalls`);
* **batched teleport messaging** — a portal-bound pass covers as many
  periods as the latencies its senders state leave the receivers free to
  run ahead (:attr:`ExecutionPlan.message_slack`, Eq. mc1 read as a
  schedule input); a :class:`SenderPhase` interleaves its firings with
  delivery checks and a :class:`ReceiverPhase` splits its batch exactly at
  the SDEP-derived delivery points
  (:meth:`~repro.runtime.messaging.PendingMessage.firings_until_due`), so
  message timing is identical to the scalar engine's per-firing semantics;
* **plan caching** — the schedule/segment analysis is memoized on
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

from collections import OrderedDict, deque
from dataclasses import dataclass
from operator import itemgetter
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import StreamItError
from repro.graph.composites import SplitJoin
from repro.graph.flatgraph import FILTER, JOINER, SPLITTER, FlatGraph, FlatNode
from repro.graph.splitjoin import COMBINE, DUPLICATE, NULL
from repro.runtime.array_channel import ArrayChannel
from repro.runtime.channel import ListTape
from repro.runtime.messaging import Portal
from repro.runtime.vectorize import LIFT_MIN_FIRINGS, BatchExecutor

#: Per-edge item cap for one superbatched chunk (512 KiB of float64).
_CHUNK_ITEM_CAP = 1 << 16


# -- node executors ----------------------------------------------------------
#
# Module-level factories so both an ExecutionPlan and the parallel runtime's
# workers (which execute plan subgraphs over mixed ArrayChannel/RingChannel
# maps) compile the same batched ``fire(n)`` callables.


def make_filter_executor(node: FlatNode) -> Callable[[int], None]:
    filt = node.filter
    if type(filt).supports_work_batch:
        return filt.work_batch
    return BatchExecutor(filt)


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
    node: FlatNode, channels: Dict[object, object]
) -> Callable[[int], None]:
    """Batched ``fire(n)`` executor for any node kind."""
    if node.kind == FILTER:
        return make_filter_executor(node)
    if node.kind == SPLITTER:
        return make_splitter_executor(node, channels)
    if node.kind == JOINER:
        return make_joiner_executor(node, channels)
    raise StreamItError(f"unknown node kind {node.kind!r}")


def make_item_op(node: FlatNode, tapes: Dict[object, object]) -> Callable[[], None]:
    """One scalar-engine firing of ``node`` over its item-at-a-time
    channels (``pop`` / ``push`` / ``pop_many`` / ``push_many``): a filter's
    ``work``, or one splitter or joiner cycle."""
    if node.kind == FILTER:
        return node.filter.work
    if node.flavor == NULL:
        return lambda: None
    if node.kind == SPLITTER:
        in_chan = tapes[node.in_edges[0]]
        if node.flavor == DUPLICATE:
            outs = [tapes[e] for e in node.out_edges]

            def fire_duplicate() -> None:
                item = in_chan.pop()
                for chan in outs:
                    chan.push(item)

            return fire_duplicate
        # Weighted round robin: per firing, weights[b] items to branch b.
        splits = [(tapes[e], node.out_rates[e.src_port]) for e in node.out_edges]
        splits = [(chan, w) for chan, w in splits if w]

        def fire_split() -> None:
            for chan, w in splits:
                chan.push_many(in_chan.pop_many(w))

        return fire_split
    if node.kind != JOINER:
        raise StreamItError(f"unknown node kind {node.kind!r}")
    out_chan = tapes[node.out_edges[0]]
    if node.flavor == COMBINE:
        ins = [tapes[e] for e in node.in_edges]
        reducer = getattr(getattr(node.obj, "joiner", None), "reducer", None)
        if reducer is None:
            reducer = lambda items: items[0]  # the default keeps the first branch's

        def fire_combine() -> None:
            out_chan.push(reducer([chan.pop() for chan in ins]))

        return fire_combine
    joins = [(tapes[e], node.in_rates[e.dst_port]) for e in node.in_edges]
    joins = [(chan, w) for chan, w in joins if w]

    def fire_join() -> None:
        for chan, w in joins:
            out_chan.push_many(chan.pop_many(w))

    return fire_join


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
    phases, segments, single-sweep legality — even though they are built
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


def timed(tracer, run: Callable[[int], None], span) -> Callable[[int], None]:
    """``run`` under a span: the one way a traced engine times a block.

    ``span(scale)`` gives ``(name, category, args)`` of one ``run(scale)``.
    A plan built with tracing on calls these in place of the bare ``run``s;
    one built with it off never sees them, so it reads no clock.
    """
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

    @property
    def name(self) -> str:
        return self.node.name

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


class CoreLoopRunner:
    """Executes a cyclic schedule core over hoisted Python-list tapes.

    The cyclic core of a feedback-interleaved schedule fires each node ~once
    per period, where block-kernel setup costs more than it saves.  Instead
    of per-firing ArrayChannel traffic, one ``run(scale)`` call moves all
    channel I/O to plain lists for the whole chunk:

    * edges internal to the core become persistent
      :class:`~repro.runtime.channel.ListTape` scratch tapes, which take
      the channels' live items (at first, the post-init contents) whenever
      the core :meth:`acquire` s them;
    * external inputs are snapshot to a list per chunk, and exactly the
      consumed prefix is dropped from the real channel afterwards;
    * external outputs accumulate in a list and land as one ``push_block``;
    * the core's filters are bound to those tapes from then on, and its
      generated module (:meth:`lower`, at the plan's first steady pass)
      runs ``scale`` periods of the steady schedule over them: each
      ``work()`` body inlined where the emitter can rewrite it and called
      where it cannot, the tapes it can follow kept in locals.

    Firing order inside a period is exactly the steady schedule's, and every
    item round-trips through Python floats, so results are bit-identical to
    the scalar engine.  History counters of bypassed internal edges are
    bumped in bulk, once a chunk (:meth:`end`).
    """

    kind = "core"

    def __init__(
        self, phases: Sequence[Tuple[FlatNode, int]], plan, name: Optional[str] = None
    ) -> None:
        self.phases: Tuple[Tuple[FlatNode, int], ...] = tuple(phases)
        self.plan = plan
        self.channels = plan.channels
        self.nodes = {node for node, _ in self.phases}
        self.name = name or "core:" + "+".join(sorted(n.name for n in self.nodes))
        nodes = self.nodes
        own = dict.fromkeys(  # an ordered set: first-seen over the phases' edge lists
            e for n, _ in self.phases for e in (*n.in_edges, *n.out_edges)
        )
        #: The core's edges by where their ends lie, in one order: two
        #: sessions over one graph emit the same module.
        self.internal = [e for e in own if e.src in nodes and e.dst in nodes]
        self.ext_in = [e for e in own if e.src not in nodes]
        self.ext_out = [e for e in own if e.dst not in nodes]
        #: Graph-wide index of each of those edges (what a generated module
        #: names a tape by).
        self.edge_index = {e: i for i, e in enumerate(plan.graph.edges) if e in own}
        self._tapes: Optional[Dict[object, ListTape]] = None
        #: True while the internal edges' items are on the tapes
        #: (:meth:`acquire` / :meth:`release`).
        self.holding = False
        #: What ``run(scale)`` calls: the generated module's ``run_chunk``,
        #: once :meth:`lower` has bound it.
        self.chunk: Optional[Callable[[int], None]] = None
        #: How the core runs, for ``engine_report()["codegen"]``: None until
        #: lowered, then ``mode`` "inline" with the module's tape forms and
        #: the filters it calls.
        self.lowering: Optional[Dict[str, object]] = None
        #: The generated module's text (None until lowered).
        self.source: Optional[str] = None
        #: The internal tapes the module keeps as lists (what ``end``
        #: compacts; a forwarded tape holds only its carried items).
        self._lists: List[ListTape] = []
        #: What runs a call whose module folded a value since rebound
        #: (:meth:`stale`); None: lower again.
        self.on_stale: Optional[Callable[[int], None]] = None

    def span(self, scale: int) -> Tuple[str, str, Dict[str, int]]:
        from repro.obs.tracer import CAT_CODEGEN

        firings = sum(count for _node, count in self.phases) * scale
        return self.name, CAT_CODEGEN, {"firings": firings, "items": 0}

    def lower(self) -> None:
        """Run through the core's generated module from now on
        (:func:`~repro.runtime.codegen.lower_core`, emitted for this core)."""
        from repro.runtime.codegen import lower_core

        self.chunk = lower_core(self)

    def keep_lists(self, edges) -> None:
        """The internal ``edges`` the module keeps as lists, set at each
        lowering."""
        self._lists = [self._tapes[e] for e in edges]

    def stale(self, scale: int) -> None:
        """Run ``scale`` periods after the module found a folded attribute
        rebound (it runs nothing then): through ``on_stale`` if set, else
        by a module lowered again from the live values."""
        if self.on_stale is not None:
            self.on_stale(scale)
            return
        self.lower()
        self.chunk(scale)

    # -- compilation (lazy: runs after init, when channels hold real state) --

    def _build(self) -> None:
        tapes = self._tapes = {
            e: ListTape(f"core:{e.src.name}->{e.dst.name}") for e in self.edge_index
        }
        self._by_index = {i: tapes[e] for e, i in self.edge_index.items()}
        counts: Dict[FlatNode, int] = {}
        for node, count in self.phases:
            counts[node] = counts.get(node, 0) + count
        self._ext_in = [(self.channels[e], tapes[e]) for e in self.ext_in]
        self._ext_out = [(self.channels[e], tapes[e]) for e in self.ext_out]
        self._internal = [(self.channels[e], tapes[e]) for e in self.internal]
        self._bumps = [
            (self.channels[e], counts[e.src] * e.push_rate) for e in self.internal
        ]
        #: (filter, its (input, output) on the channels, on the tapes)
        self._bindings = []
        for node in self.nodes:
            if node.kind == FILTER:
                e_in = node.in_edges[0] if node.in_edges else None
                e_out = node.out_edges[0] if node.out_edges else None
                self._bindings.append(
                    (
                        node.filter,
                        (self.channels.get(e_in), self.channels.get(e_out)),
                        (tapes.get(e_in), tapes.get(e_out)),
                    )
                )

    # -- custody of the internal edges' items ----------------------------------
    #
    # While the core holds them, the items on its internal edges live on its
    # tapes (the channels stay empty, their history counters bumped in bulk
    # per chunk) and its filters read and write those tapes.  ``release``
    # hands both back at a chunk boundary, so whatever runs next finds the
    # items on the channels and the filters bound to them; the next chunk
    # takes them again.

    def acquire(self) -> None:
        """Take the internal edges' items onto the tapes (at first, the
        post-init contents: feedback delay items) and bind the filters to
        the tapes."""
        if self._tapes is None:
            self._build()
        for chan, tape in self._internal:
            tape.items = chan.detach_all() if len(chan) else []
            tape.cursor = 0
        for filt, _channels, (tape_in, tape_out) in self._bindings:
            filt.input, filt.output = tape_in, tape_out
        self.holding = True

    def release(self) -> None:
        """Hand the internal edges' items back to their channels and bind
        the filters to the channels again."""
        for chan, tape in self._internal:
            if len(tape.items) > tape.cursor:
                chan.attach(tape.items[tape.cursor :])
            tape.items = []
            tape.cursor = 0
        for filt, (chan_in, chan_out), _tapes in self._bindings:
            filt.input, filt.output = chan_in, chan_out
        self.holding = False

    # -- execution -----------------------------------------------------------
    #
    # ``begin`` / ``end`` are the chunk boundary around the generated
    # module's loop, which reaches its tapes through ``items`` and keeps
    # their read positions in locals: ``set_cursor`` hands one back (at the
    # loop's end, and before a called ``work()`` pops), ``cursor`` takes it
    # again after the call.

    def held(self, edge) -> int:
        """Items on ``edge``'s tape at a chunk boundary."""
        if not self.holding:
            self.acquire()
        tape = self._tapes[edge]
        return len(tape.items) - tape.cursor

    def items(self, index: int) -> list:
        return self._by_index[index].items

    def set_cursor(self, index: int, cursor: int) -> None:
        self._by_index[index].cursor = cursor

    def cursor(self, index: int) -> int:
        return self._by_index[index].cursor

    def begin(self) -> None:
        """Snapshot every external input into its tape."""
        if not self.holding:
            self.acquire()
        for chan, tape in self._ext_in:
            tape.items = chan.peek_block(len(chan)).tolist()
            tape.cursor = 0

    def end(self, scale: int) -> None:
        """Drop the consumed input prefix, land the accumulated outputs as
        one ``push_block`` each, compact the internal tapes that stay lists
        and bulk-bump the bypassed history counters."""
        for chan, tape in self._ext_in:
            if tape.cursor:
                chan.drop(tape.cursor)
        for chan, tape in self._ext_out:
            if tape.items:
                chan.push_block(np.asarray(tape.items, dtype=np.float64))
                tape.items = []
        for tape in self._lists:
            tape.compact()
        for chan, per_period in self._bumps:
            moved = per_period * scale
            chan.pushed_count += moved
            chan.popped_count += moved

    def run(self, scale: int) -> None:
        self.chunk(scale)


#: Copies of a core's round that are still inlined rather than looped over.
_INLINE_ROUNDS = 8


def _repeating_unit(phases: list) -> Tuple[list, int]:
    """``(unit, k)`` with ``unit * k == phases`` and ``unit`` the shortest."""
    n = len(phases)
    for size in range(1, n // 2 + 1):
        if n % size == 0 and phases == phases[:size] * (n // size):
            return phases[:size], n // size
    return phases, 1


#: Most statements :class:`~repro.runtime.codegen_emit.CoreEmitter` writes
#: for one unrolled ``for`` loop of a ``work()`` body, or for one node's
#: firings in a row; past it the loop (or one firing) stays rolled.  A FIR
#: of n taps (a multiply-accumulate loop over a list tape) in a small-call
#: form on the 2-CPU reference host: us a period inside the module, rolled
#: and unrolled (the lowest of 25 interleaved 100-period chunks), and ms to
#: lower (best of three):
#:
#:     taps            4     16     32     64    128    256    512
#:     rolled us    0.54   1.06   1.64   2.94   5.67  11.95  27.35
#:     unrolled us  0.29   0.69   1.15   2.13   4.12   9.24  19.59
#:     rolled ms    0.87   0.61   0.60   0.60   0.64   0.73   0.78
#:     unrolled ms  0.76   1.22   2.13   3.62   6.77  13.44  26.30
#:
#: Unrolling such a loop saves a quarter to a third of it at every size,
#: while each statement written costs about 50 us to lower, once: it pays
#: back only after some thousands of periods, and a whole program's text
#: (its compile memory) grows with every copy.  So a loop that reaches
#: only tapes on lists is unrolled within a sixteenth of the budget (a drop
#: loop, which writes nothing, always is), and one that forwards a tape —
#: whose items then never touch a list — within the whole of it.
_UNROLL_MAX = 256


def inline_items(phases: Sequence[Tuple[FlatNode, int]]) -> int:
    """The size of what :class:`~repro.runtime.codegen_emit.CoreEmitter`
    writes for ``phases``, read before it writes anything, in items: every
    filter firing of its loop body counts the items it pops and pushes,
    half the items of its peek window and one item per 64 bytes of its
    ``work()`` bytecode (a round repeated more than :data:`_INLINE_ROUNDS`
    times is written once, and a node's firings in a row one after another
    up to :data:`_UNROLL_MAX` items, once under a loop past it).  A
    splitter's or joiner's moves mostly rename forwarded locals, and count
    nothing."""
    phases = list(phases)
    round_, repeats = _repeating_unit(phases)
    size = 0
    for node, count in round_ if repeats > _INLINE_ROUNDS else phases:
        if node.kind == FILTER:
            rate = node.filter.rate
            code = getattr(type(node.filter).work, "__code__", None)
            items = rate.pop + rate.push + rate.peek // 2
            items += len(code.co_code) // 64 if code is not None else 1
            size += items * (count if count * items <= _UNROLL_MAX else 1)
    return size


#: Seconds a whole-program lowering (emit, compile, bind) takes per item of
#: :func:`inline_items`: what a plan expects its small-call form to cost
#: before it pays for it.  The median over the 18 portal-free apps on the
#: 2-CPU reference host, each lowered three times in one process (best of
#: three, so a class's ``work()`` is parsed before the lowering timed):
#:
#:     app            items   lower ms   us/item   module lines
#:     BitonicSort       616       12.5      20.3            162
#:     ChannelVocoder    531       19.8      37.3            388
#:     DCT              1629       87.5      53.7           1135
#:     DES             17752      260.5      14.7           4502
#:     FFT              2054       78.6      38.3            797
#:     FilterBank       1888       24.6      13.0            618
#:     FMRadio           289        3.4      11.8            104
#:     Serpent          9364      531.3      56.7           7067
#:     TDE              4011      109.5      27.3           1085
#:     MPEG2Decoder     1484       69.7      47.0            794
#:     Vocoder           442        9.6      21.7            264
#:     Radar             308       13.4      43.5            278
#:     FIR                75        0.9      12.0             30
#:     RateConvert        96        3.1      32.3             61
#:     TargetDetect      179        3.0      16.8             77
#:     Oversampler       414       11.4      27.5            206
#:     DToA              138        3.9      28.3             93
#:     Beamformer        364        9.1      25.0            238
#:
#: The estimate is within 4x of every measurement (Serpent's and DCT's
#: selects and matrix rows are under-estimated 2.1x and 2.0x, FMRadio's and
#: FIR's rolled windows over-estimated 2.3x).  Bytecode bytes alone no
#: longer predict it: an unrolled loop writes a statement per item it
#: forwards whatever its bytecode, and per byte of the former estimate
#: these lowerings take 0.46 (BitonicSort) to 11.0 us (FFT), so FFT and TDE
#: fall more than 4x from the median.  The eleven timed calls of a compile job
#: (``run_init`` and twelve one-period calls) stay below every app's budget
#: by 2.6x (Vocoder) or more.
LOWER_S_PER_ITEM = 2.7e-5

#: One-period calls of each form the trial compares: the form's first
#: three after the lowering against the walk's last three before it (the
#: median of three drops one call that carries a switch or a collection).
_TRIAL_CALLS = 3


class SmallCalls:
    """The plan's second form, for calls of few periods: the whole steady
    schedule as one :class:`CoreLoopRunner`, lowered by the emitter that
    lowers a feedback core (:func:`~repro.runtime.codegen.lower_core`).

    The walk pays per block (a numpy call, a channel transfer) what one
    inlined loop over every firing does not, and at one period that is
    most of a call.  The form fires the steady schedule in its own order
    over Python floats, so it is bit-exact to the scalar engine by
    construction: which form runs a call changes its time, never its
    output.

    The plan lowers it lazily and times the one-period calls it decides on
    itself (a ``perf_counter()`` pair around each, and only while
    ``deciding``; never the call that runs the plan's first pass or the one
    that lowers).  Ski rental: lowering is worth it once the walk's
    one-period calls have together taken ``budget``, what the lowering is
    expected to cost (rent paid up to the price of buying never costs more
    than twice the better choice made in hindsight).  Then
    :data:`_TRIAL_CALLS` one-period calls run the form, and the median of
    those against the median of the walk's last :data:`_TRIAL_CALLS`
    one-period calls gives the crossover: the largest ``s`` with
    ``s * emitted(1) < walk(1)``.  From then on a call of ``s`` periods
    runs the form when ``s <= limit`` and the walk otherwise; a crossover
    of 0 refuses the form.

    Live items stay on whichever form ran last.  Either form takes the
    next call over from the other at a period boundary: the form's
    :meth:`CoreLoopRunner.release` moves every edge's items back to the
    channels and binds every filter to them again, and a feedback core
    retakes its own at its next chunk; history counters are bumped in bulk
    all along.
    """

    def __init__(self, plan: "ExecutionPlan") -> None:
        self.plan = plan
        #: The lowered whole-program runner; None before lowering and once
        #: refused.
        self.form: Optional[CoreLoopRunner] = None
        self._chunk: Optional[Callable[[int], None]] = None
        #: Calls of at most this many periods run the form (0: none yet).
        self.limit = 0
        #: Are the live items on the form's tapes?
        self.live = False
        self.deciding = True
        #: Why the plan keeps the walk for every call; None while it may not.
        self.reason: Optional[str] = None
        self.lines: Optional[int] = None
        self.lower_s: Optional[float] = None
        #: Seconds the lowering is expected to cost (set at the first rent).
        self.budget: Optional[float] = None
        #: Seconds the walk's timed one-period calls have taken together.
        self.rent = 0.0
        #: The walk's last and the form's first timed one-period calls.
        self.walk: deque = deque(maxlen=_TRIAL_CALLS)
        self.emit: List[float] = []

    def run(self, periods: int) -> None:
        sample = self._sample() if self.deciding and periods == 1 else None
        if sample is not None:
            t0 = perf_counter()
        if periods <= self.limit:
            if not self.live:
                self._take()
            self._chunk(periods)
        else:
            if self.live:
                self._give()
            self.plan._walk(periods)
        if sample is not None:
            sample(perf_counter() - t0)

    # -- deciding ------------------------------------------------------------

    def _sample(self) -> Optional[Callable[[float], None]]:
        """Lower or decide where the evidence says so before a one-period
        call; what takes the call's seconds (None: the call is not timed)."""
        if self.plan._steps is None:
            return None
        if self.form is None:
            if self.budget is None:
                self.budget = LOWER_S_PER_ITEM * inline_items(self.plan.interp.program.steady)
            if self.rent < self.budget:
                return self._walked
            self.lower()
            self.limit = 1
            return None
        if len(self.emit) < _TRIAL_CALLS:
            return self.emit.append
        self._decide()
        return None

    def _walked(self, seconds: float) -> None:
        self.walk.append(seconds)
        self.rent += seconds

    def _decide(self) -> None:
        from math import ceil
        from statistics import median

        walk, emit = median(self.walk), median(self.emit)
        crossover = ceil(walk / emit) - 1
        if crossover < 1:
            self.refuse(
                f"the emitted form took {emit * 1e6:.0f} us a period, "
                f"the walk {walk * 1e6:.0f} us"
            )
        else:
            self.limit = crossover
            self.deciding = False

    def lower(self) -> None:
        """Emit, compile and bind the form now; it holds the live items
        from here on."""
        plan = self.plan
        t0 = perf_counter()
        if plan._steps is None:
            plan._first_pass()
        if self.live:
            self._give()
        self._release_cores()
        form = CoreLoopRunner(plan.interp.program.steady, plan, name="program")
        form.on_stale = self._stale
        form.lower()
        tracer = plan.interp.tracer
        self._chunk = timed(tracer, form.run, form.span) if tracer.enabled else form.chunk
        self.form, self.live = form, True
        self.lines = form.source.count("\n")
        self.lower_s = perf_counter() - t0
        if tracer.enabled:
            from repro.obs.tracer import CAT_PLAN

            tracer.complete("plan.small_calls.lower", CAT_PLAN, t0, self.lower_s)

    def refuse(self, reason: str) -> None:
        """Keep the walk for every call from now on and drop the module."""
        if self.live:
            self._give()
        self.form = self._chunk = None
        self.reason = reason
        self.limit = 0
        self.deciding = False
        self.plan._run = self.plan._walk

    def _stale(self, periods: int) -> None:
        """The form folded a filter attribute that has since been rebound:
        drop it, run the call on the walk and rent again."""
        self._give()
        self.form = self._chunk = None
        self.limit, self.rent, self.deciding = 0, 0.0, True
        self.walk.clear()
        self.emit = []
        self.plan._walk(periods)

    def force(self, limit: int) -> None:
        """Lower now and run the form for every call of at most ``limit``
        periods, with no rent and no trial (a test hook: the decision is
        timing's, and a test must cross both forms deterministically)."""
        self.lower()
        self.limit = limit
        self.deciding = False

    # -- switching -----------------------------------------------------------

    def _release_cores(self) -> None:
        for block in self.plan.blocks:
            if block.kind == "core" and block.holding:
                block.release()

    def _take(self) -> None:
        """The walk hands over: its feedback cores give their items back,
        then the form takes every edge's."""
        self._release_cores()
        self.form.acquire()
        self.live = True

    def _give(self) -> None:
        """The form hands over: every edge's items and filter back on the
        channels (a feedback core retakes its own at its next chunk)."""
        self.form.release()
        self.live = False

    def report(self) -> Dict[str, object]:
        """``engine_report()["codegen"]["small_calls"]``: ``walk_us`` is the
        median of the walk's last :data:`_TRIAL_CALLS` timed one-period
        calls, ``emitted_us`` of the form's first."""
        from statistics import median

        if self.reason is not None:
            state = "refused"
        elif self.form is None:
            state = "renting"
        else:
            state = "trying" if self.deciding else "lowered"
        return {
            "state": state,
            "reason": self.reason,
            "crossover": self.limit,
            "lines": self.lines,
            "lower_s": self.lower_s,
            "walk_us": median(self.walk) * 1e6 if self.walk else None,
            "emitted_us": median(self.emit) * 1e6 if self.emit else None,
            "budget_s": self.budget,
            "rent_s": self.rent,
        }


class ExecutionPlan:
    """The compiled engine's form of one interpreter's schedule: the block
    list a pass walks (``engine="codegen"``, or its alias ``"batched"``)."""

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
            analysis = self._analyze(program)
            _PLAN_CACHE[signature] = analysis
            while len(_PLAN_CACHE) > _PLAN_CACHE_MAX:
                _PLAN_CACHE.popitem(last=False)
                plan_cache_stats["evictions"] += 1
        self.single_sweep: bool = analysis["single_sweep"]
        self.chunk_periods: int = analysis["chunk_periods"]
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
        #: The transit edges' shared buffers, ``(slot, its tapes)`` each;
        #: None until the first pass of more than one period assigns them.
        self._slots: Optional[List[Tuple[np.ndarray, List[ArrayChannel]]]] = None
        #: Per splitjoin: (name, branches, its RegionPhase or None, the
        #: reason it has none); see :meth:`region_report`.
        self._region_rows: List[tuple] = []
        #: Provisional until :meth:`_lower_regions` (end of ``run_init``)
        #: has replaced every lowerable splitjoin by its RegionPhase.
        self._set_blocks(
            list(steady)
            if self.single_sweep
            else self._segmented(steady, analysis["segments_idx"])
        )
        #: The small-call form (:class:`SmallCalls`), or why there is none.
        self.small: Optional[SmallCalls] = None
        self._small_refusal = self._small_calls_refusal()
        if self._small_refusal is None:
            self.small = SmallCalls(self)
        #: What ``run_steady`` calls: the small-call form's dispatch, or the
        #: walk alone.
        self._run: Callable[[int], None] = (
            self._walk if self.small is None else self.small.run
        )

    def _small_calls_refusal(self) -> Optional[str]:
        """Why this plan has no small-call form (None: it has one)."""
        if self.messaging:
            return "the graph has portals: a sender fires one work() at a time"
        for node in self.graph.filter_nodes():
            if not type(node.filter).work_batch_exact:
                return (
                    f"{node.name}'s work_batch may round differently from its "
                    "work(), which the emitted form runs"
                )
        return None

    def _set_blocks(self, blocks: List[object]) -> None:
        """Make ``blocks`` the steady program; the first steady pass turns
        it into the steps a pass calls (:meth:`_first_pass`)."""
        self.blocks = blocks
        self._steps: Optional[Tuple[Tuple[Callable[[int], None], int], ...]] = None

    def _first_pass(self) -> Tuple[Tuple[Callable[[int], None], int], ...]:
        """Settle, once, what only a running session needs.

        The rate reports this process computed go to the cache directory
        for the next process (whatever the graph is), and the feedback core
        lowers itself.  Then the steps: ``(fire, count)`` pairs a pass calls
        as ``fire(count * scale)`` — a phase's executor directly, every
        other block's ``run`` with a count of 1 — and under tracing (fixed
        when the interpreter was built) each block's ``run`` through
        :func:`timed`.
        """
        from repro.analysis.rates import MEMO

        MEMO.flush()
        for block in self.blocks:
            if block.kind == "core":
                block.lower()
        tracer = self.interp.tracer
        if tracer.enabled:
            steps = tuple((timed(tracer, b.run, b.span), 1) for b in self.blocks)
        else:
            steps = tuple(
                (b.fire, b.count) if b.kind == "phase" else (b.run, 1)
                for b in self.blocks
            )
        self._steps = steps
        return steps

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
            self._executors[node] = make_node_executor(node, self.channels)
        return self._executors[node]

    def vectorization_report(self) -> Dict[str, Dict[str, object]]:
        """Per-filter executor outcome: mode, trust, and downgrade reason.

        Executors resolve at ``run_init``, so entries show ``"untried"``
        before it.
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

    def _analyze(self, program) -> dict:
        # A portal-bound schedule is always a single sweep here: the
        # interpreter runs any other on the scalar engine (SL302).
        single_sweep = single_topological_sweep(self.graph, program.steady)
        return {
            "single_sweep": single_sweep,
            "chunk_periods": self._chunk_periods(program),
            "segments_idx": ((), ()) if single_sweep else self._segment_sets(),
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
        core = CoreLoopRunner(core_phases, self)
        return aggregate(pre_set) + [core] + aggregate(suf_set)

    @staticmethod
    def _with_regions(
        phases: List[CompiledPhase], regions: Dict[int, object]
    ) -> List[object]:
        """The steady program: ``regions`` (keyed by the index of their
        first member phase) replace their members."""
        out: List[object] = []
        pos = 0
        while pos < len(phases):
            if pos in regions:
                out.append(regions[pos])
                pos += len(regions[pos].members)
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
        from repro.runtime.regions import RegionPhase, region_tier

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
                members = self._steady_flat[start : end + 1]
                tier = region_tier(region, members)
                if isinstance(tier, str):
                    verdict = tier
                else:
                    phase = lowered[start] = RegionPhase(
                        region, members, self.channels, caches.setdefault(key, {}), tier
                    )
            self._region_rows.append(
                (splitter.obj.name, len(splitter.out_edges), phase, verdict)
            )
        if lowered:
            self._set_blocks(self._with_regions(self._steady_flat, lowered))
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
        ``permute``); refused and demoted ones do not count."""
        tiers: Dict[str, int] = {}
        for row in self.region_report():
            if row["tier"] is not None:
                tiers[row["tier"]] = tiers.get(row["tier"], 0) + 1
        return tiers

    def codegen_report(self) -> Dict[str, object]:
        """``engine_report()["codegen"]``: one row per block — ``kind``,
        ``name`` and ``mode``, which is ``"walk"`` for every block but the
        feedback core, whose row is its :attr:`CoreLoopRunner.lowering` —
        the ``crossover`` (:data:`~repro.runtime.vectorize.LIFT_MIN_FIRINGS`,
        the fewest firings a lifted filter runs its kernel for),
        ``small_calls`` (:meth:`SmallCalls.report`, or ``refused`` with the
        reason the plan has no small-call form), and the on-disk store's
        counters and directory."""
        from repro.diskcache import cache_dir, codegen_cache_stats

        blocks = []
        for block in self.blocks:
            row: Dict[str, object] = {"kind": block.kind, "name": block.name, "mode": "walk"}
            if block.kind == "region":
                row["tier"] = block.tier
            elif block.kind == "core":
                row.update(block.lowering or {"mode": None})
            blocks.append(row)
        if self.small is not None:
            small = self.small.report()
        else:
            small = {"state": "refused", "reason": self._small_refusal, "crossover": 0}
        return {
            "blocks": blocks,
            "crossover": LIFT_MIN_FIRINGS,
            "small_calls": small,
            "storage": self.storage_report(),
            "cache": {**codegen_cache_stats, "disk_dir": str(cache_dir())},
        }

    def storage_report(self) -> Dict[str, int]:
        """``engine_report()["codegen"]["storage"]``: the transit edges
        still on a slot, the slots they use and those slots' bytes, and the
        bytes of every other channel's buffer (all of them before the first
        pass of more than one period)."""
        shared: Dict[int, np.ndarray] = {}
        transit = 0
        for slot, tapes in self._slots or ():
            on_slot = sum(1 for chan in tapes if chan._buf is slot)
            if on_slot:
                shared[id(slot)] = slot
                transit += on_slot
        private: Dict[int, int] = {}
        for chan in self.channels.values():
            if id(chan._buf) not in shared:
                private[id(chan._buf)] = chan._buf.nbytes
        return {
            "transit_edges": transit,
            "slots": len(shared),
            "slot_bytes": sum(slot.nbytes for slot in shared.values()),
            "private_bytes": sum(private.values()),
        }

    def release_scratch(self) -> None:
        """Hand the small-call form's items back to the channels and forget
        the slots (``close()``, which trims every tape off them; a later
        pass of more than one period assigns them again)."""
        if self.small is not None and self.small.live:
            self.small._give()
        self._slots = None

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
        # init() has set the attribute values the lifting proof reads:
        # decide every executor's mode here, not inside a steady call.
        for fire in self._executors.values():
            if isinstance(fire, BatchExecutor):
                fire.resolve()
        self.periods_done = -1
        for block in self.init_blocks:
            block.run(1)
        self.periods_done = 0
        self._lower_regions()

    def run_steady(self, periods: int) -> None:
        """Run ``periods`` steady periods: by the walk (:meth:`_walk`), or
        for a small call, once the plan has lowered it, by the small-call
        form (:class:`SmallCalls`)."""
        self._run(periods)

    def _walk(self, periods: int) -> None:
        """Run ``periods`` steady periods in passes of up to ``chunk_periods``
        (so buffers stay bounded), every firing count of a pass scaled by
        the periods it covers.  Region lowering regroups the phases
        and never changes what fires, so the interpreter credits its
        firing counts from the schedule (:attr:`Interpreter.fired`)."""
        steps = self._steps
        if steps is None:
            steps = self._first_pass()
        cap = self.chunk_periods
        if self.messaging and periods > 1:
            # One period never asks for the slack: a job's first call and a
            # per-call probe must not pay its ``min_items`` searches.
            cap = min(cap, self.message_slack)
        if periods > 1 and self._slots is None and cap > 1:
            self._share_storage(cap)
        left = periods
        while left > 0:
            scale = min(left, cap)
            for fire, count in steps:
                fire(count * scale)
            self.periods_done += scale
            left -= scale

    def _share_storage(self, cap: int) -> None:
        """Give the transit edges shared buffers, once, at a pass boundary.

        A *transit* edge joins two different walked blocks (a phase,
        sender, receiver or region; never the feedback core),
        its consumer pops what it peeks, and it is empty at a pass boundary:
        its consumer drains it within the pass, so it holds items only from
        its producer's step to its consumer's step, inclusive.  Greedy
        interval colouring in step order puts edges whose intervals are
        disjoint on one *slot*, one buffer sized for the largest pass of
        ``cap`` periods among them (best fit among the free slots, else the
        largest).  Every other edge — inside a region, at the core,
        holding residue — keeps its own buffer.
        """
        from mmap import mmap

        step: Dict[FlatNode, int] = {}
        for i, block in enumerate(self.blocks):
            if block.kind == "core":
                continue
            if block.kind == "region":
                step.update((ph.node, i) for ph in block.members)
            else:
                step[block.node] = i
        reps = self.interp.program.reps
        spans = []
        for edge, chan in self.channels.items():
            src, dst = step.get(edge.src), step.get(edge.dst)
            if src is None or dst is None or src >= dst or len(chan):
                continue
            items = cap * reps[edge.src] * edge.push_rate
            if edge.peek_rate == edge.pop_rate and items:
                spans.append((src, dst, items, chan))
        spans.sort(key=lambda span: span[:2])
        slots: List[list] = []  # [size, last step, tapes] each
        by_size = itemgetter(0)
        for src, dst, items, chan in spans:
            free = [slot for slot in slots if slot[1] < src]
            if not free:
                slots.append([items, dst, [chan]])
                continue
            fits = [slot for slot in free if slot[0] >= items]
            slot = min(fits, key=by_size) if fits else max(free, key=by_size)
            slot[0] = max(slot[0], items)
            slot[1] = dst
            slot[2].append(chan)
        self._slots = []
        for size, _end, tapes in slots:
            # An anonymous mapping: only the pages a pass writes become
            # resident (a heap block below malloc's mmap threshold may be
            # recycled memory that is resident in full).
            buf = np.frombuffer(mmap(-1, size * 8), dtype=np.float64)
            for chan in tapes:
                chan.share(buf)
            self._slots.append((buf, tapes))

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
