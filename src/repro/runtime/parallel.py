"""Process-based multicore execution of mapped stream programs.

``Interpreter(engine="parallel", strategy=..., cores=N)`` runs a partition
produced by the :mod:`repro.mapping.strategies` pipeline on real OS cores:

* :func:`repro.mapping.strategies.partition_nodes` projects the strategy's
  model transform (coarsen → fiss → fuse → assign) back onto the live flat
  graph, collapsing fission replicas and co-locating feedback cycles;
* each used core becomes a **worker process**, forked after ``init()`` hooks
  so filters are inherited with their initialized state (no pickling —
  lambdas in reducers and init paths survive);
* the parent process is **worker 0** and keeps every I/O endpoint (sources,
  sinks) — mirroring the paper's off-chip I/O convention and keeping
  ``sink.collected`` observable without result shipping;
* every graph edge crossing a worker boundary becomes a blocking
  :class:`~repro.runtime.ring.RingChannel` in one shared-memory
  :class:`~repro.runtime.ring.RingArena`; intra-worker edges stay ordinary
  :class:`~repro.runtime.array_channel.ArrayChannel` tapes, so each worker
  executes the same batched executors as the single-process plan
  (:func:`repro.runtime.plan.make_node_executor`) over its restricted
  schedule (:func:`repro.scheduling.steady.restrict_schedule`);
* a steady-state request runs in batches of :attr:`batch_periods` periods.
  Software-pipelined strategies (``softpipe``, ``combined``, ``space``)
  free-run: the init schedule acts as the pipeline prologue and the ring
  slack realizes the steady-state overlap of the modulo schedule.
  Task/data-style strategies (``task``, ``fine_grained``, ``data``) run
  **double-buffered** whenever every cross-worker ring capacity is proved
  (SL404): the allocated capacity holds the proved single-batch peak plus a
  full second batch generation, so producers run ahead into buffer
  generation ``g+1`` while consumers drain generation ``g`` — no per-batch
  barrier at all.  Only when a capacity proof is unavailable do they fall
  back to the **dag** discipline with its barrier after every batch;
* workers obey a *batched* command protocol: one steady-run **program**
  (period count + chunk schedule, written once into the arena header) per
  ``run_steady()`` call, so workers free-run through the whole request with
  zero mid-run round trips.  Control traffic is counted
  (``protocol_report()``) and tier-1 asserts O(1) commands per worker per run.
  Failures are reported through an error queue tagged with the firing
  filter's instance name, and every peer is unblocked via the arena-wide
  abort flag — no orphaned processes, no partial hangs;
* setup is amortized: workers fork once per session and stay warm across
  ``run()`` calls (``fork_count`` is observable), the partition/proof
  computation is memoized in a structural plan cache keyed by the PR-6
  plan fingerprint, and shared-memory segments are parked in a bounded
  warm-arena pool on clean close so the next session of the same footprint
  skips ``shm_open``/``mmap`` (:func:`drain_warm_arenas` reclaims them;
  an ``atexit`` hook drains at interpreter shutdown).

Graphs the engine cannot run safely raise :class:`ParallelUnsafe` during
setup; the interpreter downgrades to ``engine="batched"`` with a structured
``SL304`` diagnostic instead of erroring.
"""

from __future__ import annotations

import atexit
import gc
import multiprocessing
import os
import signal
import threading
import time
import traceback
import weakref
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import StreamItError
from repro.graph.flatgraph import FILTER, FlatNode
from repro.obs.metrics import METRICS
from repro.obs.recorder import FLIGHT, format_flight_tail
from repro.obs.watchdog import StallWatchdog
from repro.runtime.array_channel import ArrayChannel
from repro.runtime.plan import make_node_executor
from repro.runtime.ring import (
    _SPIN_ITERS,
    RingAbort,
    RingArena,
    RingChannel,
    RingStall,
)
from repro.scheduling.steady import Schedule, restrict_schedule

# Always-on telemetry: the counters mirror protocol_report() fields so a
# Prometheus scrape sees the same control-plane accounting the tests assert.
_M_FORKS = METRICS.counter(
    "repro_parallel_forks_total", "Worker fork generations (1 per warm session)"
)
_M_COMMANDS = METRICS.counter(
    "repro_parallel_commands_total", "Parent control commands by kind"
)
_M_BARRIER_WAITS = METRICS.counter(
    "repro_parallel_barrier_waits_total", "Parent-side barrier waits"
)
_M_FAILURES = METRICS.counter(
    "repro_parallel_failures_total", "Parallel session failures by kind"
)
_M_RING_STALLS = METRICS.counter(
    "repro_ring_stalls_total", "RingStall timeouts by blocked side"
)

#: Command codes written to the arena header by the parent.
_CMD_INIT, _CMD_STEADY, _CMD_SHUTDOWN = 1, 2, 3

#: Target items per cross-worker edge per batch (sizes batch_periods).
#: Bigger batches amortize the per-batch Python dispatch each worker pays
#: per node; ~1 MiB of float64 per edge bounds the shared-memory cost.
_BATCH_TARGET_ITEMS = 1 << 17
#: Upper bound on periods per batch.
_BATCH_MAX_PERIODS = 4096
#: Backoff-nap ceiling for session rings: a blocked worker overshoots its
#: peer's finish by at most this much (the ring module's 1 ms default
#: wasted a visible slice of every batch).  On
#: oversubscribed hosts each wake-up also *preempts* the busy peer, so the
#: ceiling trades tail latency against stolen quanta — 400 us measured
#: best across the app suite on a single-CPU host.
_WAIT_SLEEP_CAP = 400e-6
#: Seconds a barrier wait may block before the session is declared dead.
_BARRIER_TIMEOUT = 300.0

#: Strategies whose paper discipline is per-period DAG barriers; with
#: proved ring capacities they run barrier-free under double buffering.
_DAG_STRATEGIES = frozenset({"task", "fine_grained", "data"})

#: Per-command cap on one worker's locally-buffered trace spans.
_TRACE_BUF_CAP = 200_000


#: Seconds a blocked ring wait may starve before RingStall fires.
RING_STALL_S = 120.0

#: Extra batches of ring headroom on top of each proved minimal capacity:
#: one lets a producer run a whole batch generation ahead (the double
#: buffer); zero runs at the proved minimum, still stall-free.
RING_SLACK_BATCHES = 1


# ---------------------------------------------------------------------------
# Warm-arena pool: shared-memory segments parked across sessions
# ---------------------------------------------------------------------------

#: Parked (still-mapped) shared-memory segments from cleanly-closed
#: sessions, newest last.  Bounded; drained at interpreter exit.
_WARM_ARENAS: List[object] = []
_WARM_ARENAS_MAX = 4


def drain_warm_arenas() -> int:
    """Unlink every parked shared-memory segment; returns how many."""
    drained = 0
    while _WARM_ARENAS:
        segment = _WARM_ARENAS.pop()
        try:
            segment.close()
            segment.unlink()
        except Exception:  # pragma: no cover - already gone
            pass
        drained += 1
    return drained


atexit.register(drain_warm_arenas)


def _adopt_warm_arena(size_needed: int):
    """Smallest parked segment that fits, or None (pool keeps the rest)."""
    fits = [s for s in _WARM_ARENAS if s.size >= size_needed]
    if not fits:
        return None
    best = min(fits, key=lambda s: s.size)
    _WARM_ARENAS.remove(best)
    return best


def _park_arena(arena: RingArena) -> bool:
    """Park a cleanly-closed arena's segment for reuse (bounded pool)."""
    segment = arena.park()
    if segment is None:
        return False
    _WARM_ARENAS.append(segment)
    while len(_WARM_ARENAS) > _WARM_ARENAS_MAX:
        victim = _WARM_ARENAS.pop(0)
        try:
            victim.close()
            victim.unlink()
        except Exception:  # pragma: no cover - already gone
            pass
    return True


# ---------------------------------------------------------------------------
# Structural plan cache: partition + proofs memoized by plan fingerprint
# ---------------------------------------------------------------------------

#: fingerprint-keyed structural decisions (partition by node name, batch
#: sizing, ring-capacity proof payloads) — everything about a session that
#: depends only on the graph's structure, not on live filter state.
_STRUCT_CACHE: Dict[Tuple, Dict[str, object]] = {}
_STRUCT_CACHE_MAX = 32
struct_cache_stats = {"hits": 0, "misses": 0}


def clear_struct_cache() -> None:
    _STRUCT_CACHE.clear()
    struct_cache_stats["hits"] = 0
    struct_cache_stats["misses"] = 0


def _struct_cache_key(interp, strategy: str, cores: int) -> Tuple:
    """(plan fingerprint, strategy, cores): the core-module cache's fingerprint
    (structural signature + per-class work code hashes) without messaging
    endpoints — portal-bound graphs never reach the parallel engine."""
    from repro import __version__
    from repro.runtime.codegen_emit import plan_fingerprint
    from repro.runtime.plan import _plan_signature

    signature = _plan_signature(interp.graph, interp.program, (), ())
    # plan_fingerprint reads only ``.graph`` of its plan argument.
    fingerprint = plan_fingerprint(interp, signature, __version__)
    return (fingerprint, strategy, int(cores))


def _release_arena(arena: RingArena, rings: List[RingChannel]) -> None:
    """Detach every ring view, then close + unlink the shared segment.

    Shared between :meth:`ParallelSession.close` and the GC finalizer, so
    it must not reference the session itself.
    """
    for chan in rings:
        chan.detach()
    arena.release(True)


class ParallelUnsafe(Exception):
    """Setup-time verdict: this graph/strategy cannot run in parallel.

    The interpreter catches this and downgrades to the compiled engine with
    an ``SL304`` diagnostic — it is a structured refusal, not an error.
    """


@dataclass(frozen=True)
class WorkerSpec:
    """One worker's share of the program."""

    wid: int
    nodes: frozenset
    init: Schedule
    steady: Schedule
    #: The steady restriction is a single topological pass over the
    #: worker-internal edges, so ``scale`` batched periods may run as one
    #: pass with every firing count multiplied (the superbatch argument).
    scale_ok: bool


def _restriction_scale_ok(nodes: frozenset, steady: Schedule) -> bool:
    position: Dict[FlatNode, int] = {}
    for i, (node, _count) in enumerate(steady):
        if node in position:
            return False
        position[node] = i
    for node in nodes:
        for edge in node.out_edges:
            if edge.src in position and edge.dst in position:
                if position[edge.src] > position[edge.dst]:
                    return False
    return True


class ParallelSession:
    """The live multicore execution of one interpreter's program.

    Everything structural (partition, specs, ring layout) is decided in the
    constructor — before channels exist — so the interpreter can allocate
    the mixed Ring/Array channel map and bind filters exactly as it does
    for the other engines.  Workers fork lazily on the first command, which
    is always after ``init()`` hooks have run.
    """

    def __init__(self, interp, strategy: str, cores: int) -> None:
        self.interp = interp
        self.strategy = strategy
        self.cores = int(cores)
        #: Control-plane accounting: every fork, command, and barrier wait
        #: the parent issues.  ``steady_commands / steady_runs == 1`` is the
        #: batched-protocol invariant tier-1 asserts.
        self.protocol: Dict[str, object] = {
            "fork_count": 0,
            "commands": {"init": 0, "steady": 0, "shutdown": 0},
            "steady_runs": 0,
            "barrier_waits": 0,
            "barrier_wait_s": 0.0,
            "arena_reused": False,
            "struct_cache": "off",
        }
        #: Wall-clock seconds the parent spent inside steady commands.
        self.steady_seconds = 0.0
        graph, program = interp.graph, interp.program

        if interp.has_messaging:
            raise ParallelUnsafe(
                "teleport portals would cross worker boundaries (message "
                "delivery is per-firing and process-local)"
            )
        if self.cores < 2:
            raise ParallelUnsafe(f"cores={self.cores} leaves nothing to parallelize")
        self._check_static_rates(graph)
        try:
            self._ctx = multiprocessing.get_context("fork")
        except ValueError as exc:  # pragma: no cover - non-POSIX platform
            raise ParallelUnsafe(f"fork start method unavailable: {exc}")

        # Structural decisions (partition, batch sizing, capacity proofs)
        # depend only on the graph's structure, so repeated sessions over
        # the same plan fingerprint reuse them instead of re-running the
        # model transforms and the proof replay.
        self._struct_key = _struct_cache_key(interp, strategy, self.cores)
        cached = _STRUCT_CACHE.get(self._struct_key)
        by_name = {n.name: n for n in graph.nodes}
        if cached is not None:
            struct_cache_stats["hits"] += 1
            self.protocol["struct_cache"] = "hit"
            part = {
                by_name[name]: core
                for name, core in cached["part"]
                if name in by_name
            }
        else:
            struct_cache_stats["misses"] += 1
            self.protocol["struct_cache"] = "miss"
            from repro.mapping.strategies import partition_nodes

            try:
                part = partition_nodes(
                    interp.stream, graph, program.reps, strategy, self.cores
                )
            except Exception as exc:
                raise ParallelUnsafe(
                    f"strategy {strategy!r} cannot map this graph: {exc}"
                )
        used = sorted(set(part.values()))
        if len(used) < 2:
            raise ParallelUnsafe(
                f"strategy {strategy!r} places all compute on one core"
            )
        wid_of_core = {core: i + 1 for i, core in enumerate(used)}
        self.node_wid: Dict[FlatNode, int] = {
            node: wid_of_core.get(part.get(node), 0) if node in part else 0
            for node in graph.nodes
        }
        self.n_workers = 1 + len(used)

        cross = [
            e for e in graph.edges if self.node_wid[e.src] != self.node_wid[e.dst]
        ]
        if not cross:  # pragma: no cover - disconnected graphs don't validate
            raise ParallelUnsafe("partition has no cross-worker traffic")
        items_per_period = {e: program.reps[e.src] * e.push_rate for e in cross}
        heaviest = max(items_per_period.values())
        self.batch_periods = max(
            1, min(_BATCH_MAX_PERIODS, _BATCH_TARGET_ITEMS // max(1, heaviest))
        )

        self.specs: List[WorkerSpec] = []
        for wid in range(self.n_workers):
            nodes = frozenset(
                n for n in graph.nodes if self.node_wid[n] == wid
            )
            init = restrict_schedule(program.init, nodes)
            steady = restrict_schedule(program.steady, nodes)
            self.specs.append(
                WorkerSpec(
                    wid=wid,
                    nodes=nodes,
                    init=init,
                    steady=steady,
                    scale_ok=_restriction_scale_ok(nodes, steady),
                )
            )
        # Monolithic scaling (fire count*scale per phase) is safe only when
        # EVERY worker's restriction is a single topological sweep: then each
        # node fires once, globally contiguously, in dependency order, and
        # the ring slack (a full batch per edge) lets every batch complete.
        # One per-period worker breaks that — a feedback worker produces its
        # cross-edge items interleaved, so a monolithic peer demanding its
        # whole batch up front deadlocks against it (DToA's interp stage).
        # Per-period execution everywhere mirrors the global schedule's
        # granularity, which is deadlock-free by construction.
        self.monolithic = all(spec.scale_ok for spec in self.specs)

        # Ring capacities: the whole-graph analysis replays the per-worker
        # schedules at this session's exact firing granularity and proves a
        # minimal stall-free capacity per cross edge (repro.analysis.graph).
        # Allocated capacity adds RING_SLACK_BATCHES extra batches of
        # headroom without touching the proof (at zero the session is still
        # stall-free: the witness replay certifies deadlock freedom at the
        # peak, barrier or no barrier).  If the replay cannot complete, the
        # proof object itself carries the legacy guess (init peak + two
        # batches + slop) with proved=False.
        self.ring_proofs: Dict[object, object] = {}
        edge_key = lambda e: (e.src.name, e.dst.name, e.src_port, e.dst_port)
        from repro.analysis.graph import RingProof, ring_capacity_proofs

        if cached is not None and "proofs" in cached:
            stored = cached["proofs"]
            self.ring_proofs = {
                e: RingProof(**stored[edge_key(e)])
                for e in cross
                if edge_key(e) in stored
            }
        if not self.ring_proofs:
            try:
                self.ring_proofs = ring_capacity_proofs(
                    program, self.node_wid, self.batch_periods, self.monolithic
                )
            except Exception:
                # An analyzer crash proves nothing: every edge takes the
                # stricter unproved path below (legacy capacity guess,
                # per-batch barrier for DAG strategies).
                self.ring_proofs = {}
        # Discipline.  Pipelined strategies always free-run.  DAG strategies
        # free-run *double-buffered* when every cross edge has a proved
        # capacity (the SL404 witness replay models no barriers, so it
        # certifies barrier-free execution directly); an unproved edge keeps
        # the per-batch barrier for safety.
        all_proved = bool(self.ring_proofs) and all(
            e in self.ring_proofs and self.ring_proofs[e].proved for e in cross
        )
        if strategy in _DAG_STRATEGIES:
            self.discipline = "double_buffered" if all_proved else "dag"
        else:
            self.discipline = "pipelined"
        capacities: List[int] = []
        for e in cross:
            proof = self.ring_proofs.get(e)
            if proof is not None:
                cap = proof.capacity
                if proof.proved:
                    cap += (
                        RING_SLACK_BATCHES * self.batch_periods * items_per_period[e]
                    )
            else:
                cap = (
                    program.buffer_bounds[e]
                    + 2 * self.batch_periods * items_per_period[e]
                    + 64
                )
            capacities.append(cap)
        if cached is None:
            import dataclasses

            entry: Dict[str, object] = {
                "part": tuple((n.name, c) for n, c in part.items()),
            }
            if self.ring_proofs:
                entry["proofs"] = {
                    edge_key(e): dataclasses.asdict(p)
                    for e, p in self.ring_proofs.items()
                }
            while len(_STRUCT_CACHE) >= _STRUCT_CACHE_MAX:
                _STRUCT_CACHE.pop(next(iter(_STRUCT_CACHE)))
            _STRUCT_CACHE[self._struct_key] = entry
        # Blocked-wait policy: with more workers than CPUs, spinning steals
        # the quantum the peer needs; yield immediately instead.
        self._spin = 0 if self.n_workers > (os.cpu_count() or 1) else _SPIN_ITERS
        segment = _adopt_warm_arena(RingArena.required_size(capacities))
        self._arena = RingArena(capacities, segment=segment)
        self.protocol["arena_reused"] = self._arena.reused
        self.channels: Dict[object, object] = {}
        for i, edge in enumerate(cross):
            chan = self._arena.ring(
                i,
                name=f"{edge.src.name}->{edge.dst.name}",
                initial=edge.initial,
                timeout=RING_STALL_S,
                spin=self._spin,
                max_sleep=_WAIT_SLEEP_CAP,
            )
            chan.wid = 0  # the parent; forked children overwrite their copy
            self.channels[edge] = chan
        for edge in graph.edges:
            if edge not in self.channels:
                self.channels[edge] = ArrayChannel(
                    name=f"{edge.src.name}->{edge.dst.name}", initial=edge.initial
                )
        self.ring_edges = list(cross)

        # Tracing (repro.obs): decided before the fork so parent and
        # children agree.  Each process buffers its own Chrome-shaped span
        # dicts (tid = wid) and ships them to the parent's MemoryTracer over
        # a SimpleQueue after every command; perf_counter is CLOCK_MONOTONIC
        # system-wide on Linux, so worker timestamps need no translation.
        self.tracer = interp.tracer
        self.traced = self.tracer.enabled
        self._wid = 0
        self._tbuf: Optional[List[dict]] = [] if self.traced else None
        self._tdropped = 0
        self._steady_done = 0
        # A feeder-thread Queue (not SimpleQueue): a child's put() of a large
        # span batch must not block on pipe capacity while the parent is
        # still waiting at the finish barrier.
        self._trace_queue = self._ctx.Queue() if self.traced else None
        if self.traced:
            for wid in range(self.n_workers):
                label = "worker 0 (parent, io)" if wid == 0 else f"worker {wid}"
                self.tracer.name_track(wid, label)

        self._header = self._arena._header
        self._start_barrier = self._ctx.Barrier(self.n_workers)
        self._finish_barrier = self._ctx.Barrier(self.n_workers)
        self._step_barrier = self._ctx.Barrier(self.n_workers)
        self._errors = self._ctx.SimpleQueue()
        self._procs: List[multiprocessing.Process] = []
        self._exec_cache: Dict[FlatNode, Callable[[int], None]] = {}
        self._started = False
        self._failed = False
        self._closed = False
        #: Parent-side stall watchdog (repro.obs.watchdog), started with the
        #: workers; the count already mirrored into metrics from
        #: protocol["barrier_waits"].
        self._watchdog: Optional[StallWatchdog] = None
        self._barrier_waits_metered = 0
        # Safety net: release the shared segment even if close() is never
        # called (the callback references the arena and rings, never the
        # session, so it cannot keep the session alive).
        self._finalizer = weakref.finalize(
            self,
            _release_arena,
            self._arena,
            [self.channels[e] for e in self.ring_edges],
        )

    # -- setup checks ---------------------------------------------------------

    @staticmethod
    def _check_static_rates(graph) -> None:
        """Refuse filters whose I/O rates the analyzer cannot pin down.

        A dynamic-rate filter would fire a data-dependent number of items;
        the ring capacities and restricted schedules are sized from the
        declared static rates, so such a filter could deadlock a worker.
        """
        from repro.analysis import analyze_filter

        for node in graph.filter_nodes():
            try:
                analysis = analyze_filter(node.filter)
            except Exception as exc:
                raise ParallelUnsafe(
                    f"static analysis of filter {node.name!r} failed "
                    f"({type(exc).__name__}: {exc})"
                )
            rates = analysis.rates
            if rates is not None and rates.dynamic:
                raise ParallelUnsafe(
                    f"filter {node.name!r} has dynamic rates "
                    f"({'; '.join(rates.dynamic)})"
                )
            # SL402: unbounded effects (dynamic writes, self escapes) mean
            # race freedom across forked workers cannot be proven.
            effects = analysis.effects
            if effects is not None and (effects.dynamic or effects.escapes):
                reasons = "; ".join((*effects.dynamic, *effects.escapes))
                raise ParallelUnsafe(
                    f"filter {node.name!r} has statically unbounded effects "
                    f"({reasons}); parallel race freedom is unprovable (SL402)"
                )

    # -- worker body (both the parent-as-worker-0 and forked children) --------

    def _executor(self, node: FlatNode):
        fire = self._exec_cache.get(node)
        if fire is None:
            fire = self._exec_cache[node] = make_node_executor(node, self.channels)
        return fire

    def _fire(
        self,
        node: FlatNode,
        n: int,
        slice_idx: Optional[int] = None,
        period: Optional[int] = None,
        span: int = 1,
    ) -> None:
        fire = self._executor(node)
        # Block until every ring input can satisfy the whole call: batched
        # filter executors snapshot their input window up front, so the
        # items must exist before fire() runs (splitters/joiners and
        # push-side waits block naturally inside the ring ops).
        if node.kind == FILTER:
            extra = node.peek_extra
            for edge in node.in_edges:
                chan = self.channels[edge]
                if isinstance(chan, RingChannel) and edge.pop_rate:
                    chan.wait_items(n * edge.pop_rate + extra)
        try:
            tbuf = self._tbuf
            if tbuf is None:
                fire(n)
            else:
                from time import perf_counter

                t0 = perf_counter()
                fire(n)
                dur = perf_counter() - t0
                if len(tbuf) < _TRACE_BUF_CAP:
                    push = node.out_edges[0].push_rate if node.out_edges else 0
                    tbuf.append(
                        {
                            "name": node.name,
                            "cat": "worker",
                            "ph": "X",
                            "ts": t0,
                            "dur": dur,
                            "tid": self._wid,
                            "args": {"firings": n, "items": n * push},
                        }
                    )
                else:
                    self._tdropped += 1
        except (RingAbort, RingStall):
            raise
        except BaseException as exc:
            # Satellite context for error reports: which filter, at which
            # position in this worker's restricted schedule, during which
            # absolute steady iteration.
            exc._stream_node = node.name
            exc._stream_slice = slice_idx
            exc._stream_period = period
            exc._stream_period_span = span
            raise

    def _exec_schedule(
        self, schedule: Schedule, scale: int, base_period: Optional[int] = None
    ) -> None:
        phases = schedule.phases
        if not phases:
            return
        if scale == 1 or self.monolithic:
            for i, (node, count) in enumerate(phases):
                self._fire(node, count * scale, i, base_period, scale)
        else:
            for p in range(scale):
                for i, (node, count) in enumerate(phases):
                    self._fire(
                        node,
                        count,
                        i,
                        base_period + p if base_period is not None else None,
                    )

    def _run_periods(self, spec: WorkerSpec, periods: int) -> None:
        left = periods
        batch = self.batch_periods
        # Only the "dag" discipline pays a per-batch barrier; the
        # double_buffered and pipelined disciplines free-run through the
        # whole request on ring backpressure alone.
        dag = self.discipline == "dag"
        done = self._steady_done
        while left > 0:
            scale = min(batch, left)
            self._exec_schedule(spec.steady, scale, base_period=done)
            done += scale
            left -= scale
            if dag:
                self._barrier_wait(self._step_barrier)
        self._steady_done = done

    def _barrier_wait(self, barrier) -> None:
        """A counted barrier wait (each process accounts its own copy; only
        the parent's counters are ever read)."""
        t0 = time.perf_counter()
        try:
            barrier.wait(_BARRIER_TIMEOUT)
        finally:
            self.protocol["barrier_waits"] += 1
            self.protocol["barrier_wait_s"] += time.perf_counter() - t0

    def _abort_barriers(self) -> None:
        for barrier in (self._start_barrier, self._finish_barrier, self._step_barrier):
            try:
                barrier.abort()
            except Exception:  # pragma: no cover - already broken
                pass

    def _worker_loop(self, wid: int) -> None:
        # The parent owns interrupt handling; workers end via the protocol
        # (shutdown command, broken barrier, or the abort flag).
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        try:
            self._worker_body(wid)
        finally:
            # Drop this process's shared-memory views before interpreter
            # shutdown GCs the SharedMemory object (a pinned view would turn
            # its close() into BufferError noise).  Never unlink here — the
            # segment belongs to the parent.
            self._header = None
            for edge in self.ring_edges:
                self.channels[edge].detach()
            self._arena.release(unlink=False)

    def _ship_trace(self, wid: int) -> None:
        """Send this worker's buffered spans to the parent (pre-barrier, so
        the parent's post-barrier drain sees exactly one batch per child)."""
        try:
            self._trace_queue.put((wid, self._tbuf, self._tdropped))
        except Exception:  # pragma: no cover - queue torn down
            pass
        self._tbuf = []
        self._tdropped = 0

    def _worker_body(self, wid: int) -> None:
        self._exec_cache = {}
        self._wid = wid
        for edge in self.ring_edges:
            self.channels[edge].wid = wid  # per-process: who a stall blames
        spec = self.specs[wid]
        header = self._header
        # Workers live only for this session and their steady-state
        # allocations are acyclic numpy temporaries that refcounting frees
        # on the spot — so run with the cyclic collector off and collect
        # manually between commands, instead of letting threshold-triggered
        # GC pauses land mid-run (which serializes every process on an
        # oversubscribed host).  The fork also snapshots the parent
        # mid-construction; pay that inherited debt up front.
        gc.disable()
        gc.collect()
        while True:
            try:
                self._start_barrier.wait()
            except threading.BrokenBarrierError:
                return
            cmd = int(header[1])
            if cmd == _CMD_SHUTDOWN:
                return
            try:
                if cmd == _CMD_INIT:
                    self._exec_schedule(spec.init, 1)
                else:
                    self._run_periods(spec, int(header[2]))
            except RingAbort:
                # A peer failed first; it owns the error report.
                return
            except threading.BrokenBarrierError:
                return
            except BaseException as exc:
                self._arena.abort()
                self._abort_barriers()
                try:
                    self._errors.put(
                        (
                            wid,
                            getattr(exc, "_stream_node", None),
                            getattr(exc, "_stream_slice", None),
                            getattr(exc, "_stream_period", None),
                            getattr(exc, "_stream_period_span", 1),
                            traceback.format_exc(),
                        )
                    )
                except Exception:  # pragma: no cover - queue torn down
                    pass
                return
            if self.traced:
                self._ship_trace(wid)
            try:
                self._finish_barrier.wait()
            except threading.BrokenBarrierError:
                return
            # Between commands the parent has already been released, so
            # this collection happens off anyone's critical path.
            gc.collect()

    # -- parent-side protocol --------------------------------------------------

    def _start(self) -> None:
        if self._started:
            return
        self._started = True
        self.protocol["fork_count"] += 1
        for wid in range(1, self.n_workers):
            proc = self._ctx.Process(
                target=self._worker_loop,
                args=(wid,),
                daemon=True,
                name=f"repro-parallel-w{wid}",
            )
            proc.start()
            self._procs.append(proc)
        if METRICS.enabled:
            _M_FORKS.inc()
            FLIGHT.record(
                "parallel_fork",
                workers=self.n_workers - 1,
                strategy=self.strategy,
                discipline=self.discipline,
            )
            self._watchdog = StallWatchdog(self)
            self._watchdog.start()

    def _run_command(self, cmd: int, periods: int = 0) -> None:
        if self._closed or self._failed:
            raise StreamItError(
                "parallel session is closed; build a fresh Interpreter"
            )
        self._start()
        commands = self.protocol["commands"]
        if cmd == _CMD_INIT:
            commands["init"] += 1
        elif cmd == _CMD_STEADY:
            commands["steady"] += 1
            self.protocol["steady_runs"] += 1
        if METRICS.enabled:
            kind = "init" if cmd == _CMD_INIT else "steady"
            _M_COMMANDS.inc(kind=kind)
            FLIGHT.record("parallel_command", command=kind, periods=periods)
        # The whole steady run — period count and (implicitly, via the
        # restricted schedules forked into every worker) the chunk schedule
        # — ships as this ONE header write.  Workers free-run through all
        # `periods` with no further control traffic.
        self._header[1] = cmd
        self._header[2] = periods
        spec = self.specs[0]
        t0 = time.perf_counter()
        try:
            self._barrier_wait(self._start_barrier)
            if cmd == _CMD_INIT:
                self._exec_schedule(spec.init, 1)
            else:
                self._run_periods(spec, periods)
            self._barrier_wait(self._finish_barrier)
        except BaseException as exc:
            self._fail(exc)
        if cmd == _CMD_STEADY:
            self.steady_seconds += time.perf_counter() - t0
        if METRICS.enabled:
            waits = self.protocol["barrier_waits"]
            delta = waits - self._barrier_waits_metered
            self._barrier_waits_metered = waits
            if delta:
                _M_BARRIER_WAITS.inc(delta)
        if self.traced:
            self._collect_trace()

    def _collect_trace(self) -> None:
        """Fold this command's spans (all workers) into the parent tracer,
        then sample the cumulative ring stall counters."""
        tracer = self.tracer
        if self._tbuf:
            tracer.ingest(self._tbuf)
            self._tbuf = []
        if self._tdropped:
            tracer.meta["trace_spans_dropped"] = (
                tracer.meta.get("trace_spans_dropped", 0) + self._tdropped
            )
            self._tdropped = 0
        for _ in self._procs:
            try:
                _wid, events, dropped = self._trace_queue.get(timeout=60)
            except Exception:  # pragma: no cover - worker died mid-ship
                break
            tracer.ingest(events)
            if dropped:
                tracer.meta["trace_spans_dropped"] = (
                    tracer.meta.get("trace_spans_dropped", 0) + dropped
                )
        for edge in self.ring_edges:
            chan = self.channels[edge]
            tracer.counter(f"ring:{chan.name}", chan.stall_stats())

    def _fail(self, cause: BaseException) -> None:
        """Tear the session down after any mid-run failure and re-raise the
        most informative error (a worker's reported failure wins over the
        parent's secondary Ring/Barrier symptom).  Every raised error
        carries the flight-recorder tail — failing filter, last command,
        last stall suspicion — in one message, and the final metrics
        snapshot is force-published for ``python -m repro.obs flight``."""
        self._failed = True
        self._arena.abort()
        self._abort_barriers()
        reports = []
        for proc in self._procs:
            proc.join(timeout=10)
        for proc in self._procs:
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=10)
        while not self._errors.empty():
            reports.append(self._errors.get())
        metered = METRICS.enabled
        if metered and isinstance(cause, RingStall):
            _M_RING_STALLS.inc(side=cause.side or "unknown")
            FLIGHT.record(
                "ring_stall",
                edge=cause.edge,
                worker=cause.worker,
                side=cause.side,
                need=cause.need,
                occupancy=cause.occupancy,
                capacity=cause.capacity,
            )
        self.close()
        try:
            if reports:
                wid, node_name, slice_idx, period, span, tb = reports[0]
                where = self._error_context(node_name, slice_idx, period, span)
                if self.traced:
                    self._trace_worker_error(wid, node_name, slice_idx, period)
                if metered:
                    kind = "ring_stall" if "RingStall" in tb else "worker_error"
                    _M_FAILURES.inc(kind=kind)
                    FLIGHT.record(
                        "worker_error", worker=wid, filter=node_name, error=kind
                    )
                raise StreamItError(
                    f"parallel worker {wid} failed{where}:\n{tb}"
                    + self._flight_tail()
                ) from cause
            if isinstance(
                cause, (RingAbort, RingStall, threading.BrokenBarrierError)
            ):
                dead = [p.name for p in self._procs if p.exitcode not in (0, None)]
                stalled = ""
                if isinstance(cause, RingStall):
                    stalled = (
                        f"; worker {cause.worker} stalled as {cause.side} on ring"
                        f" {cause.edge!r} (need {cause.need}, occupancy"
                        f" {cause.occupancy}/{cause.capacity})"
                    )
                if metered:
                    _M_FAILURES.inc(
                        kind="ring_stall"
                        if isinstance(cause, RingStall)
                        else "abort"
                    )
                raise StreamItError(
                    "parallel session aborted"
                    + stalled
                    + (f"; dead workers: {dead}" if dead else "")
                    + self._flight_tail()
                ) from cause
            node_name = getattr(cause, "_stream_node", None)
            if node_name is not None and not isinstance(cause, KeyboardInterrupt):
                slice_idx = getattr(cause, "_stream_slice", None)
                period = getattr(cause, "_stream_period", None)
                span = getattr(cause, "_stream_period_span", 1)
                where = self._error_context(node_name, slice_idx, period, span)
                if self.traced:
                    self._trace_worker_error(0, node_name, slice_idx, period)
                if metered:
                    _M_FAILURES.inc(kind="worker_error")
                    FLIGHT.record(
                        "worker_error", worker=0, filter=node_name,
                        error=cause.__class__.__name__,
                    )
                raise StreamItError(
                    f"parallel worker 0 failed{where}: {cause}"
                    + self._flight_tail()
                ) from cause
            raise cause
        finally:
            if metered:
                try:
                    METRICS.publish()
                except Exception:  # pragma: no cover - telemetry best-effort
                    pass

    @staticmethod
    def _flight_tail() -> str:
        """The flight recorder's last events as an error-text suffix."""
        tail = format_flight_tail(FLIGHT.events)
        return f"\n{tail}" if tail else ""

    @staticmethod
    def _error_context(
        node_name: Optional[str],
        slice_idx: Optional[int],
        period: Optional[int],
        span: int = 1,
    ) -> str:
        """``" in filter 'x' (schedule slice 3, steady iteration 17)"``.

        A worker running a monolithic batch fires ``span`` periods in one
        call, so the failure is located to the batch's iteration range.
        """
        where = f" in filter {node_name!r}" if node_name else ""
        details = []
        if slice_idx is not None:
            details.append(f"schedule slice {slice_idx}")
        if period is not None:
            if span > 1:
                details.append(
                    f"steady iterations {period}..{period + span - 1}"
                )
            else:
                details.append(f"steady iteration {period}")
        if details:
            where += f" ({', '.join(details)})"
        return where

    def _trace_worker_error(
        self,
        wid: int,
        node_name: Optional[str],
        slice_idx: Optional[int],
        period: Optional[int],
    ) -> None:
        from repro.obs.tracer import CAT_META

        self.tracer.instant(
            "worker_error",
            CAT_META,
            tid=wid,
            args={
                "worker": wid,
                "filter": node_name,
                "schedule_slice": slice_idx,
                "steady_iteration": period,
            },
        )

    # -- public API ------------------------------------------------------------

    def run_init(self) -> None:
        self._run_command(_CMD_INIT)
        # The parent runs worker 0's slice, so entering steady state with
        # the collector debt from graph construction and forking unpaid
        # slows its slice and starves every ring it feeds (measured 4-7x
        # end-to-end on a single-CPU host).  Init is warmup by definition —
        # settle the heap here, once, never inside a steady run.
        gc.collect()

    def run_steady(self, periods: int) -> None:
        if periods <= 0:
            return
        self._run_command(_CMD_STEADY, periods)

    @property
    def alive_workers(self) -> int:
        """Live child processes (teardown tests)."""
        return sum(1 for p in self._procs if p.is_alive())

    def close(self) -> None:
        """End the session: stop workers, release the shared segment.

        Safe to call at any time (mid-run failure, cancellation, repeated
        calls); afterwards the interpreter refuses further parallel runs.
        """
        if self._closed:
            return
        self._closed = True
        # The watchdog reads ring counters straight from the arena; stop it
        # before any view is detached so its last tick sees live memory.
        if self._watchdog is not None:
            self._watchdog.stop()
            self._watchdog = None
        try:
            healthy = (
                self._started
                and not self._failed
                and not self._arena.aborted
                and all(p.is_alive() for p in self._procs)
            )
            if healthy:
                try:
                    self._header[1] = _CMD_SHUTDOWN
                    self.protocol["commands"]["shutdown"] += 1
                    self._start_barrier.wait(timeout=10)
                except Exception:
                    self._arena.abort()
                    self._abort_barriers()
            else:
                self._arena.abort()
                self._abort_barriers()
            for proc in self._procs:
                proc.join(timeout=10)
            for proc in self._procs:
                if proc.is_alive():  # pragma: no cover - stuck worker
                    proc.terminate()
                    proc.join(timeout=10)
        finally:
            stragglers = [p for p in self._procs if p.is_alive()]
            # A cleanly-shut-down arena parks its shared segment in the warm
            # pool so the next session of the same footprint skips
            # shm_open+mmap; anything suspect (abort, failure, stuck worker)
            # is released and unlinked outright.
            clean = not self._failed and not stragglers and not self._arena.aborted
            self._procs = stragglers
            # Drop the session's own header view, then detach + release via
            # the finalizer (which runs exactly once; later calls no-op).
            self._header = None
            if clean:
                _park_arena(self._arena)
            self._finalizer()

    # -- introspection ---------------------------------------------------------

    def protocol_report(self) -> Dict[str, object]:
        """Control-plane accounting: forks, commands, barrier waits.

        ``commands["steady"] == steady_runs`` is the batched-protocol
        invariant — exactly one control command per worker per steady run,
        however many periods it spans.
        """
        report = dict(self.protocol)
        report["commands"] = dict(self.protocol["commands"])
        report["steady_seconds"] = self.steady_seconds
        report["workers"] = self.n_workers
        report["discipline"] = self.discipline
        return report

    def layout_report(self) -> Dict[str, object]:
        """Worker topology summary (docs, tests, diagnostics)."""
        return {
            "strategy": self.strategy,
            "cores": self.cores,
            "discipline": self.discipline,
            "protocol": self.protocol_report(),
            "workers": {
                spec.wid: sorted(n.name for n in spec.nodes)
                for spec in self.specs
            },
            "ring_edges": [
                f"{e.src.name}->{e.dst.name}" for e in self.ring_edges
            ],
            "batch_periods": self.batch_periods,
            "rings_proved": sum(1 for p in self.ring_proofs.values() if p.proved),
            "ring_capacities": {
                f"{e.src.name}->{e.dst.name}": self.channels[e].capacity
                for e in self.ring_edges
            },
            "ring_proofs": [
                self.ring_proofs[e].payload()
                for e in self.ring_edges
                if e in self.ring_proofs
            ],
        }
