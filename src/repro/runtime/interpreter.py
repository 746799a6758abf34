"""Schedule-driven execution of flattened stream graphs.

The :class:`Interpreter` allocates a :class:`~repro.runtime.channel.Channel`
per flat edge, binds filter input/output channels, and executes the computed
initialization schedule followed by steady-state periods.  Splitter and
joiner nodes are executed natively (one firing = one distribution cycle).

Teleport messaging integrates here: portals reachable from filter attributes
are bound automatically, message thresholds are computed with the wavefront
oracle at send time, and deliveries happen exactly at the firing boundaries
the semantics prescribe.

Two execution engines share this front end (see DESIGN.md, "Execution
engines"):

* ``engine="scalar"`` — the reference path: Python-list channels, one
  ``work()`` call per firing, messaging checks interleaved.
* ``engine="batched"`` — an :class:`~repro.runtime.plan.ExecutionPlan`
  compiled from the same schedule, running block kernels over
  :class:`~repro.runtime.array_channel.ArrayChannel` tapes.  Portal-bound
  programs run batched too (as many periods per pass as the stated
  latencies allow, with receiver batches split at the SDEP-derived
  delivery points); the only remaining fallback to the
  scalar path is a portal inside a feedback-interleaved schedule, which is
  reported via :class:`~repro.errors.EngineDowngradeWarning` (or raises
  with ``strict=True``).  Check :attr:`Interpreter.engine_used` to see
  which engine actually ran.
* ``engine="parallel"`` — a :class:`~repro.runtime.parallel.ParallelSession`
  runs the batched executors across forked worker processes, one per core
  a mapping strategy assigns work to, with shared-memory ring buffers on
  cross-worker edges.  Graphs the parallel engine cannot run safely
  (teleport portals, dynamic-rate filters, degenerate partitions)
  downgrade to ``engine="batched"`` with an ``SL304`` diagnostic.
* ``engine="codegen"`` — a :class:`~repro.runtime.codegen.CodegenPlan`
  generates one fused source module per plan (kernels spliced inline,
  fused chains unrolled, the feedback core an inlined closed loop) and
  executes ``run_chunk(scale)`` directly — no per-block dispatch loop.
  Unliftable blocks fall back to their batched executors and teleport
  messaging disables codegen for the whole plan, both reported with an
  ``SL305`` diagnostic.
"""

from __future__ import annotations

import warnings
from math import frexp
from time import perf_counter
from types import SimpleNamespace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import EngineDowngradeWarning, MessagingError, StreamItError
from repro.graph.base import Filter, Stream
from repro.graph.flatgraph import FILTER, JOINER, SPLITTER, FlatGraph, FlatNode
from repro.graph.splitjoin import COMBINE, DUPLICATE, NULL, ROUND_ROBIN
from repro.graph.validation import validate
from repro.obs.metrics import METRICS
from repro.obs.recorder import FLIGHT
from repro.obs.tracer import CAT_ENGINE, CAT_FILTER
from repro.runtime.array_channel import ArrayChannel
from repro.runtime.channel import Channel
from repro.runtime.messaging import PendingMessage, Portal
from repro.runtime.plan import ExecutionPlan, single_topological_sweep
from repro.scheduling.sdep import WavefrontOracle
from repro.scheduling.steady import ProgramSchedule, build_schedule

#: Valid values for ``Interpreter(engine=...)``.
ENGINES = ("scalar", "batched", "parallel", "codegen")

# Always-on telemetry (repro.obs.metrics): families resolved once at import.
# Everything here records at *session* granularity; a ``run_steady()`` call
# adds to its session's ``RunTally`` and the registry folds that when read.
_M_SESSIONS = METRICS.counter(
    "repro_sessions_total", "Interpreter sessions by the engine that actually ran"
)
_M_RUN_ERRORS = METRICS.counter(
    "repro_run_errors_total", "run_steady() calls that raised, by engine"
)
_M_DOWNGRADES = METRICS.counter(
    "repro_engine_downgrades_total", "Structured engine downgrades by SLxxx code"
)


class Interpreter:
    """Executes a stream program.

    Args:
        stream: the top-level (closed) stream to run.
        check: run full semantic validation before executing.
        engine: ``"scalar"`` (reference, one ``work()`` per firing),
            ``"batched"`` (compiled plan over array channels; teleport
            portals run batched in latency-bounded chunks), ``"parallel"``
            (batched executors across forked worker processes; see
            :mod:`repro.runtime.parallel`), or ``"codegen"`` (one fused
            generated module per plan; see :mod:`repro.runtime.codegen`).
        strict: with ``engine="batched"`` or ``engine="parallel"``, raise
            :class:`StreamItError` instead of emitting
            :class:`EngineDowngradeWarning` when the request cannot be
            honoured in full (engine fallback or loss of superbatching).
        strategy: with ``engine="parallel"``, the mapping strategy whose
            partition decides worker placement (a key of
            :data:`repro.mapping.strategies.STRATEGIES`).
        cores: with ``engine="parallel"``, how many cores the strategy maps
            to.  Defaults to the machine's CPU count; on a single-CPU host
            the default honestly degrades to the batched engine with an
            ``SL304`` diagnostic instead of forking workers that would
            serialize on one core (pass ``cores=`` explicitly to force it).
        trace: observability (:mod:`repro.obs`).  ``None`` (default) keeps
            the zero-cost null tracer; ``True`` records into a fresh
            :class:`~repro.obs.MemoryTracer` (inspect ``interp.tracer``);
            a string/path writes a Chrome trace-event file there on
            :meth:`close`; any :class:`~repro.obs.Tracer` is used as-is.

    Typical use::

        interp = Interpreter(app)
        interp.run(periods=100)
        print(sink.collected)

    A filter's ``input``/``output`` channels belong to the interpreter that
    bound them last; constructing a second interpreter over the same stream
    invalidates the first (running it raises), because silently sharing
    live filter state would cross-wire both.
    """

    def __init__(
        self,
        stream: Stream,
        check: bool = True,
        engine: str = "scalar",
        strict: bool = False,
        strategy: str = "softpipe",
        cores: Optional[int] = None,
        trace: Any = None,
    ) -> None:
        if engine not in ENGINES:
            raise StreamItError(f"unknown engine {engine!r}; expected one of {ENGINES}")
        self.engine = engine
        self._trace_path: Optional[str] = None
        self.tracer = self._resolve_tracer(trace)
        self.strict = bool(strict)
        self.strategy = strategy
        self._cores_explicit = cores is not None
        if cores is None:
            import os

            cores = os.cpu_count() or 1
        self.cores = int(cores)
        self.stream = stream
        self.graph: FlatGraph = validate(stream) if check else None  # type: ignore
        if self.graph is None:
            from repro.graph.flatgraph import flatten

            self.graph = flatten(stream)
        self.program: ProgramSchedule = build_schedule(self.graph)
        self.channels: Dict[object, Channel] = {}
        self._fired: Dict[FlatNode, int] = {node: 0 for node in self.graph.nodes}
        #: Steady periods a plan or the parallel session ran that
        #: :attr:`fired` has not been credited with yet.
        self._unsettled_periods = 0
        self._executors: Dict[FlatNode, Callable[[], None]] = {}
        self._pending: Dict[FlatNode, List[PendingMessage]] = {}
        self._oracle: Optional[WavefrontOracle] = None
        self._current_node: Optional[FlatNode] = None
        #: Stamped on every message sent (:attr:`PendingMessage.order`); the
        #: batched plan moves it per sender firing, see ``SenderPhase``.
        self._send_order: Tuple[int, ...] = ()
        self._initialized = False
        self.plan: Optional[ExecutionPlan] = None
        #: Live multicore session when ``engine="parallel"`` is in effect.
        self.parallel: Optional[Any] = None
        #: Structured engine downgrades (analysis Diagnostics, SL302/SL303).
        self.downgrades: List[Any] = []
        self._setup()

    # -- setup ---------------------------------------------------------------

    def _resolve_tracer(self, trace: Any):
        from repro.obs.tracer import NULL_TRACER, MemoryTracer, Tracer

        if trace is None or trace is False:
            return NULL_TRACER
        if trace is True:
            return MemoryTracer()
        if isinstance(trace, Tracer):
            return trace
        if isinstance(trace, (str, bytes)) or hasattr(trace, "__fspath__"):
            self._trace_path = str(trace)
            return MemoryTracer()
        raise StreamItError(
            f"trace must be None, True, a path, or a Tracer; got {trace!r}"
        )

    def _setup(self) -> None:
        # Plan feasibility must be decided before channels are allocated
        # (it selects Channel vs ArrayChannel): portal-bound programs run
        # batched when the steady schedule is a single topological sweep —
        # then every delivery point falls on a phase-internal batch boundary
        # the plan can honour.  A portal inside a feedback-interleaved
        # schedule needs per-firing delivery everywhere, so it downgrades to
        # the scalar engine (warning, or an error under ``strict``).
        portals = self._find_portals()
        self._portals = portals
        self.has_messaging = bool(portals)
        engine = self.engine
        if engine == "parallel":
            from repro.runtime.parallel import ParallelSession, ParallelUnsafe

            if self.cores < 2 and not self._cores_explicit:
                # Honest core detection: on a single-CPU host the fork +
                # barrier tax guarantees a loss, so the *default* degrades
                # rather than forcing 2 serialized workers.  An explicit
                # cores= still goes through (and fails with the same
                # SL304 if it asks for < 2).
                self._engine_downgrade(
                    f"this host reports {self.cores} usable CPU(s); forked "
                    "workers would serialize on one core (pass cores= "
                    "explicitly to override); falling back to the batched "
                    "engine",
                    code="SL304",
                )
                engine = "batched"
            else:
                try:
                    self.parallel = ParallelSession(self, self.strategy, self.cores)
                except ParallelUnsafe as exc:
                    self._engine_downgrade(
                        f"parallel execution unavailable: {exc}; falling back "
                        "to the batched engine",
                        code="SL304",
                    )
                    engine = "batched"
        batched = engine in ("batched", "codegen")
        if batched and self.has_messaging and not single_topological_sweep(
            self.graph, self.program.steady
        ):
            self._engine_downgrade(
                "teleport portals bound inside a feedback-interleaved schedule "
                "need per-firing delivery points; falling back to the scalar "
                "engine",
                code="SL302",
            )
            batched = False
        if self.parallel is not None:
            # The session decided Ring vs Array per edge when it planned the
            # partition; adopt its channel map wholesale.
            self.channels = self.parallel.channels
        else:
            channel_cls = ArrayChannel if batched else Channel
            if batched and self.tracer.enabled:
                # Traced runs pay for occupancy high-water tracking; the
                # untraced engine keeps the plain class (and its hot path).
                from repro.obs.counters import HwmArrayChannel

                channel_cls = HwmArrayChannel
            for edge in self.graph.edges:
                self.channels[edge] = channel_cls(
                    name=f"{edge.src.name}->{edge.dst.name}", initial=edge.initial
                )
        #: This interpreter's hold on its filters' channels: a later one that
        #: binds any of them names it in ``rebound``, which revokes the hold.
        self._binding = SimpleNamespace(rebound=None)
        for node in self.graph.nodes:
            if node.kind == FILTER:
                filt = node.filter
                filt.input = self.channels[node.in_edges[0]] if node.in_edges else None
                filt.output = self.channels[node.out_edges[0]] if node.out_edges else None
                previous = getattr(filt, "_rt_owner", None)
                if previous is not None and previous.rebound is None:
                    previous.rebound = filt
                filt._rt_owner = self._binding
            self._executors[node] = self._make_executor(node)
        for portal in portals:
            portal.bind(self)
        if batched and self.parallel is None:
            if engine == "codegen":
                from repro.runtime.codegen import CodegenPlan

                # No SL303 here: a segmented schedule is codegen's home
                # turf (the cyclic core inlines into the generated loop);
                # any genuine degradation surfaces as SL305 instead.
                self.plan = CodegenPlan(self)
            else:
                self.plan = ExecutionPlan(self)
                if any(block.kind == "core" for block in self.plan.blocks):
                    self._engine_downgrade(
                        "feedback loop interleaves the steady schedule; batched "
                        "execution degrades to segmented superbatching (the "
                        "cyclic core runs period-at-a-time)",
                        code="SL303",
                    )
        #: What runs whole passes (``run_init()`` / ``run_steady(periods)``):
        #: the parallel session or the plan; None on the scalar engine.
        self._runner = self.plan if self.parallel is None else self.parallel
        # Rate-derived items per steady period (static rates make this
        # exact): the per-run volume metric without counting anything at
        # run time.
        self._items_per_period = sum(
            self.program.reps[e.src] * e.push_rate for e in self.graph.edges
        )
        #: This session's run accounts under the engine now in use; made by
        #: the first metered call, and again when the engine changes.
        self._tally: Any = None
        if METRICS.enabled:
            used = self.engine_used
            _M_SESSIONS.inc(engine=used)
            FLIGHT.record(
                "engine_selected",
                engine=used,
                requested=self.engine,
                **({"strategy": self.strategy} if used == "parallel" else {}),
            )

    def _engine_downgrade(self, reason: str, code: str = "SL302") -> None:
        if METRICS.enabled:
            _M_DOWNGRADES.inc(code=code)
            FLIGHT.record("engine_downgrade", code=code, reason=reason[:160])
        from repro.analysis import Diagnostic

        diagnostic = Diagnostic.make(code, reason, self.stream)
        self.downgrades.append(diagnostic)
        if self.strict:
            raise StreamItError(
                f"engine={self.engine!r} strict mode: [{code}] {reason}"
            )
        warning = EngineDowngradeWarning(f"[{code}] {reason}")
        warning.diagnostic = diagnostic
        warnings.warn(warning, stacklevel=4)

    @property
    def engine_used(self) -> str:
        """The engine actually executing (after any structured downgrade)."""
        if self.parallel is not None:
            return "parallel"
        if self.plan is None:
            return "scalar"
        if getattr(self.plan, "codegen_active", False):
            return "codegen"
        return "batched"

    def engine_report(self) -> Dict[str, Any]:
        """Structured engine outcome: which engine ran, why it degraded.

        ``downgrades`` lists the analysis diagnostics (``SL302`` scalar
        fallback, ``SL303`` superbatch degradation) behind every
        :class:`EngineDowngradeWarning` this interpreter emitted,
        ``vectorization`` (batched engine only) maps each generically-lifted
        filter to its executor mode, trusted-proof status, and structured
        downgrade reason, and ``regions`` has one ``{name, tier, branches,
        reason}`` row per splitjoin: the tier it was lowered by
        (``collapse`` / ``permute`` / ``columns``) or why it was not
        (empty until ``run_init``).  Portal-bound plans add ``messaging``:
        ``{chunk_periods, constraints, limited_by}`` — the periods one pass
        covers, every (send, receiver) with its direction, latency and
        ``slack_periods``, and the constraint (or reason) that binds; None
        until a multi-period ``run_steady`` has derived it.
        """
        report: Dict[str, Any] = {
            "requested": self.engine,
            "used": self.engine_used,
            "downgrades": [
                {"code": d.code, "message": d.message} for d in self.downgrades
            ],
        }
        if self.plan is not None:
            report["vectorization"] = self.plan.vectorization_report()
            report["regions"] = self.plan.region_report()
            if self.has_messaging:
                report["messaging"] = self.plan.messaging_report()
            from repro.runtime.plan import plan_cache_summary

            report["plan_cache"] = plan_cache_summary()
            codegen_report = getattr(self.plan, "codegen_report", None)
            if codegen_report is not None:
                report["codegen"] = codegen_report()
        if self.parallel is not None:
            report["parallel"] = self.parallel.layout_report()
        graph_analysis = self._graph_analysis_report()
        if graph_analysis is not None:
            report["graph_analysis"] = graph_analysis
        return report

    def _graph_analysis_report(self) -> Optional[Dict[str, Any]]:
        """Whole-graph analysis facts behind this session's execution.

        Parallel sessions contribute their per-ring capacity proofs.
        Shared-state race groups and certified fusion regions are reported
        for every engine.  ``None`` for plain scalar/batched runs with
        nothing to report.
        """
        from repro.analysis.graph import analyze_flat_graph

        try:
            analysis = analyze_flat_graph(self.graph)
        except Exception:  # pragma: no cover - analyzer crash
            return None
        report: Dict[str, Any] = {
            "shared_state": [g.payload() for g in analysis.shared_state],
            "unbounded": [list(u) for u in analysis.unbounded],
            "regions_certified": [r.payload() for r in analysis.regions],
        }
        if self.parallel is not None:
            proofs = getattr(self.parallel, "ring_proofs", {})
            report["rings"] = [
                proofs[e].payload()
                for e in self.parallel.ring_edges
                if e in proofs
            ]
            report["rings_proved"] = sum(
                1 for p in proofs.values() if p.proved
            )
        if (
            self.parallel is None
            and not report["shared_state"]
            and not report["unbounded"]
            and not report["regions_certified"]
        ):
            return None
        return report

    def _find_portals(self) -> List[Portal]:
        portals: List[Portal] = []
        seen = set()
        for node in self.graph.filter_nodes():
            for value in vars(node.filter).values():
                if isinstance(value, Portal) and id(value) not in seen:
                    seen.add(id(value))
                    portals.append(value)
        return portals

    def _check_ownership(self) -> None:
        filt = self._binding.rebound
        if filt is not None:
            raise StreamItError(
                f"filter {filt.name!r} has been re-bound by another "
                "Interpreter since this one was created; a filter's "
                "input/output channels (and mutable state) belong to one "
                "live interpreter at a time — build a fresh stream per "
                "interpreter instead of sharing one"
            )

    def _make_executor(self, node: FlatNode) -> Callable[[], None]:
        if node.kind == FILTER:
            return node.filter.work
        if node.kind == SPLITTER:
            return self._make_splitter(node)
        if node.kind == JOINER:
            return self._make_joiner(node)
        raise StreamItError(f"unknown node kind {node.kind!r}")

    def _make_splitter(self, node: FlatNode) -> Callable[[], None]:
        flavor = node.flavor
        if flavor == NULL:
            return lambda: None
        in_chan = self.channels[node.in_edges[0]]
        outs = [self.channels[e] for e in node.out_edges]
        if flavor == DUPLICATE:
            def fire_duplicate() -> None:
                item = in_chan.pop()
                for chan in outs:
                    chan.push(item)

            return fire_duplicate
        # Weighted round robin: per firing, weights[b] items to branch b.
        weights = [node.out_rates[e.src_port] for e in node.out_edges]

        def fire_roundrobin() -> None:
            for chan, w in zip(outs, weights):
                if w:
                    chan.push_many(in_chan.pop_many(w))

        return fire_roundrobin

    def _make_joiner(self, node: FlatNode) -> Callable[[], None]:
        flavor = node.flavor
        if flavor == NULL:
            return lambda: None
        out_chan = self.channels[node.out_edges[0]]
        ins = [self.channels[e] for e in node.in_edges]
        if flavor == COMBINE:
            owner = node.obj
            reducer = getattr(getattr(owner, "joiner", None), "reducer", None)
            if reducer is None:
                reducer = lambda items: items[0]

            def fire_combine() -> None:
                out_chan.push(reducer([chan.pop() for chan in ins]))

            return fire_combine
        weights = [node.in_rates[e.dst_port] for e in node.in_edges]

        def fire_roundrobin() -> None:
            for chan, w in zip(ins, weights):
                if w:
                    out_chan.push_many(chan.pop_many(w))

        return fire_roundrobin

    # -- messaging -----------------------------------------------------------

    def post_message(
        self,
        receiver: Filter,
        method: str,
        args: Tuple[Any, ...],
        kwargs: Dict[str, Any],
        latency: Optional[int],
    ) -> None:
        """Record a message sent from the currently firing filter."""
        sender_node = self._current_node
        if sender_node is None or sender_node.kind != FILTER:
            raise MessagingError("messages may only be sent from inside work()")
        sender = sender_node.filter
        recv_node = self.graph.node_for(receiver)
        message = PendingMessage(
            sender=sender,
            receiver=receiver,
            method=method,
            args=args,
            kwargs=dict(kwargs),
            latency=latency,
            order=self._send_order,
        )
        deliver_now = False
        if latency is not None:
            if self._oracle is None:
                self._oracle = WavefrontOracle(self.graph)
            if not sender_node.out_edges or not recv_node.out_edges:
                raise MessagingError(
                    "wavefront-timed messages require both endpoints to have "
                    "output tapes; use best-effort delivery for sinks"
                )
            o_a = sender_node.out_edges[0]
            o_b = recv_node.out_edges[0]
            s = self.channels[o_a].pushed_count
            push_a = o_a.push_rate
            if self._oracle.is_upstream(o_b, o_a):
                message.direction = "upstream"
                message.threshold = self._oracle.min_items(
                    o_b, o_a, s + push_a * latency
                )
                n_b = self.channels[o_b].pushed_count
                plan = self.plan
                if (
                    n_b > message.threshold
                    and plan is not None
                    and plan.scale_in_flight > 1
                ):
                    # The receiver ran ahead on the latency the schedule
                    # was derived from; the scalar engine would have
                    # delivered at a point that is now in its past.
                    raise MessagingError(
                        f"message {sender.name} -> {receiver.name}.{method} "
                        f"with latency {latency} is due at n(O_B)="
                        f"{message.threshold}, but the receiver has already "
                        f"pushed {n_b}: the batched engine runs "
                        f"{plan.scale_in_flight} periods per pass on a slack "
                        f"of {plan.message_slack} derived from the latencies "
                        f"work() stated on the first multi-period run — a "
                        f"latency was lowered since, or a message handler "
                        f"sends; build a fresh Interpreter"
                    )
                # Already past the wavefront: deliver immediately.
                deliver_now = n_b >= message.threshold
            elif self._oracle.is_upstream(o_a, o_b):
                message.direction = "downstream"
                message.threshold = self._oracle.max_items(
                    o_a, o_b, s + push_a * (latency - 1)
                )
            else:
                raise MessagingError(
                    f"{sender.name} and {receiver.name} run in parallel; "
                    "parallel message timing is beyond the paper's scope"
                )
        if self.tracer.enabled:
            self._trace_send(recv_node, message)
        if deliver_now:
            self._deliver_one(message)
            return
        # Kept in scalar-schedule send order (stable, so plain arrival
        # order wherever the stamps tie).
        queue = self._pending.setdefault(recv_node, [])
        at = len(queue)
        while at and queue[at - 1].order > message.order:
            at -= 1
        queue.insert(at, message)

    def _deliver_one(self, msg: PendingMessage) -> None:
        msg.deliver()
        if self.tracer.enabled:
            self._trace_delivery(msg)

    # -- teleport observability ------------------------------------------------

    def _trace_send(self, recv_node: FlatNode, message: PendingMessage) -> None:
        """Open a send→delivery record for one teleport message."""
        from repro.obs.tracer import CAT_TELEPORT

        out_edge = recv_node.out_edges[0] if recv_node.out_edges else None
        sent_n = int(self.channels[out_edge].pushed_count) if out_edge else 0
        if self.plan is not None and self.plan.scale_in_flight > 1:
            sent_n = self.plan.scalar_position(recv_node, sent_n, message.direction)
        record = {
            "sender": message.sender.name,
            "receiver": message.receiver.name,
            "method": message.method,
            "latency": message.latency,
            "direction": message.direction,
            "threshold": message.threshold,
            #: n(O_receiver) at send time in the scalar schedule (however
            #: far a batched pass has the receiver ahead of or behind it) —
            #: delivery latency in receiver firings is measured from here.
            "sent_n": sent_n,
            "push": out_edge.push_rate if out_edge is not None else 0,
            "delivered_n": None,
            "latency_iterations": None,
            "sdep_ok": None,
        }
        message.obs = record
        self.tracer.meta.setdefault("teleports", []).append(record)
        self.tracer.instant(
            f"teleport.send {record['sender']}->{record['receiver']}.{record['method']}",
            CAT_TELEPORT,
            args={
                "latency": record["latency"],
                "threshold": record["threshold"],
                "direction": record["direction"],
                "sent_n": record["sent_n"],
            },
        )

    def _trace_delivery(self, msg: PendingMessage) -> None:
        """Close the record: where on the receiver's tape delivery landed."""
        record = msg.obs
        if record is None:
            return
        from repro.obs.tracer import CAT_TELEPORT
        from repro.scheduling.sdep import delivery_on_boundary

        recv_node = self.graph.node_for(msg.receiver)
        delivered_n = (
            int(self.channels[recv_node.out_edges[0]].pushed_count)
            if recv_node.out_edges
            else 0
        )
        record["delivered_n"] = delivered_n
        push = record["push"]
        if push:
            record["latency_iterations"] = (delivered_n - record["sent_n"]) // push
        record["sdep_ok"] = delivery_on_boundary(
            msg.threshold, delivered_n, push, msg.direction
        )
        self.tracer.instant(
            f"teleport.deliver {record['sender']}->{record['receiver']}.{record['method']}",
            CAT_TELEPORT,
            args={
                "delivered_n": delivered_n,
                "threshold": record["threshold"],
                "latency_iterations": record["latency_iterations"],
                "sdep_ok": record["sdep_ok"],
            },
        )

    def _deliver_before(self, node: FlatNode) -> None:
        """Deliver messages due immediately before a firing of ``node``."""
        queue = self._pending.get(node)
        if not queue:
            return
        push_b = node.out_edges[0].push_rate if node.out_edges else 0
        n_ob = self.channels[node.out_edges[0]].pushed_count if node.out_edges else 0
        remaining: List[PendingMessage] = []
        for msg in queue:
            due = msg.threshold is None or (
                msg.direction == "downstream" and n_ob + push_b > msg.threshold
            )
            if due:
                self._deliver_one(msg)
            else:
                remaining.append(msg)
        if remaining:
            self._pending[node] = remaining
        else:
            del self._pending[node]

    def _deliver_after(self, node: FlatNode) -> None:
        """Deliver messages due immediately after a firing of ``node``."""
        queue = self._pending.get(node)
        if not queue:
            return
        n_ob = self.channels[node.out_edges[0]].pushed_count if node.out_edges else 0
        remaining: List[PendingMessage] = []
        for msg in queue:
            if msg.direction == "upstream" and msg.threshold is not None and n_ob >= msg.threshold:
                self._deliver_one(msg)
            else:
                remaining.append(msg)
        if remaining:
            self._pending[node] = remaining
        else:
            del self._pending[node]

    # -- execution -----------------------------------------------------------

    def _execute_phases(self, phases: Sequence[Tuple[FlatNode, int]]) -> None:
        """Scalar execution, under tracing with one span per schedule phase.

        Per-phase (not per-firing) spans keep the recorder small and the
        overhead bounded: a phase fires one node ``count`` times back to
        back, which is exactly the granularity a profile attributes time at.
        """
        tracer = self.tracer if self.tracer.enabled else None
        executors = self._executors
        try:
            for node, count in phases:
                fire = executors[node]
                self._current_node = node
                if tracer is not None:
                    t0 = perf_counter()
                if self._pending:
                    for _ in range(count):
                        self._deliver_before(node)
                        fire()
                        self._deliver_after(node)
                else:
                    for _ in range(count):
                        fire()
                        if self._pending:
                            self._deliver_after(node)
                if tracer is not None:
                    push = node.out_edges[0].push_rate if node.out_edges else 0
                    tracer.complete(
                        node.name,
                        CAT_FILTER,
                        t0,
                        perf_counter() - t0,
                        args={"firings": count, "items": count * push},
                    )
                self._fired[node] += count
        finally:
            # Also after a raising work(): no stale sender for a later send.
            self._current_node = None

    def run_init(self) -> None:
        """Call filter ``init`` hooks and run the initialization schedule."""
        if self._initialized:
            return
        self._check_ownership()
        for node in self.graph.filter_nodes():
            node.filter.init()
        # Workers fork on the first parallel command — i.e. here, after the
        # init() hooks above, so children inherit initialized filter state.
        if self.tracer.enabled:
            t0 = perf_counter()
        runner = self._runner
        if runner is None:
            self._execute_phases(list(self.program.init))
        else:
            runner.run_init()
            for node, count in self.program.init:
                self._fired[node] += count
        if self.tracer.enabled:
            self.tracer.complete("run_init", CAT_ENGINE, t0, perf_counter() - t0)
        self._initialized = True

    def run_steady(self, periods: int = 1) -> None:
        """Run ``periods`` steady-state periods (after initialization)."""
        if not self._initialized:
            self.run_init()
        self._check_ownership()
        if periods <= 0:
            # Nothing runs, so nothing is recorded: no span, no flight
            # event, and no negative step on a monotonic counter.
            return
        if self.tracer.enabled:
            t0 = perf_counter()
            try:
                self._run_steady_engine(periods)
            finally:
                self.tracer.complete(
                    f"run_steady x{periods}",
                    CAT_ENGINE,
                    t0,
                    perf_counter() - t0,
                    args={"periods": periods, "engine": self.engine_used},
                )
            return
        self._run_steady_engine(periods)

    def _run_steady_engine(self, periods: int) -> None:
        if not METRICS.enabled:
            self._dispatch_steady(periods)
            return
        engine = self.engine_used
        tally = self._tally
        if tally is None or tally.engine != engine:
            tally = self._tally = METRICS.run_tally(
                self, engine, self._items_per_period
            )
        t0 = perf_counter()
        tally.in_flight = (periods, t0)
        try:
            self._dispatch_steady(periods)
        except BaseException as exc:
            # Settles this run's ``run_start`` ahead of the error.
            FLIGHT.record("run_error", engine=engine, error=exc.__class__.__name__)
            tally.in_flight = None
            _M_RUN_ERRORS.inc(engine=engine)
            METRICS.maybe_publish()
            raise
        end = perf_counter()
        took = end - t0
        mantissa, exponent = frexp(took)  # bucket_exponent(), unclamped, inline
        key = (periods, exponent - (mantissa == 0.5))
        tally.counts[key] = tally.counts.get(key, 0) + 1
        tally.seconds += took
        tally.in_flight = None
        tally.last = (periods, took, end)
        if end >= METRICS._publish_due:
            METRICS.maybe_publish()

    def _dispatch_steady(self, periods: int) -> None:
        runner = self._runner
        if runner is None:
            phases = list(self.program.steady)
            for _ in range(periods):
                self._execute_phases(phases)
            return
        runner.run_steady(periods)
        self._unsettled_periods += periods

    @property
    def fired(self) -> Dict[FlatNode, int]:
        """Firings per node so far.  The scalar engine counts as it fires;
        a plan or parallel run leaves whole periods to settle here."""
        periods = self._unsettled_periods
        if periods:
            self._unsettled_periods = 0
            fired = self._fired
            for node, reps in self.program.reps.items():
                fired[node] += reps * periods
        return self._fired

    def run(self, periods: int = 1) -> None:
        """Initialize then run ``periods`` steady-state periods."""
        self.run_init()
        self.run_steady(periods)

    def flush_trace(self) -> None:
        """Finalize trace metadata (and write the trace file, if requested).

        Snapshots per-channel counters, the engine report, and plan-cache
        statistics into ``tracer.meta`` so exporters and the report CLI see
        them; called automatically from :meth:`close`.
        """
        tracer = self.tracer
        if not tracer.enabled or getattr(self, "_trace_flushed", False):
            return
        self._trace_flushed = True
        from repro.obs.counters import channel_snapshot

        if not getattr(tracer, "track_names", None):
            tracer.name_track(0, "main")
        tracer.meta["engine"] = self.engine_used
        tracer.meta["channels"] = channel_snapshot(self.channels)
        tracer.meta["engine_report"] = self.engine_report()
        if self.plan is not None:
            tracer.meta["plan_cache"] = dict(self.plan.cache_stats)
        if getattr(self.plan, "codegen_active", False):
            from repro.runtime.codegen import codegen_cache_summary

            tracer.meta["codegen_cache"] = codegen_cache_summary()
        if self._trace_path is not None:
            tracer.write(self._trace_path)
            self._trace_path = None

    def close(self) -> None:
        """Release engine resources (parallel workers, shared memory,
        grown channel buffers).

        Idempotent and safe on every engine.  The batched and codegen
        engines shrink every tape to its live items; introspection still
        answers, and running on simply regrows them.  Traced runs flush
        their metadata (and the ``trace=<path>`` file) here.
        """
        # Snapshot counters before the parallel arena (and its ring-control
        # shared memory) is torn down.
        self.flush_trace()
        if self.parallel is not None:
            self.parallel.close()
        elif self.plan is not None:
            # A closed session stays reachable through plan<->interpreter
            # cycles until a full collection: hand its grown tapes back now.
            # Live items, counters and snapshot() are untouched.
            self.plan.release_scratch()
            for chan in self.channels.values():
                chan.trim()
        METRICS.fold()
        METRICS.maybe_publish()

    def __enter__(self) -> "Interpreter":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    # -- introspection ---------------------------------------------------------

    def items_pushed(self, filt: Filter) -> int:
        """Total items this filter has pushed (``n`` of its output tape)."""
        node = self.graph.node_for(filt)
        if not node.out_edges:
            return 0
        return self.channels[node.out_edges[0]].pushed_count

    def firings(self, filt: Filter) -> int:
        """Number of times this filter's work function has run."""
        return self.fired[self.graph.node_for(filt)]


def run_to_list(
    stream: Stream,
    sink,
    periods: int,
    check: bool = True,
    engine: str = "scalar",
    **engine_opts,
) -> List[float]:
    """Convenience: run ``periods`` steady periods, return sink's items."""
    interp = Interpreter(stream, check=check, engine=engine, **engine_opts)
    try:
        interp.run(periods)
    finally:
        interp.close()
    return list(sink.collected)
