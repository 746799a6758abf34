"""Whole-graph static analysis: races, ring capacities, fusion regions.

PR 3's :mod:`repro.analysis` proves facts about *single* filters (purity,
exact rates, vectorization safety).  This module lifts those facts to the
flattened graph and produces three certified artifacts the execution
engines consume:

**Parallel race/escape detection** (SL401-SL403).  The parallel engine
forks workers, so each process gets copy-on-write copies of every filter.
That is only safe when no two filter instances *alias the same mutable
object* with at least one of them mutating it — after the fork the copies
diverge silently, and the parallel run stops matching the scalar one.
:func:`shared_state_groups` finds such aliases by object identity over the
instances' attribute dictionaries; filters whose effects cannot be bounded
at all (dynamic writes, ``self`` escapes) are flagged SL402 and refused by
:class:`~repro.runtime.parallel.ParallelSession`.  Teleport portals whose
sender and receivers land in different worker partitions are SL403
(messaging is process-local); :func:`repro.mapping.strategies.partition_nodes`
co-locates both hazard kinds instead of discovering corruption at run time.

**Ring-capacity and stall-freedom proofs** (SL404).
:func:`ring_capacity_proofs` replays the per-worker restricted schedules —
at the exact firing granularity the parallel runtime uses (monolithic
``count * batch_periods`` merges or per-period loops) — as a greedy
interleaving over abstract channel occupancies.  The replay is a *witness
schedule*: if it completes ``init`` plus two full batches, then per-worker
in-order execution with each cross edge capped at its replay peak can
never deadlock, because the earliest witness-order unit not yet completed
always has both enough items (its producer is ahead of the witness) and
enough space (its consumer is, too).  The peak is therefore a proved
minimal safe ring capacity, replacing the fixed-capacity guess.

**Certified fusion regions** (SL405).  :func:`certified_fusion_regions`
finds splitjoins whose every branch is a chain of single-input
single-output filters with *pure* effects and *exact* rates, with no
initial items on any internal edge.  Executing such a region's nodes in
the global steady order, once per period, is observationally identical to
the scalar interpreter (same firings, same item routing, same
floating-point order per firing) — so the codegen engine may fuse across
the splitjoin boundary it previously treated as a hard block wall.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis import analyze_filter
from repro.analysis.diagnostics import Diagnostic, DiagnosticBag, suppressed_codes
from repro.graph.composites import SplitJoin
from repro.graph.flatgraph import (
    FILTER,
    JOINER,
    SPLITTER,
    FlatEdge,
    FlatGraph,
    FlatNode,
)
from repro.graph.splitjoin import COMBINE, DUPLICATE, ROUND_ROBIN
from repro.scheduling.steady import ProgramSchedule, restrict_schedule

__all__ = [
    "SharedStateGroup",
    "PortalLink",
    "FusionRegion",
    "RingProof",
    "GraphAnalysis",
    "GraphReport",
    "shared_state_groups",
    "portal_links",
    "certified_fusion_regions",
    "analyze_flat_graph",
    "ring_capacity_proofs",
    "graph_report",
]


# ---------------------------------------------------------------------------
# Shared mutable state across filter instances
# ---------------------------------------------------------------------------

#: Attributes every Filter owns; the framework mutates/rebinds these itself.
_FRAMEWORK_ATTRS = frozenset({"name", "rate", "input", "output", "_uid"})

#: Value types that cannot be mutated in place — aliasing them is harmless.
_IMMUTABLE_TYPES = (
    bool,
    int,
    float,
    complex,
    str,
    bytes,
    tuple,
    frozenset,
    range,
    type(None),
)


def _shareable(value: Any) -> bool:
    """Could aliasing ``value`` across forked workers cause divergence?"""
    if isinstance(value, _IMMUTABLE_TYPES):
        return False
    if inspect.ismodule(value) or inspect.isclass(value):
        return False
    if inspect.isroutine(value):  # plain functions/methods used as callbacks
        return False
    from repro.runtime.messaging import Portal  # late: avoid import cycle

    if isinstance(value, Portal):
        return False  # portal aliasing is the SL403 analysis, not SL401
    return True


@dataclass(frozen=True)
class SharedStateGroup:
    """One mutable object aliased by two or more filter instances."""

    #: ``(filter instance name, attribute)`` for every alias, sorted.
    members: Tuple[Tuple[str, str], ...]
    #: Names of the member filters whose ``work()`` mutates the attribute.
    mutators: Tuple[str, ...]
    #: Type name of the shared object, for the diagnostic message.
    type_name: str

    @property
    def filter_names(self) -> Tuple[str, ...]:
        return tuple(sorted({name for name, _attr in self.members}))

    def payload(self) -> Dict[str, Any]:
        return {
            "members": [list(m) for m in self.members],
            "mutators": list(self.mutators),
            "type": self.type_name,
        }


def shared_state_groups(graph: FlatGraph) -> List[SharedStateGroup]:
    """Mutable objects reachable as attributes of >= 2 filter instances.

    A group is a *race* only when at least one sharer mutates the attribute
    (per the effects pass) — or when a sharer's effects cannot be bounded,
    in which case mutation cannot be ruled out and the sharer counts as a
    mutator conservatively.
    """
    by_id: Dict[int, List[Tuple[FlatNode, str, Any]]] = {}
    for node in graph.filter_nodes():
        for attr, value in sorted(vars(node.filter).items()):
            if attr in _FRAMEWORK_ATTRS or not _shareable(value):
                continue
            by_id.setdefault(id(value), []).append((node, attr, value))
    groups: List[SharedStateGroup] = []
    for entries in by_id.values():
        holders = {n.uid for n, _a, _v in entries}
        if len(holders) < 2:
            continue
        mutators: List[str] = []
        for node, attr, _value in entries:
            effects = analyze_filter(node.filter).effects
            if effects is None or attr in effects.mutated or effects.dynamic:
                mutators.append(node.name)
        if not mutators:
            continue
        groups.append(
            SharedStateGroup(
                members=tuple(sorted((n.name, a) for n, a, _v in entries)),
                mutators=tuple(sorted(set(mutators))),
                type_name=type(entries[0][2]).__name__,
            )
        )
    groups.sort(key=lambda g: g.members)
    return groups


# ---------------------------------------------------------------------------
# Teleport portal inventory
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PortalLink:
    """A teleport portal attribute and the receivers registered on it."""

    sender: str
    attr: str
    receivers: Tuple[str, ...]

    def payload(self) -> Dict[str, Any]:
        return {
            "sender": self.sender,
            "attr": self.attr,
            "receivers": list(self.receivers),
        }


def portal_links(graph: FlatGraph) -> List[PortalLink]:
    """Every Portal attribute on a filter, with its registered receivers."""
    from repro.runtime.messaging import Portal  # late: avoid import cycle

    links: List[PortalLink] = []
    for node in graph.filter_nodes():
        for attr, value in sorted(vars(node.filter).items()):
            if isinstance(value, Portal):
                links.append(
                    PortalLink(
                        sender=node.name,
                        attr=attr,
                        receivers=tuple(r.name for r in value.receivers),
                    )
                )
    links.sort(key=lambda l: (l.sender, l.attr))
    return links


# ---------------------------------------------------------------------------
# Certified cross-splitjoin fusion regions
# ---------------------------------------------------------------------------

_SPLIT_FUSABLE = frozenset({DUPLICATE, ROUND_ROBIN})
_JOIN_FUSABLE = frozenset({ROUND_ROBIN, COMBINE})


@dataclass(frozen=True)
class FusionRegion:
    """A splitjoin certified safe for cross-boundary fusion.

    ``members`` lists the region's flat nodes — splitter, branch filters,
    joiner — and is the unit the codegen engine fuses: the whole region
    runs once per steady period as a single closed loop.  Certification
    (pure effects, exact rates, no initial items) guarantees that loop is
    bit-exact against the scalar schedule: every firing consumes and
    produces the same items in the same order, and a COMBINE joiner's
    reducer sees the same arguments.
    """

    name: str
    splitter: FlatNode
    joiner: FlatNode
    members: Tuple[FlatNode, ...]
    branches: Tuple[Tuple[FlatNode, ...], ...]

    @property
    def filters(self) -> Tuple[FlatNode, ...]:
        """Just the branch filter nodes, in branch order."""
        return tuple(n for branch in self.branches for n in branch)

    @property
    def member_names(self) -> Tuple[str, ...]:
        return tuple(n.name for n in self.members)

    def payload(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "splitter": self.splitter.name,
            "joiner": self.joiner.name,
            "branches": len(self.branches),
            "filters": [n.name for n in self.filters],
        }


def _branch_filter_certified(node: FlatNode) -> bool:
    analysis = analyze_filter(node.filter)
    effects, rates = analysis.effects, analysis.rates
    if effects is None or not effects.pure:
        return False
    if rates is None or not rates.exact:
        return False
    return True


def _region_at(splitter: FlatNode) -> Optional[FusionRegion]:
    if splitter.flavor not in _SPLIT_FUSABLE:
        return None
    if not isinstance(splitter.obj, SplitJoin):
        return None  # feedback-loop splitters never qualify
    joiner: Optional[FlatNode] = None
    branches: List[Tuple[FlatNode, ...]] = []
    for edge in splitter.out_edges:
        if edge.initial:
            return None
        chain: List[FlatNode] = []
        cur = edge.dst
        while cur.kind == FILTER:
            if len(cur.in_edges) != 1 or len(cur.out_edges) != 1:
                return None
            if not _branch_filter_certified(cur):
                return None
            chain.append(cur)
            out = cur.out_edges[0]
            if out.initial:
                return None
            cur = out.dst
        if cur.kind != JOINER:
            return None  # nested splitjoin: not a flat region
        if joiner is None:
            joiner = cur
        elif cur is not joiner:
            return None
        branches.append(tuple(chain))
    if joiner is None or joiner.flavor not in _JOIN_FUSABLE:
        return None
    if joiner.obj is not splitter.obj:
        return None
    if len(joiner.in_edges) != len(splitter.out_edges):
        return None  # a zero-weight branch bypasses the splitter
    members = (splitter,) + tuple(n for b in branches for n in b) + (joiner,)
    return FusionRegion(
        name=splitter.obj.name,
        splitter=splitter,
        joiner=joiner,
        members=members,
        branches=tuple(branches),
    )


def certified_fusion_regions(graph: FlatGraph) -> List[FusionRegion]:
    """Maximal splitjoin regions provably safe to fuse across.

    Each region is *single-appearance by construction* once placed in a
    superbatch plan: the steady schedule is one topological sweep, so each
    member node appears exactly once, and the splitjoin's convexity means
    no node outside the region reads a region-internal edge.
    """
    regions: List[FusionRegion] = []
    for node in graph.nodes:
        if node.kind != SPLITTER:
            continue
        region = _region_at(node)
        if region is not None:
            regions.append(region)
    return regions


# ---------------------------------------------------------------------------
# Whole-graph analysis entry point (partition-independent facts)
# ---------------------------------------------------------------------------


@dataclass
class GraphAnalysis:
    """Partition-independent whole-graph facts plus their diagnostics."""

    shared_state: List[SharedStateGroup]
    portals: List[PortalLink]
    regions: List[FusionRegion]
    #: ``(filter name, reason)`` for filters whose effects are unbounded.
    unbounded: List[Tuple[str, str]]
    bag: DiagnosticBag

    def payload(self) -> Dict[str, Any]:
        return {
            "shared_state": [g.payload() for g in self.shared_state],
            "portals": [p.payload() for p in self.portals],
            "regions": [r.payload() for r in self.regions],
            "unbounded": [list(u) for u in self.unbounded],
        }


def analyze_flat_graph(graph: FlatGraph) -> GraphAnalysis:
    """Run every partition-independent graph pass and collect diagnostics."""
    bag = DiagnosticBag()

    groups = shared_state_groups(graph)
    by_name = {n.name: n for n in graph.filter_nodes()}
    for group in groups:
        who = ", ".join(f"{name}.{attr}" for name, attr in group.members)
        mutated_by = ", ".join(group.mutators)
        subject = by_name.get(group.mutators[0]) if group.mutators else None
        diag = Diagnostic.make(
            "SL401",
            f"{group.type_name} object shared by {who} is mutated by "
            f"{mutated_by}; forked workers would diverge silently",
            subject.filter if subject is not None else None,
        )
        if subject is not None:
            diag = diag.with_suppression(suppressed_codes(subject.filter))
        bag.add(diag)

    unbounded: List[Tuple[str, str]] = []
    for node in graph.filter_nodes():
        effects = analyze_filter(node.filter).effects
        if effects is None:
            continue  # SL006/SL005 territory, reported per-filter
        reasons = tuple(effects.dynamic) + tuple(effects.escapes)
        if not reasons:
            continue
        reason = "; ".join(reasons)
        unbounded.append((node.name, reason))
        bag.add(
            Diagnostic.make(
                "SL402",
                f"effects cannot be bounded statically ({reason}); parallel "
                "race freedom is unprovable",
                node.filter,
            ).with_suppression(suppressed_codes(node.filter))
        )

    portals = portal_links(graph)
    regions = certified_fusion_regions(graph)
    for region in regions:
        bag.add(
            Diagnostic.make(
                "SL405",
                f"splitjoin {region.name!r} certified for cross-boundary "
                f"fusion ({len(region.branches)} branches, "
                f"{len(region.filters)} filters, joiner {region.joiner.flavor})",
                region.splitter.obj,
            )
        )
    return GraphAnalysis(
        shared_state=groups,
        portals=portals,
        regions=regions,
        unbounded=unbounded,
        bag=bag,
    )


# ---------------------------------------------------------------------------
# Static ring-capacity / stall-freedom proof
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RingProof:
    """Proved minimal safe capacity for one cross-worker ring."""

    edge_name: str
    src: str
    dst: str
    src_wid: int
    dst_wid: int
    #: The proved minimal capacity (replay peak), or the legacy fallback
    #: capacity when ``proved`` is False.
    capacity: int
    #: Peak occupancy observed in the replay (== capacity when proved).
    peak_items: int
    proved: bool
    reason: str
    items_per_period: int
    #: The schedule's sequential buffer bound, for comparison.
    schedule_bound: int
    #: Items one batch generation pushes (batch_periods × items_per_period).
    batch_items: int = 0
    #: Certified double-buffered capacity: ``capacity + batch_items``.  The
    #: witness replay proves the barrier-free peak is ``capacity`` (the
    #: replay models no barriers at all), so one extra batch generation of
    #: headroom lets producers run a whole batch ahead of consumers while
    #: the proof's deadlock-freedom argument still applies verbatim — the
    #: 2× bound the double-buffered discipline allocates (the parallel
    #: engine's ``RING_SLACK_BATCHES``).  Meaningful only when ``proved``
    #: is True.
    db_capacity: int = 0

    def payload(self) -> Dict[str, Any]:
        return {
            "edge": self.edge_name,
            "src_wid": self.src_wid,
            "dst_wid": self.dst_wid,
            "capacity": self.capacity,
            "peak_items": self.peak_items,
            "proved": self.proved,
            "reason": self.reason,
            "items_per_period": self.items_per_period,
            "schedule_bound": self.schedule_bound,
            "batch_items": self.batch_items,
            "db_capacity": self.db_capacity,
        }


def _edge_need(edge: FlatEdge, count: int) -> int:
    """Items the consumer must see on ``edge`` to fire ``count`` times.

    Mirrors ``ParallelSession._fire``'s pre-wait: ``count`` pops plus the
    filter's lookahead window beyond the last pop.
    """
    extra = edge.dst.peek_extra if edge.dst.kind == FILTER else 0
    return count * edge.pop_rate + extra


def _fallback_capacity(
    program: ProgramSchedule, edge: FlatEdge, batch_periods: int, per_period: int
) -> int:
    """The pre-proof fixed-capacity guess (init peak + two batches + slop)."""
    return program.buffer_bounds[edge] + 2 * batch_periods * per_period + 64


def ring_capacity_proofs(
    program: ProgramSchedule,
    node_wid: Dict[FlatNode, int],
    batch_periods: int = 1,
    monolithic: bool = False,
) -> Dict[FlatEdge, RingProof]:
    """Prove minimal safe ring capacities for a given worker partition.

    Replays the per-worker restricted schedules — merged to the exact
    firing granularity ``ParallelSession._exec_schedule`` uses — as a
    greedy interleaving over abstract occupancies, running the init
    schedule plus **two** full batches (one suffices by periodicity; the
    second confirms the steady peak repeats).  Every unit fires atomically
    once all its input edges hold ``count * pop + peek_extra`` items, the
    same condition the runtime blocks on.

    The completed replay is a witness schedule: in any real execution where
    each worker fires its units in order and each cross edge holds at most
    its replay peak, the earliest witness-order unit not yet completed is
    always enabled — its producers are at least as far along as in the
    witness (enough items) and its consumers are too (enough space) — so
    the session cannot deadlock.  The replay peak is therefore a proved
    minimal safe capacity.

    Because the replay models no barriers, a proved capacity certifies
    **barrier-free** execution directly: the parallel engine's
    double-buffered discipline drops the per-batch barrier for DAG
    strategies whenever every cross edge is proved, and each proof also
    carries the certified 2× bound ``db_capacity = capacity +
    batch_items`` — the allocation that lets producers run one whole
    batch generation ahead (the second buffer) at the default slack.

    If the greedy replay wedges (it should not, for schedules built by
    :func:`~repro.scheduling.steady.build_schedule`), every cross edge
    falls back to the legacy capacity guess with ``proved=False``.
    """
    graph = program.graph
    cross = [
        e for e in graph.edges if node_wid.get(e.src, 0) != node_wid.get(e.dst, 0)
    ]
    if not cross:
        return {}
    per_period = {e: program.reps[e.src] * e.push_rate for e in cross}

    wids = sorted({node_wid.get(n, 0) for n in graph.nodes})
    sequences: Dict[int, List[Tuple[FlatNode, int]]] = {}
    for wid in wids:
        nodes = frozenset(n for n in graph.nodes if node_wid.get(n, 0) == wid)
        init = restrict_schedule(program.init, nodes)
        steady = restrict_schedule(program.steady, nodes)
        if monolithic:
            batch = [(node, count * batch_periods) for node, count in steady]
        else:
            batch = [
                (node, count)
                for _ in range(batch_periods)
                for node, count in steady
            ]
        sequences[wid] = list(init.phases) + batch + batch

    occupancy: Dict[FlatEdge, int] = {e: len(e.initial) for e in graph.edges}
    peak: Dict[FlatEdge, int] = dict(occupancy)
    cursor = {wid: 0 for wid in wids}
    stuck: Optional[str] = None
    while True:
        pending = [wid for wid in wids if cursor[wid] < len(sequences[wid])]
        if not pending:
            break
        progress = False
        for wid in pending:
            seq = sequences[wid]
            while cursor[wid] < len(seq):
                node, count = seq[cursor[wid]]
                if any(
                    occupancy[e] < _edge_need(e, count)
                    for e in node.in_edges
                    if e.pop_rate > 0 or _edge_need(e, count) > 0
                ):
                    break
                cursor[wid] += 1
                progress = True
                for e in node.in_edges:
                    occupancy[e] -= count * e.pop_rate
                for e in node.out_edges:
                    occupancy[e] += count * e.push_rate
                    if occupancy[e] > peak[e]:
                        peak[e] = occupancy[e]
        if not progress:
            blocked = ", ".join(
                f"worker {wid} at {sequences[wid][cursor[wid]][0].name}"
                for wid in pending[:3]
            )
            stuck = f"replay wedged ({blocked}); capacities not proved"
            break

    mode = "monolithic" if monolithic else "per-period"
    proofs: Dict[FlatEdge, RingProof] = {}
    for e in cross:
        if stuck is None:
            capacity = max(1, peak[e])
            proved = True
            reason = (
                f"witness replay of init + 2 {mode} batches "
                f"(batch_periods={batch_periods}) completed with peak "
                f"{peak[e]}"
            )
        else:
            capacity = _fallback_capacity(program, e, batch_periods, per_period[e])
            proved = False
            reason = stuck
        batch_items = batch_periods * per_period[e]
        proofs[e] = RingProof(
            edge_name=f"{e.src.name}->{e.dst.name}",
            src=e.src.name,
            dst=e.dst.name,
            src_wid=node_wid.get(e.src, 0),
            dst_wid=node_wid.get(e.dst, 0),
            capacity=capacity,
            peak_items=peak[e],
            proved=proved,
            reason=reason,
            items_per_period=per_period[e],
            schedule_bound=program.buffer_bounds[e],
            batch_items=batch_items,
            db_capacity=(capacity + batch_items) if proved else 0,
        )
    return proofs


# ---------------------------------------------------------------------------
# Convenience driver for ``streamlint --graph``
# ---------------------------------------------------------------------------


@dataclass
class GraphReport:
    """Everything ``streamlint --graph`` reports for one stream."""

    stream_name: str
    analysis: GraphAnalysis
    proofs: List[RingProof]
    strategy: str
    cores: int
    #: Why the representative partition could not be computed, if it could not.
    partition_error: Optional[str]
    #: Rate-balance / maxloop verification outcome (auxiliary record).
    verified: bool
    verify_detail: str
    bag: DiagnosticBag

    def payload(self) -> Dict[str, Any]:
        data = self.analysis.payload()
        data.update(
            {
                "stream": self.stream_name,
                "strategy": self.strategy,
                "cores": self.cores,
                "verified": self.verified,
                "rings": [p.payload() for p in self.proofs],
                "summary": self.bag.summary(),
            }
        )
        if self.partition_error:
            data["partition_error"] = self.partition_error
        return data


def graph_report(stream, cores: int = 2, strategy: str = "softpipe") -> GraphReport:
    """Run the whole-graph pass on a stream with a representative partition.

    The partition (``strategy`` on ``cores`` workers) exists to make the
    partition-*dependent* facts concrete for lint output: ring-capacity
    proofs per cross edge, and SL403 portal-boundary checks.  The actual
    parallel runtime recomputes proofs for whatever partition it really
    uses.
    """
    from repro.graph.flatgraph import flatten
    from repro.scheduling.steady import build_schedule
    from repro.scheduling.verification import verify_program

    graph = flatten(stream)
    analysis = analyze_flat_graph(graph)
    bag = DiagnosticBag(list(analysis.bag))

    verification = verify_program(stream)

    proofs: List[RingProof] = []
    partition_error: Optional[str] = None
    try:
        from repro.mapping.strategies import partition_nodes

        program = build_schedule(graph)
        part = partition_nodes(stream, graph, program.reps, strategy, cores)
        used = sorted(set(part.values()))
        wid_of_core = {core: i + 1 for i, core in enumerate(used)}
        node_wid = {
            node: wid_of_core.get(part.get(node), 0) if node in part else 0
            for node in graph.nodes
        }
        if len(used) >= 2:
            name_wid = {n.name: w for n, w in node_wid.items()}
            for link in analysis.portals:
                wids = {name_wid.get(link.sender, 0)} | {
                    name_wid.get(r, 0) for r in link.receivers
                }
                if len(wids) > 1:
                    bag.add(
                        Diagnostic.make(
                            "SL403",
                            f"portal {link.sender}.{link.attr} spans worker "
                            f"partitions {sorted(wids)}; teleport delivery "
                            "is process-local",
                        )
                    )
            edge_proofs = ring_capacity_proofs(program, node_wid)
            proofs = sorted(edge_proofs.values(), key=lambda p: p.edge_name)
            for proof in proofs:
                if proof.proved:
                    bag.add(
                        Diagnostic.make(
                            "SL404",
                            f"ring {proof.edge_name} proved stall-free at "
                            f"capacity {proof.capacity} "
                            f"(schedule bound {proof.schedule_bound})",
                        )
                    )
    except Exception as exc:
        partition_error = f"{type(exc).__name__}: {exc}"

    return GraphReport(
        stream_name=getattr(stream, "name", type(stream).__name__),
        analysis=analysis,
        proofs=proofs,
        strategy=strategy,
        cores=cores,
        partition_error=partition_error,
        verified=verification.ok,
        verify_detail=verification.detail,
        bag=bag,
    )
