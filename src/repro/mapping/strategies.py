"""The six mapping strategies the evaluation compares.

Each strategy takes a built application, transforms its model graph,
assigns actors to cores, and evaluates throughput on the simulated
16-core machine:

========================  ==========================================  ==========
strategy                  transformation                              discipline
========================  ==========================================  ==========
``task``                  none (fork/join over split-join branches)   DAG
``fine_grained``          fiss *every* stateless filter 16 ways       DAG
``data`` (task+data)      coarsen stateless regions, judicious fiss   DAG
``softpipe`` (task+SWP)   selective fusion                            pipelined
``combined`` (T+D+SWP)    coarsen + fiss + selective fusion           pipelined
``space`` (prior work)    selective fusion to one actor per core      pipelined
========================  ==========================================  ==========
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.errors import MachineError
from repro.graph.base import Filter, Stream
from repro.graph.composites import FeedbackLoop, Pipeline, SplitJoin
from repro.graph.flatgraph import FILTER, FlatNode
from repro.machine.model import ModelActor, ModelGraph
from repro.machine.raw import RawMachine
from repro.machine.simulator import (
    SimResult,
    dag_makespan,
    pipelined_ii,
    single_core_baseline,
)
from repro.mapping.partition import (
    coarsen_stateless,
    judicious_fission,
    lpt_assign,
    selective_fusion,
)


@dataclass(frozen=True)
class StrategyResult:
    """One strategy's mapping and its simulated throughput."""

    name: str
    model: ModelGraph
    assignment: Dict[ModelActor, int]
    sim: SimResult
    baseline: SimResult

    @property
    def speedup(self) -> float:
        """Throughput gain over sequential execution on one core."""
        return self.baseline.cycles_per_period / self.sim.cycles_per_period


# ---------------------------------------------------------------------------
# Task parallelism: fork/join over split-join branches
# ---------------------------------------------------------------------------


def _task_parallel_cores(stream: Stream, n_cores: int) -> Dict[int, int]:
    """Core for every stream uid under the pure fork/join discipline.

    Pipeline children share their parent's core pool (stages execute
    sequentially within a period); split-join branches divide the pool.
    """
    cores: Dict[int, int] = {}

    def assign(s: Stream, pool: List[int]) -> None:
        cores[s.uid] = pool[0]
        if isinstance(s, Pipeline):
            for child in s.children():
                assign(child, pool)
        elif isinstance(s, SplitJoin):
            kids = s.children()
            n = len(kids)
            for i, child in enumerate(kids):
                if n <= len(pool):
                    lo = i * len(pool) // n
                    hi = max(lo + 1, (i + 1) * len(pool) // n)
                    assign(child, pool[lo:hi])
                else:
                    assign(child, [pool[i % len(pool)]])
        elif isinstance(s, FeedbackLoop):
            assign(s.body, pool)
            assign(s.loopback, pool)

    assign(stream, list(range(n_cores)))
    return cores


def task_parallel(stream: Stream, machine: RawMachine = RawMachine()) -> StrategyResult:
    """The task-parallel baseline (the evaluation's first bar)."""
    model = ModelGraph.from_stream(stream)
    cores = _task_parallel_cores(stream, machine.n_cores)
    assignment: Dict[ModelActor, int] = {}
    for actor in model.compute_actors():
        node = actor.origin
        assert isinstance(node, FlatNode)
        owner = node.obj
        uid = owner.uid if owner is not None else None
        if uid is None or uid not in cores:
            raise MachineError(f"no task-parallel core for actor {actor.name}")
        assignment[actor] = cores[uid]
    sim = dag_makespan(model, assignment, machine)
    return StrategyResult("task", model, assignment, sim, single_core_baseline(model, machine))


# ---------------------------------------------------------------------------
# Fine-grained data parallelism (the cautionary tale)
# ---------------------------------------------------------------------------


def fine_grained(stream: Stream, machine: RawMachine = RawMachine()) -> StrategyResult:
    """Naively replicate every stateless filter across all cores."""
    base = ModelGraph.from_stream(stream)
    model = base.copy()
    for actor in list(model.actors):
        if actor.io or actor.router or actor.stateful:
            continue
        replicas = model.fiss(actor, machine.n_cores)
        del replicas
    assignment: Dict[ModelActor, int] = {}
    cursor = 0
    for actor in model.compute_actors():
        if "#" in actor.name:
            assignment[actor] = int(actor.name.rsplit("#", 1)[1]) % machine.n_cores
        else:
            assignment[actor] = cursor % machine.n_cores
            cursor += 1
    sim = dag_makespan(model, assignment, machine)
    return StrategyResult("fine_grained", model, assignment, sim, single_core_baseline(base, machine))


# ---------------------------------------------------------------------------
# Coarse-grained data parallelism
# ---------------------------------------------------------------------------


def data_parallel(stream: Stream, machine: RawMachine = RawMachine()) -> StrategyResult:
    """Task + coarse-grained data parallelism (fuse, then fiss judiciously)."""
    base = ModelGraph.from_stream(stream)
    model = judicious_fission(coarsen_stateless(base), machine.n_cores)
    assignment = lpt_assign(model, machine.n_cores)
    sim = dag_makespan(model, assignment, machine)
    return StrategyResult("data", model, assignment, sim, single_core_baseline(base, machine))


# ---------------------------------------------------------------------------
# Coarse-grained software pipelining
# ---------------------------------------------------------------------------


def software_pipeline(stream: Stream, machine: RawMachine = RawMachine()) -> StrategyResult:
    """Task + software pipelining: selective fusion, then pack the
    dependence-free steady state."""
    base = ModelGraph.from_stream(stream)
    model = selective_fusion(base, 2 * machine.n_cores)
    assignment = lpt_assign(model, machine.n_cores)
    sim = pipelined_ii(model, assignment, machine)
    return StrategyResult("softpipe", model, assignment, sim, single_core_baseline(base, machine))


def combined(stream: Stream, machine: RawMachine = RawMachine()) -> StrategyResult:
    """Task + data + software pipelining (the paper's full technique).

    Software-pipelines the data-parallelized graph: the same coarsen+fiss
    model as :func:`data_parallel`, but executed with intra-period
    dependences absorbed by the pipeline prologue.
    """
    base = ModelGraph.from_stream(stream)
    model = judicious_fission(coarsen_stateless(base), machine.n_cores)
    model = selective_fusion(model, 2 * machine.n_cores, protect_replicas=True)
    assignment = lpt_assign(model, machine.n_cores)
    sim = pipelined_ii(model, assignment, machine)
    return StrategyResult("combined", model, assignment, sim, single_core_baseline(base, machine))


# ---------------------------------------------------------------------------
# Prior work: space multiplexing (task + pipeline parallelism)
# ---------------------------------------------------------------------------


def space_multiplex(stream: Stream, machine: RawMachine = RawMachine()) -> StrategyResult:
    """The previous StreamIt backend: fuse to one filter per tile, run
    hardware-pipelined — no data parallelism, so a dominant filter bounds
    throughput."""
    base = ModelGraph.from_stream(stream)
    model = selective_fusion(base, machine.n_cores)
    actors = sorted(model.compute_actors(), key=lambda a: -a.work)
    assignment = {actor: i % machine.n_cores for i, actor in enumerate(actors)}
    sim = pipelined_ii(model, assignment, machine)
    return StrategyResult("space", model, assignment, sim, single_core_baseline(base, machine))


STRATEGIES: Dict[str, Callable[..., StrategyResult]] = {
    "task": task_parallel,
    "fine_grained": fine_grained,
    "data": data_parallel,
    "softpipe": software_pipeline,
    "combined": combined,
    "space": space_multiplex,
}


# ---------------------------------------------------------------------------
# Flat-graph partitions for the parallel runtime
# ---------------------------------------------------------------------------


def _strongly_connected(graph) -> List[List[FlatNode]]:
    """Strongly connected components of the flat graph (all edges, delayed
    included) — iterative Tarjan, smallest-index order."""
    index: Dict[FlatNode, int] = {}
    low: Dict[FlatNode, int] = {}
    on_stack: Dict[FlatNode, bool] = {}
    stack: List[FlatNode] = []
    sccs: List[List[FlatNode]] = []
    counter = [0]

    for root in graph.nodes:
        if root in index:
            continue
        work = [(root, iter(root.out_edges))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            node, edges = work[-1]
            advanced = False
            for edge in edges:
                child = edge.dst
                if child not in index:
                    index[child] = low[child] = counter[0]
                    counter[0] += 1
                    stack.append(child)
                    on_stack[child] = True
                    work.append((child, iter(child.out_edges)))
                    advanced = True
                    break
                if on_stack.get(child):
                    low[node] = min(low[node], index[child])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = []
                while True:
                    member = stack.pop()
                    on_stack[member] = False
                    comp.append(member)
                    if member is node:
                        break
                sccs.append(comp)
    return sccs


def _strategy_model_assignment(strategy: str, base: ModelGraph, n_cores: int):
    """Replicate a strategy's model transform + core assignment (no sim)."""
    model = base.copy()
    if strategy == "fine_grained":
        for actor in list(model.actors):
            if actor.io or actor.router or actor.stateful:
                continue
            model.fiss(actor, n_cores)
        assignment: Dict[ModelActor, int] = {}
        cursor = 0
        for actor in model.compute_actors():
            if "#" in actor.name:
                assignment[actor] = int(actor.name.rsplit("#", 1)[1]) % n_cores
            else:
                assignment[actor] = cursor % n_cores
                cursor += 1
    elif strategy == "data":
        model = judicious_fission(coarsen_stateless(model), n_cores)
        assignment = lpt_assign(model, n_cores)
    elif strategy == "softpipe":
        model = selective_fusion(model, 2 * n_cores)
        assignment = lpt_assign(model, n_cores)
    elif strategy == "combined":
        model = judicious_fission(coarsen_stateless(model), n_cores)
        model = selective_fusion(model, 2 * n_cores, protect_replicas=True)
        assignment = lpt_assign(model, n_cores)
    elif strategy == "space":
        model = selective_fusion(model, n_cores)
        actors = sorted(model.compute_actors(), key=lambda a: -a.work)
        assignment = {actor: i % n_cores for i, actor in enumerate(actors)}
    else:
        raise MachineError(f"unknown mapping strategy {strategy!r}")
    return model, assignment


def partition_nodes(stream, graph, reps, strategy: str, n_cores: int):
    """Project a mapping strategy onto the live flat graph.

    Returns ``{FlatNode: core}`` over the *compute* nodes (filters with both
    rates nonzero, splitters, joiners).  I/O endpoints — sources and sinks —
    are left out: the parallel runtime keeps them on the parent process,
    mirroring the paper's off-chip I/O convention (``compute_actors``).

    Three runtime legality fixups are applied to the model assignment:

    * fission replicas collapse onto replica #0's core (one process owns a
      filter instance's firings; the simulator still models all replicas);
    * every strongly connected component (feedback loop) is co-located on
      the component's majority core, so no cycle crosses a blocking ring
      boundary (which could deadlock);
    * parallel race hazards found by :mod:`repro.analysis.graph` — filter
      instances aliasing one mutable object, and teleport portal
      sender/receiver sets — are co-located too, so forked copies never
      diverge and messages never cross a process boundary.  Overlapping
      constraint sets are merged (union-find) before voting, so a node in
      two hazard groups cannot be pulled apart by a later fixup.
    """
    if strategy not in STRATEGIES:
        raise MachineError(
            f"unknown mapping strategy {strategy!r}; expected one of "
            f"{tuple(STRATEGIES)}"
        )
    base = ModelGraph.from_flatgraph(graph, reps)
    io_nodes = {a.origin for a in base.actors if a.io}
    part: Dict[FlatNode, int] = {}
    if strategy == "task":
        cores = _task_parallel_cores(stream, n_cores)
        for node in graph.nodes:
            if node in io_nodes:
                continue
            owner = node.obj
            uid = owner.uid if owner is not None else None
            if uid is None or uid not in cores:
                raise MachineError(f"no task-parallel core for node {node.name}")
            part[node] = cores[uid]
    else:
        _model, assignment = _strategy_model_assignment(strategy, base, n_cores)
        for actor, core in assignment.items():
            for node in actor.members:
                if node not in io_nodes:
                    part[node] = core
        for node in graph.nodes:
            if node in io_nodes or node in part:
                continue
            part[node] = 0
    # Co-location constraints: feedback cycles (a cycle split across
    # workers would have both sides blocked waiting on the other's ring)
    # plus the race hazards the whole-graph analysis finds (shared mutable
    # objects, teleport portal endpoint sets).
    constraints: List[List[FlatNode]] = [list(scc) for scc in _strongly_connected(graph)]
    # An analyzer crash propagates: dropping these constraints silently
    # could put two filters that share a mutable object on two workers.
    from repro.analysis.graph import portal_links, shared_state_groups

    by_name = {n.name: n for n in graph.nodes}
    for group in shared_state_groups(graph):
        constraints.append(
            [by_name[nm] for nm in group.filter_names if nm in by_name]
        )
    for link in portal_links(graph):
        constraints.append(
            [
                by_name[nm]
                for nm in (link.sender, *link.receivers)
                if nm in by_name
            ]
        )
    # Merge overlapping constraint sets (union-find), then move each merged
    # cluster onto its majority core.
    leader: Dict[FlatNode, FlatNode] = {}

    def _find(node: FlatNode) -> FlatNode:
        while leader.get(node, node) is not node:
            leader[node] = leader.get(leader[node], leader[node])
            node = leader[node]
        return node

    for members in constraints:
        members = [n for n in members if n in part]
        if len(members) < 2:
            continue
        head = _find(members[0])
        for node in members[1:]:
            leader[_find(node)] = head
    clusters: Dict[FlatNode, List[FlatNode]] = {}
    for node in part:
        clusters.setdefault(_find(node), []).append(node)
    for members in clusters.values():
        if len(members) < 2:
            continue
        votes: Dict[int, int] = {}
        for node in members:
            votes[part[node]] = votes.get(part[node], 0) + 1
        target = max(sorted(votes), key=lambda c: votes[c])
        for node in members:
            part[node] = target
    return part


def evaluate_all(
    stream_builder: Callable[[], Stream],
    machine: RawMachine = RawMachine(),
    strategies: Optional[List[str]] = None,
) -> Dict[str, StrategyResult]:
    """Run the requested strategies, each on a freshly built app."""
    names = strategies or list(STRATEGIES)
    results: Dict[str, StrategyResult] = {}
    for name in names:
        results[name] = STRATEGIES[name](stream_builder(), machine)
    return results
