"""Deterministic throughput simulation of mapped stream programs.

Two execution disciplines, matching the evaluation's two families:

* :func:`dag_makespan` — the steady state runs as a dependence-respecting
  DAG per period (task- and data-parallel modes): list scheduling with
  per-core serialization, per-link word-serialized contention on XY
  routes, and per-channel synchronization costs.  Throughput is one period
  per makespan.

* :func:`pipelined_ii` — coarse-grained software pipelining: intra-period
  dependences are absorbed by the prologue, so the initiation interval is
  bound only by the busiest *resource* — a core's compute plus channel
  I/O, or the most contended network link.

Both return cycles per steady-state period; speedups are ratios of these.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import MachineError
from repro.machine.model import ModelActor, ModelEdge, ModelGraph
from repro.machine.raw import RawMachine


@dataclass(frozen=True)
class SimResult:
    """Cycles per steady-state period plus derived metrics."""

    cycles_per_period: float
    compute_cycles: float
    comm_words: float
    machine: RawMachine

    @property
    def utilization(self) -> float:
        """Issued compute cycles over total core-cycles in a period."""
        return self.compute_cycles / (self.machine.n_cores * self.cycles_per_period)

    def mflops(self, flops_per_period: Optional[float] = None, flop_fraction: float = 0.5) -> float:
        """Achieved MFLOPS; by default half the issued ops are flops."""
        flops = (
            flops_per_period
            if flops_per_period is not None
            else self.compute_cycles * flop_fraction
        )
        seconds = self.cycles_per_period / self.machine.clock_hz
        return flops / seconds / 1e6

    def speedup_over(self, baseline: "SimResult") -> float:
        """Throughput gain relative to another mapping of the same program."""
        return baseline.cycles_per_period / self.cycles_per_period


def _check_assignment(model: ModelGraph, assignment: Dict[ModelActor, int], machine: RawMachine) -> None:
    for actor in model.compute_actors():
        core = assignment.get(actor)
        if core is None:
            raise MachineError(f"actor {actor.name} has no core assignment")
        if not 0 <= core < machine.n_cores:
            raise MachineError(f"actor {actor.name} assigned to invalid core {core}")


def dag_makespan(
    model: ModelGraph,
    assignment: Dict[ModelActor, int],
    machine: RawMachine = RawMachine(),
) -> SimResult:
    """List-scheduled makespan of one steady-state period."""
    _check_assignment(model, assignment, machine)
    order = model.topological()
    core_free = [0.0] * machine.n_cores
    link_free: Dict[Tuple[int, int], float] = {}
    finish: Dict[ModelActor, float] = {}
    arrival: Dict[ModelActor, float] = {a: 0.0 for a in model.actors}
    in_edges: Dict[ModelActor, List[ModelEdge]] = {a: [] for a in model.actors}
    out_edges: Dict[ModelActor, List[ModelEdge]] = {a: [] for a in model.actors}
    for e in model.edges:
        in_edges[e.dst].append(e)
        out_edges[e.src].append(e)

    compute_cycles = sum(a.work for a in model.compute_actors() if not a.io)
    comm_words = 0.0

    for actor in order:
        if actor.io:
            # Off-chip I/O endpoints stream continuously; model them as
            # always-ready with zero occupancy.
            finish[actor] = arrival[actor]
            continue
        core = assignment[actor]
        start = max(core_free[core], arrival[actor])
        end = start + actor.work
        core_free[core] = end
        finish[actor] = end
        # Deliver outputs: serialize on each route link, charge I/O cycles.
        for e in out_edges[actor]:
            if e.dst.io or e.src.io:
                continue
            dst_core = assignment.get(e.dst)
            if dst_core is None or dst_core == core:
                arrival[e.dst] = max(arrival[e.dst], end)
                continue
            comm_words += e.words
            send_cycles = e.words * machine.io_cycles_per_word
            core_free[core] += send_cycles
            depart = core_free[core]
            t = depart + machine.sync_cycles_per_channel
            for link in machine.route(core, dst_core):
                ready = max(link_free.get(link, 0.0), t)
                t = ready + e.words * machine.link_cycles_per_word + machine.hop_latency
                link_free[link] = t
            recv = t + e.words * machine.io_cycles_per_word
            if not e.delayed:
                arrival[e.dst] = max(arrival[e.dst], recv)

    makespan = max(core_free) if any(not a.io for a in model.actors) else 0.0
    return SimResult(
        cycles_per_period=max(makespan, 1.0),
        compute_cycles=compute_cycles,
        comm_words=comm_words,
        machine=machine,
    )


def pipelined_ii(
    model: ModelGraph,
    assignment: Dict[ModelActor, int],
    machine: RawMachine = RawMachine(),
) -> SimResult:
    """Resource-bound initiation interval under software pipelining."""
    _check_assignment(model, assignment, machine)
    core_load = [0.0] * machine.n_cores
    link_load: Dict[Tuple[int, int], float] = {}
    compute_cycles = 0.0
    comm_words = 0.0

    for actor in model.compute_actors():
        core_load[assignment[actor]] += actor.work
        compute_cycles += actor.work

    for e in model.edges:
        if e.src.io or e.dst.io:
            continue
        src_core = assignment[e.src]
        dst_core = assignment[e.dst]
        if src_core == dst_core:
            continue
        comm_words += e.words
        core_load[src_core] += e.words * machine.io_cycles_per_word
        core_load[dst_core] += e.words * machine.io_cycles_per_word
        core_load[src_core] += machine.sync_cycles_per_channel
        core_load[dst_core] += machine.sync_cycles_per_channel
        for link in machine.route(src_core, dst_core):
            link_load[link] = link_load.get(link, 0.0) + e.words * machine.link_cycles_per_word

    ii = max(
        max(core_load) if core_load else 0.0,
        max(link_load.values()) if link_load else 0.0,
        _recurrence_bound(model, assignment, machine),
        1.0,
    )
    return SimResult(
        cycles_per_period=ii,
        compute_cycles=compute_cycles,
        comm_words=comm_words,
        machine=machine,
    )


def _recurrence_bound(
    model: ModelGraph,
    assignment: Dict[ModelActor, int],
    machine: RawMachine,
) -> float:
    """The loop-carried (recurrence) lower bound on the initiation interval.

    Software pipelining cannot overlap iterations across a feedback cycle:
    with one period of delay on the loop, each iteration of the cycle must
    complete before the next can use its result, so II >= the work (plus
    cross-core communication latency) along the longest path closing any
    delayed edge.  This is what makes a control feedback loop expensive on
    a parallel machine even when its data volume is tiny.
    """
    delayed = [e for e in model.edges if e.delayed and not e.src.io and not e.dst.io]
    if not delayed:
        return 0.0

    def edge_latency(e: ModelEdge) -> float:
        src_core = assignment.get(e.src)
        dst_core = assignment.get(e.dst)
        if src_core is None or dst_core is None or src_core == dst_core:
            return 0.0
        return (
            2 * e.words * machine.io_cycles_per_word
            + machine.hops(src_core, dst_core) * machine.hop_latency
            + machine.sync_cycles_per_channel
        )

    # Longest (work + latency) path over the acyclic (non-delayed) edges.
    order = model.topological()
    bound = 0.0
    for loop_edge in delayed:
        start, goal = loop_edge.dst, loop_edge.src
        dist: Dict[ModelActor, float] = {start: start.work if not start.io else 0.0}
        for actor in order:
            if actor not in dist:
                continue
            for e in model.edges:
                if e.delayed or e.src is not actor:
                    continue
                cand = dist[actor] + edge_latency(e) + (e.dst.work if not e.dst.io else 0.0)
                if cand > dist.get(e.dst, -1.0):
                    dist[e.dst] = cand
        if goal in dist:
            bound = max(bound, dist[goal] + edge_latency(loop_edge))
    return bound


def single_core_baseline(model: ModelGraph, machine: RawMachine = RawMachine()) -> SimResult:
    """Everything on core 0: the sequential StreamIt reference point."""
    assignment = {a: 0 for a in model.compute_actors()}
    compute = sum(a.work for a in model.compute_actors())
    return SimResult(
        cycles_per_period=max(compute, 1.0),
        compute_cycles=compute,
        comm_words=0.0,
        machine=machine,
    )
