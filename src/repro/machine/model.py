"""The mapping-level program model: actors, weighted edges, transforms.

The partitioners and the machine simulator operate on a :class:`ModelGraph`
— the flattened stream graph annotated with *per-steady-state* work and
communication volumes (the same abstraction the StreamIt backend partitions
on).  The model supports the two structural transformations the evaluation
studies: **contraction** (fusion — merging adjacent actors so their
communication becomes core-local) and **fission** (data-parallel
replication, with duplicated input traffic for peeking actors).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.errors import MachineError
from repro.estimate.work import node_work
from repro.graph.flatgraph import FILTER, FlatGraph, FlatNode
from repro.linear.extraction import is_stateful
from repro.scheduling.rates import repetitions

_actor_ids = itertools.count()


@dataclass(eq=False)
class ModelActor:
    """One schedulable unit: an actor's whole steady-state work."""

    name: str
    work: float                     # cycles per steady-state period
    stateful: bool = False
    peeking: bool = False
    #: True for pure data-routing nodes (splitters/joiners).
    router: bool = False
    #: True for endpoints that model off-chip I/O (not mapped to cores).
    io: bool = False
    #: The FlatNode this actor came from (None for transform-made actors).
    origin: object = None
    #: Every FlatNode this actor stands for, carried through contraction and
    #: fission so a mapped model can be projected back onto the flat graph
    #: (the parallel runtime's partition).  Transform-made helper actors
    #: (scatter/gather routers, replicas past #0) have no members.
    members: Tuple[object, ...] = ()
    uid: int = field(default_factory=lambda: next(_actor_ids))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Actor {self.name} w={self.work:.0f}>"


@dataclass(eq=False)
class ModelEdge:
    """Data flowing between actors during one steady-state period."""

    src: ModelActor
    dst: ModelActor
    words: float                    # items per steady-state period
    #: True when initial delay items break the dependence for scheduling.
    delayed: bool = False


class ModelGraph:
    """Actors + weighted edges; the unit the partitioners transform."""

    def __init__(self, actors: List[ModelActor], edges: List[ModelEdge]) -> None:
        self.actors = actors
        self._set_edges(edges)

    @property
    def actors(self) -> List[ModelActor]:
        """The actors, in order (a fused actor takes the last place)."""
        if self._actor_list is None:
            self._actor_list = list(self._actors)
        return self._actor_list

    @actors.setter
    def actors(self, actors: List[ModelActor]) -> None:
        self._actors: Dict[ModelActor, None] = dict.fromkeys(actors)
        self._actor_list: Optional[List[ModelActor]] = None

    def _set_edges(self, edges: List[ModelEdge]) -> None:
        """Make ``edges`` the graph's, in that order.

        The graph keeps each edge's place in that order (``seq``) and the
        in/out adjacency every query walks, each actor's edges in order: a
        partitioner asks for one actor's neighbours once per candidate
        fusion, and contracts one pair at a time, so a scan or a rebuild of
        every edge there makes fusion cubic.  ``edges`` is rebuilt from
        ``seq`` only when read.
        """
        self.seq: Dict[ModelEdge, int] = {e: i for i, e in enumerate(edges)}
        self._edges: Optional[List[ModelEdge]] = list(edges)
        self._out: Dict[ModelActor, List[ModelEdge]] = {}
        self._in: Dict[ModelActor, List[ModelEdge]] = {}
        for e in edges:
            self._out.setdefault(e.src, []).append(e)
            self._in.setdefault(e.dst, []).append(e)

    @property
    def edges(self) -> List[ModelEdge]:
        if self._edges is None:
            self._edges = sorted(self.seq, key=self.seq.__getitem__)
        return self._edges

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_stream(cls, stream) -> "ModelGraph":
        from repro.graph.flatgraph import flatten

        graph = flatten(stream)
        return cls.from_flatgraph(graph, repetitions(graph))

    @classmethod
    def from_flatgraph(cls, graph: FlatGraph, reps: Dict[FlatNode, int]) -> "ModelGraph":
        actors: Dict[FlatNode, ModelActor] = {}
        for node in graph.nodes:
            if node.kind == FILTER:
                filt = node.filter
                io = filt.rate.pop == 0 or filt.rate.push == 0
                actors[node] = ModelActor(
                    name=node.name,
                    work=node_work(node) * reps[node],
                    stateful=(not io) and is_stateful(filt),
                    peeking=filt.rate.extra_peek > 0,
                    io=io,
                    origin=node,
                    members=(node,),
                )
            else:
                actors[node] = ModelActor(
                    name=node.name,
                    work=node_work(node) * reps[node],
                    router=True,
                    origin=node,
                    members=(node,),
                )
        edges = [
            ModelEdge(
                src=actors[e.src],
                dst=actors[e.dst],
                words=float(reps[e.src] * e.push_rate),
                delayed=bool(e.initial),
            )
            for e in graph.edges
        ]
        return cls(list(actors.values()), edges)

    # -- queries ---------------------------------------------------------------

    def out_edges(self, actor: ModelActor) -> Sequence[ModelEdge]:
        """``actor``'s outgoing edges in order (the graph's own list: read it,
        do not change it)."""
        return self._out.get(actor, ())

    def in_edges(self, actor: ModelActor) -> Sequence[ModelEdge]:
        """``actor``'s incoming edges in order (the graph's own list)."""
        return self._in.get(actor, ())

    def total_work(self) -> float:
        return sum(a.work for a in self.actors)

    def compute_actors(self) -> List[ModelActor]:
        """Actors that occupy cores (everything but off-chip I/O)."""
        return [a for a in self.actors if not a.io]

    def topological(self) -> List[ModelActor]:
        indeg: Dict[ModelActor, int] = {a: 0 for a in self.actors}
        for e in self.edges:
            if not e.delayed:
                indeg[e.dst] += 1
        ready = [a for a in self.actors if indeg[a] == 0]
        order: List[ModelActor] = []
        while ready:
            actor = ready.pop()
            order.append(actor)
            for e in self._out.get(actor, ()):
                if not e.delayed:
                    indeg[e.dst] -= 1
                    if indeg[e.dst] == 0:
                        ready.append(e.dst)
        if len(order) != len(self.actors):
            raise MachineError("model graph has a zero-delay cycle")
        return order

    # -- transformations ---------------------------------------------------------

    def contract(self, a: ModelActor, b: ModelActor) -> ModelActor:
        """Fuse two actors; their mutual traffic becomes core-local (free).

        The fused actor is stateful if either part was, or if the boundary
        between them carried lookahead (fusing a peeking consumer
        internalizes its delay line — the paper's "fused peeking filters
        cannot be fissed").
        """
        boundary_peeking = any(
            e.dst is b for e in self._out.get(a, ())
        ) or any(e.dst is a for e in self._out.get(b, ()))
        boundary_peeking = boundary_peeking and (b.peeking or a.peeking)
        fused = ModelActor(
            name=f"{a.name}+{b.name}",
            work=a.work + b.work,
            stateful=a.stateful or b.stateful or boundary_peeking,
            peeking=a.peeking or b.peeking,
            router=a.router and b.router,
            io=False,
            members=a.members + b.members,
        )
        # Only the pair's own edges change: each keeps its place in the
        # order, re-pointed at the fused actor, or goes if it joined the two.
        incident = dict.fromkeys(
            [*self._out.pop(a, ()), *self._out.pop(b, ()), *self._in.pop(a, ()), *self._in.pop(b, ())]
        )
        seq = self.seq
        fused_out: List[ModelEdge] = []
        fused_in: List[ModelEdge] = []
        for e in incident:
            src = fused if e.src is a or e.src is b else e.src
            dst = fused if e.dst is a or e.dst is b else e.dst
            place = seq.pop(e)
            if src is fused and dst is fused:
                continue  # internalized
            new = ModelEdge(src, dst, e.words, e.delayed)
            seq[new] = place
            if src is fused:
                fused_out.append(new)
                neighbours = self._in[dst]
            else:
                fused_in.append(new)
                neighbours = self._out[src]
            neighbours[neighbours.index(e)] = new
        fused_out.sort(key=seq.__getitem__)
        fused_in.sort(key=seq.__getitem__)
        self._out[fused], self._in[fused] = fused_out, fused_in
        self._edges = None
        del self._actors[a], self._actors[b]
        self._actors[fused] = None
        self._actor_list = None
        return fused

    def fiss(self, actor: ModelActor, k: int, sync_cost_per_word: float = 1.0) -> List[ModelActor]:
        """Replicate a stateless actor ``k`` ways.

        Inserts scatter/gather router actors whose work is proportional to
        the items they move.  A *peeking* actor's input must be duplicated
        to every replica (k-fold input traffic) — the coarse-grained
        algorithm weighs exactly this cost.
        """
        if actor.stateful:
            raise MachineError(f"cannot fiss stateful actor {actor.name}")
        if k < 2:
            return [actor]
        in_edges = self.in_edges(actor)
        out_edges = self.out_edges(actor)
        in_words = sum(e.words for e in in_edges)
        out_words = sum(e.words for e in out_edges)
        # Replica #0 inherits the membership: a runtime that cannot split
        # firings of one filter across processes collapses the fission onto
        # replica #0's core (the simulator still models all k).
        replicas = [
            ModelActor(
                name=f"{actor.name}#{i}",
                work=actor.work / k,
                stateful=False,
                peeking=actor.peeking,
                members=actor.members if i == 0 else (),
            )
            for i in range(k)
        ]
        per_replica_in = in_words if actor.peeking else in_words / k
        # The scatter router streams each input word once; duplication to
        # peeking replicas happens on the network (Raw's static switch
        # multicasts), so duplication shows up as link traffic, not as
        # router compute.
        scatter = ModelActor(
            name=f"{actor.name}.scatter",
            work=sync_cost_per_word * in_words,
            router=True,
        )
        gather = ModelActor(
            name=f"{actor.name}.gather",
            work=sync_cost_per_word * out_words,
            router=True,
        )
        new_edges: List[ModelEdge] = []
        for e in self.edges:
            if e.dst is actor:
                new_edges.append(ModelEdge(e.src, scatter, e.words, e.delayed))
            elif e.src is actor:
                new_edges.append(ModelEdge(gather, e.dst, e.words, e.delayed))
            else:
                new_edges.append(e)
        for rep in replicas:
            new_edges.append(ModelEdge(scatter, rep, per_replica_in))
            new_edges.append(ModelEdge(rep, gather, out_words / k))
        self.actors = [x for x in self.actors if x is not actor] + [scatter, gather] + replicas
        self._set_edges(new_edges)
        return replicas

    def copy(self) -> "ModelGraph":
        """A structural copy sharing no mutable containers with the original."""
        mapping = {
            a: ModelActor(
                a.name, a.work, a.stateful, a.peeking, a.router, a.io, a.origin,
                a.members,
            )
            for a in self.actors
        }
        return ModelGraph(
            list(mapping.values()),
            [ModelEdge(mapping[e.src], mapping[e.dst], e.words, e.delayed) for e in self.edges],
        )
