"""Partitioning primitives shared by the mapping strategies.

* :func:`lpt_assign` — longest-processing-time bin packing of actors onto
  cores (the load balancer behind data parallelism and software
  pipelining).
* :func:`selective_fusion` — the evaluation's "Selective Fusion": greedily
  contract the cheapest adjacent actor pair until the graph reaches a
  target granularity, keeping communication that matters and removing
  synchronization that doesn't.
* :func:`coarsen_stateless` — contract every edge interior to a stateless,
  non-peeking region (the coarsening step that precedes judicious
  fission).
"""

from __future__ import annotations

import heapq
import itertools
from typing import Dict, List, Optional, Tuple

from repro.machine.model import ModelActor, ModelEdge, ModelGraph


def lpt_assign(model: ModelGraph, n_cores: int) -> Dict[ModelActor, int]:
    """Longest-processing-time-first load balancing across cores."""
    loads = [0.0] * n_cores
    assignment: Dict[ModelActor, int] = {}
    for actor in sorted(model.compute_actors(), key=lambda a: -a.work):
        core = min(range(n_cores), key=lambda c: loads[c])
        assignment[actor] = core
        loads[core] += actor.work
    return assignment


def _contractible(e: ModelEdge) -> bool:
    return e.src is not e.dst and not e.src.io and not e.dst.io and not e.delayed


def _contractible_edges(model: ModelGraph) -> List[ModelEdge]:
    return [e for e in model.edges if _contractible(e)]


def _would_create_cycle(model: ModelGraph, edge: ModelEdge) -> bool:
    """True if contracting ``edge`` leaves a zero-delay cycle.

    That happens exactly when an *indirect* zero-delay path leads from its
    source to its destination (e.g. fusing a splitter with its joiner
    around an unfused branch).  Only that direction is searched: ``edge``
    is a zero-delay edge of a model whose zero-delay edges form no cycle
    (an edge carrying initial items is delayed, every contraction is
    vetted here and a fission adds none), so no zero-delay path leads
    back.  One search over the model's adjacency: O(V + E).
    """
    goal = edge.dst
    stack = [e.dst for e in model.out_edges(edge.src) if e.dst is not goal and not e.delayed]
    seen = set(stack)
    while stack:
        cur = stack.pop()
        if cur is goal:
            return True
        for e in model.out_edges(cur):
            if not e.delayed and e.dst not in seen:
                seen.add(e.dst)
                stack.append(e.dst)
    return False


def selective_fusion(
    model: ModelGraph, target_actors: int, protect_replicas: bool = False
) -> ModelGraph:
    """Greedily fuse the lightest adjacent pair until ``target_actors``.

    Matches the evaluation's Selective Fusion: the algorithm does not model
    per-fusion communication costs (the paper notes this is why MPEG's
    combined result regresses slightly) — it simply merges the cheapest
    neighbours, which usually removes synchronization without lengthening
    the critical path.

    With ``protect_replicas`` fission replicas are never fused together,
    so fusing after data-parallelization cannot undo the parallelism.
    """
    model = model.copy()
    seq = model.seq
    ticket = itertools.count()  # a stale entry may tie with its replacement

    def eligible(edges):
        # The pair order is (src.work + dst.work, place in model.edges): a
        # stable sort by weight.  Only a contraction's own edges change.
        for e in edges:
            if not _contractible(e):
                continue
            if protect_replicas and "#" in e.src.name and "#" in e.dst.name:
                continue
            yield (e.src.work + e.dst.work, seq[e], next(ticket), e)

    heap = list(eligible(model.edges))
    heapq.heapify(heap)
    actors = len(model.compute_actors())
    while actors > target_actors:
        blocked = []  # pairs whose fusion would close a cycle, for now
        while heap:
            entry = heapq.heappop(heap)
            edge = entry[-1]
            if edge not in seq:  # replaced or internalized by a contraction
                continue
            if _would_create_cycle(model, edge):
                blocked.append(entry)
                continue
            fused = model.contract(edge.src, edge.dst)
            actors -= 1
            for entry in blocked:
                heapq.heappush(heap, entry)
            for entry in eligible([*model.out_edges(fused), *model.in_edges(fused)]):
                heapq.heappush(heap, entry)
            break
        else:
            break
    return model


def coarsen_stateless(model: ModelGraph) -> ModelGraph:
    """Fuse every stateless region into a single actor.

    Contraction stops at stateful actors and at *peeking* boundaries:
    fusing across a peeking consumer would internalize its lookahead as
    shared state, making the region unfissable — so those edges are left
    intact and the peeking actor becomes its own (fissable-by-duplication)
    region, exactly the granularity rule the paper describes.
    """
    model = model.copy()
    changed = True
    while changed:
        changed = False
        for edge in _contractible_edges(model):
            if edge.src.stateful or edge.dst.stateful:
                continue
            if edge.dst.peeking or edge.src.peeking:
                continue
            if _would_create_cycle(model, edge):
                continue
            model.contract(edge.src, edge.dst)
            changed = True
            break
    return model


#: Router cycles charged per word scattered/gathered during fission (the
#: static network streams duplicated words cheaply).
FISSION_SYNC_PER_WORD = 0.5


def judicious_fission(
    model: ModelGraph,
    n_cores: int,
    slack: float = 1.25,
) -> ModelGraph:
    """Fiss each stateless actor as wide as profitable.

    For each candidate width ``k`` the rule estimates the resulting
    bottleneck — the wider of a replica (compute plus its share of the
    channel traffic) and the scatter/gather routers (which for *peeking*
    actors carry ``k``-fold duplicated input) — and picks the ``k`` that
    minimizes it.  Fission is applied only when the estimate beats the
    unfissed actor by at least ``slack``; this is the "coarsen, then fiss
    judiciously" granularity rule that lets coarse-grained data
    parallelism beat naive per-filter replication.
    """
    model = model.copy()
    # Fission exists to shorten the critical path down to the balanced
    # per-core load; actors already below that load stay whole (the graph
    # supplies enough task parallelism for them), which keeps the total
    # synchronization the fission routers introduce proportional to the
    # number of true bottlenecks.
    target_load = max(model.total_work() / n_cores, 1.0)
    for actor in list(model.actors):
        if actor.io or actor.router or actor.stateful:
            continue
        needed = int(-(-actor.work // target_load))  # ceil
        k = min(n_cores, max(needed, 1))
        if k < 2:
            continue
        in_words = sum(e.words for e in model.in_edges(actor))
        out_words = sum(e.words for e in model.out_edges(actor))
        per_replica_in = in_words if actor.peeking else in_words / k
        replica = actor.work / k + per_replica_in + out_words / k
        scatter = FISSION_SYNC_PER_WORD * in_words
        gather = FISSION_SYNC_PER_WORD * out_words
        if actor.work >= slack * max(replica, scatter, gather):
            model.fiss(actor, k, sync_cost_per_word=FISSION_SYNC_PER_WORD)
    return model
