"""Messaging/latency constraints and the operational semantics.

The paper expresses message-delivery guarantees as constraints on the tape
counts ``n(t)``.  For a sender ``A`` that may message receiver ``B`` with
latency ``λ``:

* ``B`` upstream of ``A``   (Eq. mc1): ``n(O_B) <= min[O_B->O_A](n(O_A) + push_A·λ)``
* ``B`` downstream of ``A`` (Eq. mc2): ``n(O_B) <= max[O_A->O_B](n(O_A) + push_A·(λ-1))``

``MAX_LATENCY(a, b, n)`` is sugar for a message from ``b`` to the upstream
``a`` with latency ``n``.

:class:`Configuration` implements the paper's operational semantics: a
vector of ``⟨p(t), n(t)⟩`` pairs with the firing transition rule, checking
``P(C)`` (all constraints satisfied) and an optional ``MAXITEMS`` bound on
live items.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import MessagingError, SchedulingError
from repro.graph.base import Filter
from repro.graph.flatgraph import FlatEdge, FlatGraph, FlatNode
from repro.scheduling.sdep import WavefrontOracle


@dataclass(frozen=True)
class MessageConstraint:
    """Filter ``sender`` may message ``receiver`` with the given latency."""

    sender: Filter
    receiver: Filter
    latency: int

    def describe(self) -> str:
        return (
            f"message {self.sender.name} -> {self.receiver.name} "
            f"(latency {self.latency})"
        )


def max_latency(upstream: Filter, downstream: Filter, n: int) -> MessageConstraint:
    """The paper's ``MAX_LATENCY(a, b, n)`` directive.

    Constrains the schedule so that ``upstream`` never runs more than ``n``
    of ``downstream``'s work-function invocations ahead of the information
    wavefront ``downstream`` sees — expressed as a message from
    ``downstream`` to the upstream filter with latency ``n``.
    """
    return MessageConstraint(sender=downstream, receiver=upstream, latency=n)


class ConstraintSystem:
    """Evaluates message constraints against tape-count configurations."""

    def __init__(
        self,
        graph: FlatGraph,
        constraints: Sequence[MessageConstraint],
        oracle: Optional[WavefrontOracle] = None,
    ) -> None:
        self.graph = graph
        self.constraints = list(constraints)
        #: Pass a live run's oracle to share its ``max``/``min`` caches.
        self.oracle = oracle if oracle is not None else WavefrontOracle(graph)
        self._bindings: List[Tuple[MessageConstraint, FlatEdge, FlatEdge, str]] = []
        for constraint in self.constraints:
            node_a = graph.node_for(constraint.sender)
            node_b = graph.node_for(constraint.receiver)
            o_a = self._output_tape(node_a)
            o_b = self._output_tape(node_b)
            if self.oracle.is_upstream(o_b, o_a):
                direction = "upstream"
            elif self.oracle.is_upstream(o_a, o_b):
                direction = "downstream"
            else:
                raise MessagingError(
                    f"{constraint.describe()}: receiver is neither upstream "
                    "nor downstream of sender (parallel messaging is beyond "
                    "the paper's scope)"
                )
            self._bindings.append((constraint, o_a, o_b, direction))

    @staticmethod
    def _output_tape(node: FlatNode) -> FlatEdge:
        if not node.out_edges:
            raise MessagingError(
                f"{node.name} has no output tape; messaging endpoints must "
                "produce output for wavefront timing to be defined"
            )
        return node.out_edges[0]

    def receiver_bound(self, counts: Dict[FlatEdge, int], binding_index: int) -> int:
        """Greatest admissible ``n(O_B)`` under one constraint."""
        constraint, o_a, o_b, direction = self._bindings[binding_index]
        push_a = o_a.push_rate
        n_oa = counts.get(o_a, len(o_a.initial))
        if direction == "upstream":
            return self.oracle.min_items(o_b, o_a, n_oa + push_a * constraint.latency)
        return self.oracle.max_items(o_a, o_b, n_oa + push_a * (constraint.latency - 1))

    def direction(self, binding_index: int) -> str:
        """``"upstream"`` or ``"downstream"``: where the receiver sits."""
        return self._bindings[binding_index][3]

    def slack_periods(
        self, counts: Dict[FlatEdge, int], binding_index: int, reps: Dict[FlatNode, int]
    ) -> Optional[int]:
        """Whole steady periods the receiver may run beyond ``counts``
        before one constraint binds (``reps`` = firings per period).

        For an upstream receiver this is Eq. mc1 read as a schedule input:
        ``(receiver_bound - n(O_B)) // (reps_B·push_B)``.  A downstream
        receiver fires after its sender in any topological order and Eq.
        mc2 depends on the sender's count alone, so running *both* ahead
        together is unconstrained (``None``) — as long as the threshold
        cannot lie behind the receiver, which ``max[O_A->O_B]`` guarantees
        from latency 1 up; a latency-0 message sent before the push can
        already be overdue, and then *when* the receiver hears of it
        matters: no slack.
        """
        constraint, _o_a, o_b, direction = self._bindings[binding_index]
        if direction == "downstream":
            return None if constraint.latency >= 1 else 0
        ahead = self.receiver_bound(counts, binding_index) - counts.get(
            o_b, len(o_b.initial)
        )
        return ahead // (reps[o_b.src] * o_b.push_rate)

    def satisfied(self, counts: Dict[FlatEdge, int]) -> bool:
        """The paper's ``P(C)``: all constraints hold for these tape counts."""
        for i, (constraint, o_a, o_b, _) in enumerate(self._bindings):
            n_ob = counts.get(o_b, len(o_b.initial))
            if n_ob > self.receiver_bound(counts, i):
                return False
        return True


class Configuration:
    """The operational-semantics state: ``⟨p(t), n(t)⟩`` per tape.

    Implements the transition rule: filter ``A`` may fire iff (1) its input
    tape holds ``peek_A`` unpopped items, (2) the post-firing configuration
    satisfies ``P(C)``, and (3) the post-firing live-item total does not
    exceed ``max_items`` (the paper's MAXITEMS extension), if given.
    """

    def __init__(
        self,
        graph: FlatGraph,
        system: Optional[ConstraintSystem] = None,
        max_items: Optional[int] = None,
    ) -> None:
        self.graph = graph
        self.system = system
        self.max_items = max_items
        # Start configuration C0: nothing pushed or popped, except that
        # feedback delay items count as already pushed.
        self.pushed: Dict[FlatEdge, int] = {e: len(e.initial) for e in graph.edges}
        self.popped: Dict[FlatEdge, int] = {e: 0 for e in graph.edges}
        if system is not None and not system.satisfied(self.pushed):
            raise MessagingError(
                "the initial configuration violates the message delivery "
                "constraints; the requested latencies are unsatisfiable"
            )

    def live_items(self) -> int:
        """Total items pushed but not yet popped, across all tapes."""
        return sum(self.pushed[e] - self.popped[e] for e in self.graph.edges)

    def occupancy(self, edge: FlatEdge) -> int:
        return self.pushed[edge] - self.popped[edge]

    def can_fire(self, node: FlatNode) -> bool:
        """Check all three firing conditions without mutating state."""
        for edge in node.in_edges:
            if self.occupancy(edge) < edge.peek_rate:
                return False
        if self.max_items is not None:
            delta = sum(e.push_rate for e in node.out_edges) - sum(
                e.pop_rate for e in node.in_edges
            )
            if self.live_items() + delta > self.max_items:
                return False
        if self.system is not None:
            trial = dict(self.pushed)
            for edge in node.out_edges:
                trial[edge] += edge.push_rate
            if not self.system.satisfied(trial):
                return False
        return True

    def fire(self, node: FlatNode) -> None:
        """Apply the transition rule for one firing of ``node``."""
        if not self.can_fire(node):
            raise SchedulingError(f"transition rule violated: {node.name} cannot fire")
        for edge in node.in_edges:
            self.popped[edge] += edge.pop_rate
        for edge in node.out_edges:
            self.pushed[edge] += edge.push_rate

    def fireable(self) -> List[FlatNode]:
        """All nodes that may legally fire from this configuration."""
        return [n for n in self.graph.nodes if self.can_fire(n)]
