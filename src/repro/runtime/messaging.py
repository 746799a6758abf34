"""Teleport messaging: portals, time intervals, and delivery bookkeeping.

A :class:`Portal` broadcasts *control messages* (method invocations) from a
sender filter to registered receiver filters.  Delivery timing follows the
paper's wavefront semantics: a message sent with latency ``λ`` while the
sender has pushed ``s`` items arrives

* **downstream** — immediately before the first receiver firing whose
  outputs could be affected by the sender's ``λ``-th future output batch:
  delivery occurs before the firing that would push ``n(O_B)`` past
  ``y = max[O_A->O_B](s + push_A·(λ-1))``;
* **upstream** — immediately after the receiver firing that produces the
  last item which can affect the sender's ``λ``-th future output batch:
  after the firing that brings ``n(O_B)`` to ``y = min[O_B->O_A](s +
  push_A·λ)``.

``BEST_EFFORT`` messages are delivered at the receiver's next firing
boundary with no wavefront guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import MessagingError
from repro.graph.base import Filter
from repro.scheduling.sdep import delivery_firings


@dataclass(frozen=True)
class TimeInterval:
    """Wavefront-relative delivery window ``[min_time, max_time]``.

    Only ``max_time`` drives delivery in this implementation (as in the
    paper's operational treatment, which schedules against the maximum
    latency); ``min_time`` is validated and retained for analyses.
    """

    max_time: int
    min_time: int = 0

    def __post_init__(self) -> None:
        if self.min_time < 0 or self.max_time < self.min_time:
            raise MessagingError(
                f"invalid TimeInterval [{self.min_time}, {self.max_time}]"
            )


#: Deliver at the receiver's next firing; no wavefront guarantee.
BEST_EFFORT: Optional[TimeInterval] = None


@dataclass
class PendingMessage:
    """A sent-but-undelivered control message."""

    sender: Filter
    receiver: Filter
    method: str
    args: Tuple[Any, ...]
    kwargs: Dict[str, Any]
    #: None for best-effort delivery.
    latency: Optional[int]
    #: Threshold on n(O_receiver) computed at send time (None = best effort).
    threshold: Optional[int] = None
    #: "upstream" (deliver after firing) or "downstream" (before firing).
    direction: str = "downstream"
    #: Open streamscope send→delivery record (:mod:`repro.obs`), if traced.
    obs: Optional[Dict[str, Any]] = None
    #: Send position in the *scalar* schedule: ``(sender's period, its
    #: phase index, firing within the period)``, init sends at period -1.
    #: A receiver's queue is kept in this order, so messages due at one
    #: boundary land as the scalar engine lands them however the batched
    #: engine chunked the senders.  ``()`` where sends already happen in
    #: schedule order (the scalar engine).
    order: Tuple[int, ...] = ()

    def firings_until_due(self, produced: int, push: int) -> int:
        """Safe batch size for the receiver before this message is due.

        Delegates to :func:`repro.scheduling.sdep.delivery_firings` — the
        batched engine fires the receiver at most this many times before
        re-checking delivery, so chunk boundaries land exactly on the
        SDEP-derived delivery points.
        """
        return delivery_firings(self.threshold, produced, push, self.direction)

    def deliver(self) -> None:
        handler = getattr(self.receiver, self.method, None)
        if handler is None or not callable(handler):
            raise MessagingError(
                f"receiver {self.receiver.name} has no message handler "
                f"{self.method!r}"
            )
        handler(*self.args, **self.kwargs)


class _BoundMessage:
    """Callable returned by ``portal.<method>``; sends on invocation."""

    def __init__(self, portal: "Portal", method: str) -> None:
        self._portal = portal
        self._method = method

    def __call__(self, *args: Any, interval: Optional[TimeInterval] = BEST_EFFORT, **kwargs: Any) -> None:
        self._portal.send(self._method, args, kwargs, interval)


class Portal:
    """Broadcast messaging endpoint (the paper's auto-generated Portals).

    Usage inside a sender's ``work``::

        self.freq_hop.setf(new_freq, interval=TimeInterval(max_time=6))

    Receivers are added with :meth:`register`; every registered receiver's
    handler method is invoked at its delivery boundary.  The portal must be
    attached to an :class:`~repro.runtime.interpreter.Interpreter` (done
    automatically for portals reachable from filter attributes).
    """

    def __init__(self, name: str = "portal") -> None:
        self.name = name
        self.receivers: List[Filter] = []
        self._runtime = None  # bound by the interpreter

    def register(self, receiver: Filter) -> None:
        """Add a receiver; all messages are broadcast to every receiver."""
        if not isinstance(receiver, Filter):
            raise MessagingError(f"portal receivers must be Filters, got {receiver!r}")
        self.receivers.append(receiver)

    def bind(self, runtime) -> None:
        """Attach to a running interpreter (called by the runtime)."""
        self._runtime = runtime

    def send(
        self,
        method: str,
        args: Tuple[Any, ...],
        kwargs: Dict[str, Any],
        interval: Optional[TimeInterval],
    ) -> None:
        """Send ``method(*args, **kwargs)`` to every registered receiver."""
        if self._runtime is None:
            raise MessagingError(
                f"portal {self.name!r} is not bound to a running interpreter"
            )
        if not self.receivers:
            raise MessagingError(f"portal {self.name!r} has no registered receivers")
        latency = None if interval is None else interval.max_time
        for receiver in self.receivers:
            self._runtime.post_message(receiver, method, args, kwargs, latency)

    def __getattr__(self, name: str) -> _BoundMessage:
        if name.startswith("_"):
            raise AttributeError(name)
        return _BoundMessage(self, name)
