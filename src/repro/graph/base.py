"""Core stream-graph abstractions: :class:`Stream` and :class:`Filter`.

A StreamIt program is a hierarchical composition of single-input,
single-output *streams*.  The leaf stream is the :class:`Filter`, whose
``work`` function reads from its input channel (``pop``/``peek``) and writes
to its output channel (``push``) at *static rates* declared at construction
time.  Composite streams (:mod:`repro.graph.composites`) arrange child
streams into pipelines, split-joins and feedback loops.

Rate conventions (matching the paper):

* ``peek`` is the number of items the filter may read per firing; it is
  always at least ``pop``.  ``peek(0)`` refers to the *oldest* unconsumed
  item on the input channel — the next item ``pop()`` would return.
* A filter is *fireable* when its input channel holds at least ``peek``
  items (``peek - pop`` items remain on the channel after the firing).
* ``pop`` items are consumed and ``push`` items produced per firing.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Optional

from repro.errors import RateError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.runtime.channel import Channel

_id_counter = itertools.count()


@dataclass(frozen=True)
class Rate:
    """Static I/O rates of a filter firing.

    Attributes:
        peek: number of input items visible to one firing (``>= pop``).
        pop: number of input items consumed by one firing.
        push: number of output items produced by one firing.
    """

    peek: int
    pop: int
    push: int

    def __post_init__(self) -> None:
        for field in ("peek", "pop", "push"):
            value = getattr(self, field)
            if not isinstance(value, int) or value < 0:
                raise RateError(f"{field} rate must be a non-negative int, got {value!r}")
        if self.peek < self.pop:
            raise RateError(f"peek ({self.peek}) must be >= pop ({self.pop})")

    @property
    def extra_peek(self) -> int:
        """Items inspected but not consumed (``peek - pop``)."""
        return self.peek - self.pop


class Stream:
    """Base class for every node in the stream hierarchy.

    Each stream has at most one input and one output.  Concrete subclasses
    are :class:`Filter` and the composites in :mod:`repro.graph.composites`.
    """

    def __init__(self, name: Optional[str] = None) -> None:
        self._uid = next(_id_counter)
        self.name = name or f"{type(self).__name__}_{self._uid}"
        self.parent: Optional[Stream] = None

    # -- structure ---------------------------------------------------------

    def children(self) -> tuple["Stream", ...]:
        """Immediate child streams, in data-flow order where applicable."""
        return ()

    def streams(self) -> Iterator["Stream"]:
        """Pre-order traversal of this stream and all descendants."""
        yield self
        for child in self.children():
            yield from child.streams()

    def filters(self) -> Iterator["Filter"]:
        """All leaf filters beneath (and including) this stream."""
        for stream in self.streams():
            if isinstance(stream, Filter):
                yield stream

    def depth(self) -> int:
        """Height of the hierarchy rooted at this stream (filter == 1)."""
        kids = self.children()
        if not kids:
            return 1
        return 1 + max(child.depth() for child in kids)

    # -- identity ----------------------------------------------------------

    @property
    def uid(self) -> int:
        """A process-unique integer identifying this stream instance."""
        return self._uid

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}>"


class Filter(Stream):
    """A leaf stream: one ``work`` function with static I/O rates.

    Subclasses declare their rates by calling ``super().__init__`` and
    implement :meth:`work` using :meth:`pop`, :meth:`peek` and :meth:`push`.
    State may be initialised in ``__init__`` (the analogue of StreamIt's
    ``init``); a filter that *mutates* instance attributes inside ``work``
    is *stateful* and is treated accordingly by the optimizers.

    Example::

        class Scale(Filter):
            def __init__(self, k):
                super().__init__(pop=1, push=1)
                self.k = k

            def work(self):
                self.push(self.pop() * self.k)
    """

    def __init__(
        self,
        *,
        pop: int,
        push: int,
        peek: Optional[int] = None,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(name=name)
        self.rate = Rate(peek=max(peek if peek is not None else pop, pop), pop=pop, push=push)
        # Channels are bound by the runtime before execution.
        self.input: Optional["Channel"] = None
        self.output: Optional["Channel"] = None

    # -- rates -------------------------------------------------------------

    @property
    def peek_rate(self) -> int:
        return self.rate.peek

    @property
    def pop_rate(self) -> int:
        return self.rate.pop

    @property
    def push_rate(self) -> int:
        return self.rate.push

    @property
    def is_source(self) -> bool:
        """True if the filter consumes no input (``pop == peek == 0``)."""
        return self.rate.peek == 0

    @property
    def is_sink(self) -> bool:
        """True if the filter produces no output (``push == 0``)."""
        return self.rate.push == 0

    # -- work function -----------------------------------------------------

    #: True on subclasses whose :meth:`work_batch` executes many firings at
    #: once.  The batched engine falls back to per-firing ``work()`` (still
    #: over array channels) when this is False — the safe default for
    #: stateful or unanalyzable filters.
    supports_work_batch = False

    #: Vectorization hint for the batched engine's *generic* lifter
    #: (``runtime/vectorize.py``).  ``None`` (default) lets the static
    #: vectorization proof decide; ``False`` opts the filter out of lifting
    #: entirely (it still runs via the hoisted-I/O per-firing loop).
    #: ``True`` is only a claim that the work function writes no state: the
    #: analyzer checks it (``SL102``, an error) and lifting still needs the
    #: proof.
    stateless: Optional[bool] = None

    def work(self) -> None:
        """One execution step.  Subclasses must override."""
        raise NotImplementedError(f"{type(self).__name__} must implement work()")

    def work_batch(self, n: int) -> None:
        """Execute ``n`` consecutive firings as one block operation.

        Implementations must be observationally identical to ``n`` calls of
        :meth:`work` — same items consumed and produced, and the same
        floating-point operation order *within each firing* — and should use
        the channels' block API (``peek_block``/``pop_block``/``push_block``/
        ``drop``) so no per-item Python work remains.  Only called by the
        batched engine when :attr:`supports_work_batch` is True.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement work_batch()"
        )

    def init(self) -> None:
        """Optional per-run initialisation hook called before execution."""

    # -- channel operations (used inside work) ------------------------------

    def pop(self) -> float:
        """Consume and return the oldest item on the input channel."""
        assert self.input is not None, f"{self.name}: input channel not bound"
        return self.input.pop()

    def peek(self, index: int) -> float:
        """Return the item ``index`` slots from the front without consuming.

        ``peek(0)`` is the item ``pop()`` would return next.
        """
        assert self.input is not None, f"{self.name}: input channel not bound"
        return self.input.peek(index)

    def push(self, item: float) -> None:
        """Append ``item`` to the output channel."""
        assert self.output is not None, f"{self.name}: output channel not bound"
        self.output.push(item)
