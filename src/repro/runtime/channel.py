"""FIFO channels ("tapes") connecting filters at runtime.

A channel records the *history counters* used throughout the paper's
semantics: ``pushed_count`` is ``n(t)`` (total items ever pushed onto tape
``t``) and ``popped_count`` is ``p(t)``.  Occupancy is ``n(t) - p(t)``.

The buffer is a Python list with a moving head index; ``pop`` is amortized
O(1) and ``peek(i)`` is O(1).  :class:`ListTape` is the same FIFO without
the history counters, for per-firing loops over a hoisted tape.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from repro.errors import StreamItError

_COMPACT_THRESHOLD = 4096


class ChannelUnderflow(StreamItError):
    """An attempt to pop or peek beyond the items available on a channel."""


class Channel:
    """A typed FIFO queue between two filters (the paper's ``Channel``)."""

    __slots__ = ("name", "_buf", "_head", "pushed_count", "popped_count")

    def __init__(self, name: str = "", initial: Iterable[float] = ()) -> None:
        self.name = name
        self._buf: List[float] = list(initial)
        self._head = 0
        #: n(t): total items ever pushed (initial delay items count).
        self.pushed_count = len(self._buf)
        #: p(t): total items ever popped.
        self.popped_count = 0

    def __len__(self) -> int:
        return len(self._buf) - self._head

    @property
    def occupancy(self) -> int:
        """Items currently live on the channel (``n(t) - p(t)``)."""
        return len(self._buf) - self._head

    def push(self, item: float) -> None:
        """Enqueue ``item`` at the back of the channel."""
        self._buf.append(item)
        self.pushed_count += 1

    def push_many(self, items: Iterable[float]) -> None:
        """Enqueue several items preserving order."""
        before = len(self._buf)
        self._buf.extend(items)
        self.pushed_count += len(self._buf) - before

    def pop(self) -> float:
        """Dequeue and return the oldest item."""
        if self._head >= len(self._buf):
            raise ChannelUnderflow(f"pop from empty channel {self.name!r}")
        item = self._buf[self._head]
        self._head += 1
        self.popped_count += 1
        if self._head >= _COMPACT_THRESHOLD and self._head * 2 >= len(self._buf):
            del self._buf[: self._head]
            self._head = 0
        return item

    def pop_many(self, count: int) -> List[float]:
        """Dequeue ``count`` items, oldest first."""
        if self.occupancy < count:
            raise ChannelUnderflow(
                f"pop {count} from channel {self.name!r} holding {self.occupancy}"
            )
        head = self._head
        items = self._buf[head : head + count]
        self._head = head + count
        self.popped_count += count
        if self._head >= _COMPACT_THRESHOLD and self._head * 2 >= len(self._buf):
            del self._buf[: self._head]
            self._head = 0
        return items

    def peek(self, index: int) -> float:
        """Item ``index`` slots from the front; ``peek(0)`` is next to pop."""
        pos = self._head + index
        if index < 0 or pos >= len(self._buf):
            raise ChannelUnderflow(
                f"peek({index}) on channel {self.name!r} holding {self.occupancy}"
            )
        return self._buf[pos]

    def snapshot(self) -> List[float]:
        """The live items, oldest first (for inspection/testing)."""
        return self._buf[self._head :]

    # -- block API -------------------------------------------------------------
    # Mirrors ArrayChannel so work_batch kernels run on either channel kind
    # (the batched engine always uses ArrayChannel; these list-based forms
    # exist for direct testing of work_batch implementations).

    def push_block(self, block) -> None:
        """Enqueue a whole array of items (flattened in C order)."""
        import numpy as np

        values = np.ascontiguousarray(block, dtype=np.float64).reshape(-1)
        self._buf.extend(values.tolist())
        self.pushed_count += values.size

    def peek_block(self, count: int):
        """The first ``count`` live items as a float64 array (a copy)."""
        import numpy as np

        if count < 0 or self.occupancy < count:
            raise ChannelUnderflow(
                f"peek_block({count}) on channel {self.name!r} holding {self.occupancy}"
            )
        return np.asarray(self._buf[self._head : self._head + count], dtype=np.float64)

    def pop_block(self, count: int):
        """Dequeue ``count`` items as a float64 array."""
        block = self.peek_block(count)
        self.drop(count)
        return block

    def drop(self, count: int) -> None:
        """Discard the first ``count`` live items (a pop without the values)."""
        if count < 0 or self.occupancy < count:
            raise ChannelUnderflow(
                f"drop({count}) on channel {self.name!r} holding {self.occupancy}"
            )
        self._head += count
        self.popped_count += count
        if self._head >= _COMPACT_THRESHOLD and self._head * 2 >= len(self._buf):
            del self._buf[: self._head]
            self._head = 0


class ListTape:
    """Plain-list FIFO a per-firing loop binds its filters to.

    ``items``/``cursor`` instead of head-sliced lists: a pop is one index
    increment, a push one ``list.append`` — the cheapest per-item operations
    CPython offers.  Values stay Python floats, so arithmetic matches the
    scalar engine bit-for-bit.  The owner moves items between the tape and
    its real channel (``vectorize.run_loop`` per call, the feedback core's
    ``CoreLoopRunner`` per chunk).
    """

    __slots__ = ("name", "items", "cursor")

    def __init__(self, name: str = "", items: Optional[List[float]] = None) -> None:
        self.name = name
        self.items: List[float] = [] if items is None else items
        self.cursor = 0

    def pop(self) -> float:
        c = self.cursor
        if c >= len(self.items):
            raise ChannelUnderflow(f"pop on empty list tape {self.name!r}")
        self.cursor = c + 1
        return self.items[c]

    def peek(self, index: int) -> float:
        j = self.cursor + index
        if index < 0 or j >= len(self.items):
            raise ChannelUnderflow(f"peek({index}) beyond list tape {self.name!r}")
        return self.items[j]

    def pop_many(self, count: int) -> List[float]:
        c = self.cursor
        end = c + count
        if end > len(self.items):
            raise ChannelUnderflow(f"pop_many({count}) on list tape {self.name!r}")
        self.cursor = end
        return self.items[c:end]

    def push(self, item: float) -> None:
        self.items.append(item)

    def push_many(self, items: List[float]) -> None:
        self.items.extend(items)

    def compact(self) -> None:
        if self.cursor:
            del self.items[: self.cursor]
            self.cursor = 0
