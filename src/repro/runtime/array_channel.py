"""Numpy-backed FIFO tape for the batched execution engine.

:class:`ArrayChannel` is a drop-in replacement for
:class:`~repro.runtime.channel.Channel` holding its items in a contiguous
``float64`` buffer.  On top of the scalar ``push``/``pop``/``peek`` API it
adds *block* operations — :meth:`push_block`, :meth:`pop_block`,
:meth:`peek_block`, :meth:`drop` — that move or expose whole firing windows
as numpy arrays in O(1) amortized time, which is what makes the batched
``work_batch`` kernels free of per-item Python overhead.

Layout: a single buffer with ``_head``/``_tail`` cursors.  Instead of
wrapping around (a classic ring buffer would make ``peek_block`` windows
discontiguous at the seam), the live region slides back to the front of the
buffer when the dead prefix dominates; each item is therefore moved O(1)
amortized times and every peek window is a zero-copy contiguous view.
"""

from __future__ import annotations

from typing import Iterable, List

import numpy as np

from repro.runtime.channel import ChannelUnderflow

#: Buffers start small and grow geometrically.
_MIN_CAPACITY = 16


class ArrayChannel:
    """A numeric FIFO tape backed by a sliding numpy buffer.

    Maintains the same history counters as ``Channel``: ``pushed_count`` is
    the paper's ``n(t)``, ``popped_count`` is ``p(t)``.
    """

    __slots__ = ("name", "_buf", "_head", "_tail", "pushed_count", "popped_count")

    def __init__(self, name: str = "", initial: Iterable[float] = ()) -> None:
        self.name = name
        init = np.asarray(list(initial), dtype=np.float64)
        cap = max(_MIN_CAPACITY, 2 * len(init))
        self._buf = np.empty(cap, dtype=np.float64)
        self._buf[: len(init)] = init
        self._head = 0
        self._tail = len(init)
        #: n(t): total items ever pushed (initial delay items count).
        self.pushed_count = len(init)
        #: p(t): total items ever popped.
        self.popped_count = 0

    def __len__(self) -> int:
        return self._tail - self._head

    @property
    def occupancy(self) -> int:
        """Items currently live on the channel (``n(t) - p(t)``)."""
        return self._tail - self._head

    # -- internal --------------------------------------------------------------

    def _reserve(self, extra: int) -> None:
        """Ensure ``extra`` more items fit after ``_tail``."""
        if self._tail + extra <= self._buf.size:
            return
        occ = self._tail - self._head
        need = occ + extra
        if need <= self._buf.size and self._head * 2 >= self._buf.size:
            # Slide the live region to the front; the regions cannot
            # overlap because the dead prefix is at least half the buffer.
            self._buf[:occ] = self._buf[self._head : self._tail]
        else:
            cap = max(self._buf.size * 2, need, _MIN_CAPACITY)
            new = np.empty(cap, dtype=np.float64)
            new[:occ] = self._buf[self._head : self._tail]
            self._buf = new
        self._head = 0
        self._tail = occ

    # -- scalar API (Channel-compatible) ---------------------------------------

    def push(self, item: float) -> None:
        """Enqueue ``item`` at the back of the channel."""
        self._reserve(1)
        self._buf[self._tail] = item
        self._tail += 1
        self.pushed_count += 1

    def push_many(self, items: Iterable[float]) -> None:
        """Enqueue several items preserving order (accepts any iterable)."""
        block = np.asarray(
            items if isinstance(items, np.ndarray) else list(items), dtype=np.float64
        )
        self.push_block(block)

    def pop(self) -> float:
        """Dequeue and return the oldest item."""
        if self._head >= self._tail:
            raise ChannelUnderflow(f"pop from empty channel {self.name!r}")
        item = float(self._buf[self._head])
        self._head += 1
        self.popped_count += 1
        return item

    def pop_many(self, count: int) -> List[float]:
        """Dequeue ``count`` items, oldest first, as a Python list."""
        return self.pop_block(count).tolist()

    def peek(self, index: int) -> float:
        """Item ``index`` slots from the front; ``peek(0)`` is next to pop."""
        pos = self._head + index
        if index < 0 or pos >= self._tail:
            raise ChannelUnderflow(
                f"peek({index}) on channel {self.name!r} holding {self.occupancy}"
            )
        return float(self._buf[pos])

    def snapshot(self) -> List[float]:
        """The live items, oldest first (for inspection/testing)."""
        return self._buf[self._head : self._tail].tolist()

    # -- block API (the batched fast path) -------------------------------------

    def push_block(self, block: np.ndarray) -> None:
        """Enqueue a whole array of items (flattened in C order).

        One copy whatever the layout: a strided or Fortran-order block is
        assigned through a reshaped view of the tail, never compacted first.
        """
        if type(block) is not np.ndarray:
            block = np.asarray(block, dtype=np.float64)
        n = block.size
        self._reserve(n)
        tail = self._tail
        if block.ndim > 1:
            self._buf[tail : tail + n].reshape(block.shape)[...] = block
        else:
            self._buf[tail : tail + n] = block
        self._tail = tail + n
        self.pushed_count += n

    def alloc_block(self, n: int) -> np.ndarray:
        """Reserve ``n`` items at the back, count them as pushed, and return
        the writable view the caller fills in place (valid until the next
        mutation of this channel)."""
        self._reserve(n)
        tail = self._tail
        self._tail = tail + n
        self.pushed_count += n
        return self._buf[tail : tail + n]

    def adopt_block(self, block: np.ndarray) -> None:
        """Make ``block`` the channel's entire contents, copying only if needed.

        Fast path for fused pipelines: when the channel is empty, the pushed
        array *becomes* the backing buffer (zero-copy for a contiguous
        float64 input), skipping ``_reserve`` and the memcpy of
        :meth:`push_block`.  Falls back to :meth:`push_block` when items are
        already queued.
        """
        if self._head != self._tail:
            self.push_block(block)
            return
        block = np.ascontiguousarray(block, dtype=np.float64).reshape(-1)
        if not block.flags.writeable:
            block = block.copy()
        self._buf = block
        self._head = 0
        self._tail = block.size
        self.pushed_count += block.size

    def peek_block(self, count: int) -> np.ndarray:
        """Zero-copy view of the first ``count`` live items.

        The view is valid until the next mutation of this channel; batched
        executors consume it before returning.
        """
        if count < 0 or self._head + count > self._tail:
            raise ChannelUnderflow(
                f"peek_block({count}) on channel {self.name!r} holding {self.occupancy}"
            )
        return self._buf[self._head : self._head + count]

    def pop_block(self, count: int) -> np.ndarray:
        """Dequeue ``count`` items as an array view (see :meth:`peek_block`)."""
        block = self.peek_block(count)
        self._head += count
        self.popped_count += count
        return block

    def drop(self, count: int) -> None:
        """Discard the first ``count`` live items (a pop without the values)."""
        if count < 0 or self._head + count > self._tail:
            raise ChannelUnderflow(
                f"drop({count}) on channel {self.name!r} holding {self.occupancy}"
            )
        self._head += count
        self.popped_count += count

    def trim(self) -> None:
        """Shrink the buffer to the live items (at least ``_MIN_CAPACITY``);
        contents and history counters are unchanged."""
        occ = self._tail - self._head
        cap = max(_MIN_CAPACITY, occ)
        if self._buf.size > cap:
            new = np.empty(cap, dtype=np.float64)
            new[:occ] = self._buf[self._head : self._tail]
            self._buf = new
            self._head = 0
            self._tail = occ

    def detach_all(self) -> List[float]:
        """Remove and return every live item *without* touching the history
        counters — a custody transfer to a scratch tape (the items were
        already counted when pushed, and the tape's consumer will be
        accounted for in bulk by its owner)."""
        items = self._buf[self._head : self._tail].tolist()
        self._head = self._tail = 0
        return items
