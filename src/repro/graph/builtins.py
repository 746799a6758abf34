"""Library filters: identity, sources, sinks, and function lifting.

These play the role of StreamIt's ``IDENTITY()``, file readers/writers and
the small utility filters every application needs.
"""

from __future__ import annotations

from collections.abc import MutableSequence
from typing import Callable, Iterable, List, Optional, Sequence

import numpy as np

from repro.errors import ValidationError
from repro.graph.base import Filter


class Identity(Filter):
    """Outputs exactly the items it inputs (StreamIt's ``IDENTITY()``)."""

    supports_work_batch = True

    def __init__(self, name: Optional[str] = None) -> None:
        super().__init__(pop=1, push=1, name=name)

    def work(self) -> None:
        self.push(self.pop())

    def work_batch(self, n: int) -> None:
        self.output.push_block(self.input.pop_block(n))


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class ArraySource(Filter):
    """Pushes items from a fixed sequence, cycling when exhausted.

    Cycling keeps the source a legal static-rate SDF actor for arbitrarily
    long executions; tests that care about exact data size the sequence to
    the number of items they consume.
    """

    supports_work_batch = True

    def __init__(self, data: Sequence[float], name: Optional[str] = None) -> None:
        super().__init__(pop=0, push=1, name=name)
        data = list(data)
        if not data:
            raise ValidationError("ArraySource requires at least one item")
        self.data = data
        self.init()

    def init(self) -> None:
        self._pos = 0
        # What work_batch reads: ``data`` as float64 as of this call (callers
        # edit ``data`` in place between construction and the run), tiled on
        # demand so that n items from any position are one slice.  Read-only:
        # a fusion tape copies such a block instead of adopting it as its
        # buffer, and nothing downstream can write through a pushed view.
        self._ring = _frozen(np.array(self.data, dtype=np.float64))

    def work(self) -> None:
        self.push(self.data[self._pos])
        self._pos = (self._pos + 1) % len(self.data)

    def work_batch(self, n: int) -> None:
        size, pos, ring = len(self.data), self._pos, self._ring
        if ring.size < size + n:
            ring = self._ring = _frozen(np.tile(ring[:size], -(-n // size) + 1))
        self.output.push_block(ring[pos : pos + n])
        self._pos = (pos + n) % size


class FunctionSource(Filter):
    """Pushes ``fn(i)`` for ``i = 0, 1, 2, …`` — a deterministic generator."""

    supports_work_batch = True

    def __init__(self, fn: Callable[[int], float], name: Optional[str] = None) -> None:
        super().__init__(pop=0, push=1, name=name)
        self.fn = fn
        self._i = 0

    def init(self) -> None:
        self._i = 0

    def work(self) -> None:
        self.push(self.fn(self._i))
        self._i += 1

    def work_batch(self, n: int) -> None:
        fn, i = self.fn, self._i
        values = np.array([fn(i + k) for k in range(n)], dtype=np.float64)
        self._i = i + n
        self.output.push_block(values)


#: A :class:`Collected` fills float64 chunks whose capacity doubles up to this
#: many items (512 KiB): one-item blocks coalesce, no item is copied twice.
_CHUNK_ITEMS = 1 << 16

_NO_CHUNK = np.empty(0)


class Collected(MutableSequence):
    """What a :class:`CollectSink` has seen, in arrival order: a list to its
    readers, float64 chunks underneath.

    ``extend(ndarray)`` — the batched path — copies the block into float64
    chunks; ``append`` keeps the item itself.  ``len()``, ``clear()`` and
    ``np.asarray(c)`` work on the chunks and box nothing.  Iterating,
    indexing, slicing, comparing and every other mutation first turn the
    store into one plain list — which it then is, until the next block
    arrives — and behave exactly as that list does.
    """

    def __init__(self, items: Iterable[float] = ()) -> None:
        self.clear()
        self._tail.extend(items)

    def clear(self) -> None:
        #: Closed segments, oldest first: full chunks and lists of scalars.
        self._parts: List[object] = []
        #: The open chunk and how much of it is filled ...
        self._chunk = _NO_CHUNK
        self._fill = 0
        #: ... or the open list; whichever is older has been closed.
        self._tail: List[float] = []

    def _segments(self) -> List[object]:
        segments = list(self._parts)
        if self._fill:
            segments.append(self._chunk[: self._fill])
        if self._tail:
            segments.append(self._tail)
        return segments

    def _items(self) -> List[float]:
        """Everything as one plain list, which the store then is.  A leading
        list is extended in place, so reading after every block stays linear."""
        if self._parts or self._fill:
            segments = self._segments()
            items = segments.pop(0) if type(segments[0]) is list else []
            for segment in segments:
                items.extend(segment if type(segment) is list else segment.tolist())
            self.clear()
            self._tail = items
        return self._tail

    def _seal(self) -> None:
        """Close the part-filled chunk, keeping only its filled prefix alive."""
        self._parts.append(self._chunk[: self._fill].copy())
        self._chunk, self._fill = _NO_CHUNK, 0

    def append(self, item: float) -> None:
        if self._fill:
            self._seal()
        self._tail.append(item)

    def extend(self, items: Iterable[float]) -> None:
        """Append ``items``; an ndarray is copied in as float64 (the caller's
        block is typically a view the channel will overwrite)."""
        if not isinstance(items, np.ndarray):
            items = list(items)  # before sealing: ``items`` may be self
            if self._fill:
                self._seal()
            self._tail.extend(items)
            return
        if self._tail:
            self._parts.append(self._tail)
            self._tail = []
        block = items.reshape(-1)
        chunk, fill = self._chunk, self._fill
        room = chunk.size - fill
        if block.size > room:
            if chunk.size:
                chunk[fill:] = block[:room]
                block = block[room:]
                self._parts.append(chunk)
            chunk = self._chunk = np.empty(
                max(block.size, min(2 * chunk.size, _CHUNK_ITEMS))
            )
            fill = 0
        chunk[fill : fill + block.size] = block
        self._fill = fill + block.size

    def __len__(self) -> int:
        return sum(map(len, self._parts)) + self._fill + len(self._tail)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        segments = [np.asarray(segment) for segment in self._segments()]
        out = np.concatenate(segments) if segments else np.empty(0)
        return out if dtype is None else out.astype(dtype, copy=False)

    def __iter__(self):
        return iter(self._items())

    def __getitem__(self, index):
        return self._items()[index]

    def __setitem__(self, index, value) -> None:
        self._items()[index] = value

    def __delitem__(self, index) -> None:
        del self._items()[index]

    def insert(self, index: int, value: float) -> None:
        self._items().insert(index, value)

    def __eq__(self, other) -> bool:
        if isinstance(other, Collected):
            other = other._items()
        return self._items() == other

    def __repr__(self) -> str:
        return repr(self._items())


class CollectSink(Filter):
    """Consumes one item per firing, recording everything it sees."""

    supports_work_batch = True

    def __init__(self, name: Optional[str] = None) -> None:
        super().__init__(pop=1, push=0, name=name)
        self.collected = Collected()

    def init(self) -> None:
        self.collected = Collected()

    def work(self) -> None:
        self.collected.append(self.pop())

    def work_batch(self, n: int) -> None:
        self.collected.extend(self.input.pop_block(n))


class NullSink(Filter):
    """Consumes and discards one item per firing."""

    supports_work_batch = True

    def __init__(self, name: Optional[str] = None) -> None:
        super().__init__(pop=1, push=0, name=name)

    def work(self) -> None:
        self.pop()

    def work_batch(self, n: int) -> None:
        self.input.drop(n)


class FunctionFilter(Filter):
    """Lifts a Python function over windows of the stream.

    Per firing, ``fn`` receives the ``peek``-item window (oldest first) and
    must return ``push`` output items; ``pop`` items are then consumed.
    Useful for tests and quick prototyping; *not* analyzable by linear
    extraction (use a real ``Filter`` subclass for that).
    """

    def __init__(
        self,
        fn: Callable[[Sequence[float]], Sequence[float]],
        *,
        pop: int,
        push: int,
        peek: Optional[int] = None,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(pop=pop, push=push, peek=peek, name=name)
        self.fn = fn

    def work(self) -> None:
        window = [self.peek(i) for i in range(self.rate.peek)]
        out = self.fn(window)
        if len(out) != self.rate.push:
            raise ValidationError(
                f"{self.name}: fn returned {len(out)} items, declared push={self.rate.push}"
            )
        for _ in range(self.rate.pop):
            self.pop()
        for item in out:
            self.push(item)


class Decimator(Filter):
    """Keeps one item out of every ``factor`` (a compressor)."""

    def __init__(self, factor: int, offset: int = 0, name: Optional[str] = None) -> None:
        if factor < 1:
            raise ValidationError(f"decimation factor must be >= 1, got {factor}")
        if not 0 <= offset < factor:
            raise ValidationError(f"offset must be in [0, {factor}), got {offset}")
        super().__init__(pop=factor, push=1, name=name)
        self.factor = factor
        self.offset = offset

    supports_work_batch = True

    def work(self) -> None:
        kept = self.peek(self.offset)
        for _ in range(self.factor):
            self.pop()
        self.push(kept)

    def work_batch(self, n: int) -> None:
        block = self.input.pop_block(n * self.factor)
        self.output.push_block(block[self.offset :: self.factor])


class Expander(Filter):
    """Inserts ``factor - 1`` zeros after every input item (an expander)."""

    def __init__(self, factor: int, name: Optional[str] = None) -> None:
        if factor < 1:
            raise ValidationError(f"expansion factor must be >= 1, got {factor}")
        super().__init__(pop=1, push=factor, name=name)
        self.factor = factor

    supports_work_batch = True

    def work(self) -> None:
        self.push(self.pop())
        for _ in range(self.factor - 1):
            self.push(0.0)

    def work_batch(self, n: int) -> None:
        out = np.zeros((n, self.factor))
        out[:, 0] = self.input.pop_block(n)
        self.output.push_block(out)


class Duplicator(Filter):
    """Pushes each input item ``copies`` times."""

    def __init__(self, copies: int, name: Optional[str] = None) -> None:
        if copies < 1:
            raise ValidationError(f"copies must be >= 1, got {copies}")
        super().__init__(pop=1, push=copies, name=name)
        self.copies = copies

    supports_work_batch = True

    def work(self) -> None:
        item = self.pop()
        for _ in range(self.copies):
            self.push(item)

    def work_batch(self, n: int) -> None:
        self.output.push_block(np.repeat(self.input.pop_block(n), self.copies))
