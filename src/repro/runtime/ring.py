"""Fixed-capacity SPSC ring buffers over ``multiprocessing.shared_memory``.

The parallel engine's workers are separate OS processes; a graph edge that
crosses a worker boundary becomes a :class:`RingChannel` — a single-producer
single-consumer circular queue of ``float64`` items living in one shared
memory segment, presented through the same block API as
:class:`~repro.runtime.array_channel.ArrayChannel` (``push_block`` /
``peek_block`` / ``pop_block`` / ``drop`` plus the scalar calls), so the
batched executors from :mod:`repro.runtime.plan` run unchanged on either
side of the boundary.

Protocol (the classic Lamport queue):

* two monotonically increasing ``int64`` counters per ring — ``pushed``
  (written only by the producer) and ``popped`` (written only by the
  consumer) — each alone on a 64-byte cache line so the writers never
  false-share;
* occupancy is ``pushed - popped``; free space is ``capacity - occupancy``;
* the producer publishes items by writing the data slots *then* advancing
  ``pushed`` (a single aligned 8-byte store; on x86's total store order the
  data writes are visible first — and CPython's eval loop inserts further
  synchronization around every bytecode in practice);
* blocking calls spin briefly, then sleep with backoff, re-checking a
  session-wide *abort* flag so a crashed peer unblocks everyone (raising
  :class:`RingAbort`) instead of deadlocking; a stall past ``timeout``
  seconds raises :class:`RingStall` (suspected deadlock or dead peer) — a
  structured error carrying the blocked edge, worker, side, and occupancy.
  On an *oversubscribed* host (more workers than CPUs) spinning only steals
  the quantum the peer needs to make progress, so the wait policy adapts:
  the session sets ``spin = 0`` and the loop yields to the scheduler
  immediately instead of burning its timeslice re-reading the counters;
* every blocked wait is *accounted*: producer-side waits (no space —
  backpressure) and consumer-side waits (no items — starvation) each bump
  an event count and a nanosecond total in the ring's own control block,
  so the observability layer (:mod:`repro.obs`) reads cross-process stall
  statistics without adding a single instruction to the unblocked path.

All rings of one session share a single :class:`RingArena` segment: one
``shm_open`` per session, one header holding the abort flag, and a packed
sequence of (counters, data) regions.  The counters double as the channel's
``pushed_count`` / ``popped_count`` history counters (the paper's ``n(t)``
and ``p(t)``), so introspection like ``Interpreter.items_pushed`` works
across process boundaries for free.
"""

from __future__ import annotations

import time
from typing import Iterable, List, Optional, Sequence

import numpy as np
from multiprocessing import shared_memory

from repro.errors import StreamItError
from repro.runtime.channel import ChannelUnderflow

#: int64 slots reserved for the arena header (slot 0: abort flag; slots
#: 1-2 belong to the parallel session's command protocol).
_HEADER_SLOTS = 8
#: int64 slots per ring's control block.  Slot 0: pushed; slot 8: popped.
#: Stall statistics share the writer's cache line (only the blocked side
#: writes them, so no new false sharing): slots 1/2 hold the producer's
#: stall event count and total stall nanoseconds, slots 9/10 the
#: consumer's.
_CTRL_SLOTS = 16
_PROD_STALLS, _PROD_STALL_NS = 1, 2
_CONS_STALLS, _CONS_STALL_NS = 9, 10
#: While a side is blocked, its *need* slot holds how many items/slots the
#: wait is for (zero when unblocked).  The parent's stall watchdog
#: (:mod:`repro.obs.watchdog`) reads these cross-process to tell a merely
#: slow ring from one whose peer will never deliver.
_PROD_NEED, _CONS_NEED = 3, 11
#: Iterations of pure spinning before the wait loop starts yielding
#: (dedicated-core hosts; oversubscribed sessions set spin to 0).
_SPIN_ITERS = 200
#: Longest backoff sleep (seconds) while blocked on a peer.
_MAX_SLEEP = 0.001
#: Shortest backoff sleep once the spin phase (if any) is exhausted.
_MIN_SLEEP = 20e-6


class RingAbort(StreamItError):
    """The session's abort flag was raised while blocked on a ring."""


class RingStall(StreamItError):
    """A blocking ring operation made no progress within its timeout.

    Structured: ``edge`` (the ring's ``src->dst`` name), ``worker`` (the
    blocked worker's id, or None outside a session), ``side``
    (``"producer"``/``"consumer"``), ``need``, ``occupancy``, and
    ``capacity`` identify exactly which transfer starved.
    """

    def __init__(
        self,
        message: str,
        *,
        edge: str = "",
        worker: Optional[int] = None,
        side: str = "",
        need: int = 0,
        occupancy: int = 0,
        capacity: int = 0,
    ) -> None:
        super().__init__(message)
        self.edge = edge
        self.worker = worker
        self.side = side
        self.need = need
        self.occupancy = occupancy
        self.capacity = capacity


def _align(n: int, to: int = 8) -> int:
    return (n + to - 1) // to * to


class RingArena:
    """One shared-memory segment holding every ring of a parallel session.

    The parent constructs the arena (``create=True``) before forking; child
    processes inherit the mapping through fork, so no name handshake or
    re-attach is needed.  The arena lives exactly as long as its session:
    the parent creates the segment, and :meth:`release` with
    ``unlink=True`` closes and unlinks it at teardown.
    """

    def __init__(self, capacities: Sequence[int]) -> None:
        offsets: List[int] = []
        cursor = _HEADER_SLOTS * 8
        for cap in capacities:
            if cap <= 0:
                raise StreamItError(f"ring capacity must be positive, got {cap}")
            offsets.append(cursor)
            cursor += _CTRL_SLOTS * 8 + _align(cap * 8, 64)
        self._capacities = list(capacities)
        self._offsets = offsets
        self._channels: List["RingChannel"] = []
        self.shm = shared_memory.SharedMemory(create=True, size=max(cursor, 64))
        self._header = np.frombuffer(self.shm.buf, dtype=np.int64, count=_HEADER_SLOTS)
        self._unlinked = False

    # -- abort flag ----------------------------------------------------------

    @property
    def aborted(self) -> bool:
        return bool(self._header[0])

    def abort(self) -> None:
        """Raise the session-wide abort flag (unblocks every ring wait)."""
        self._header[0] = 1

    # -- ring views ----------------------------------------------------------

    def ring(
        self,
        index: int,
        name: str = "",
        initial: Iterable[float] = (),
        timeout: float = 120.0,
        spin: int = _SPIN_ITERS,
        max_sleep: float = _MAX_SLEEP,
    ) -> "RingChannel":
        """A :class:`RingChannel` view of ring ``index`` in this arena."""
        off = self._offsets[index]
        cap = self._capacities[index]
        ctrl = np.frombuffer(
            self.shm.buf, dtype=np.int64, count=_CTRL_SLOTS, offset=off
        )
        data = np.frombuffer(
            self.shm.buf, dtype=np.float64, count=cap, offset=off + _CTRL_SLOTS * 8
        )
        chan = RingChannel(
            name, ctrl, data, self._header,
            timeout=timeout, spin=spin, max_sleep=max_sleep,
        )
        init = list(initial)
        if init:
            chan.prefill(init)
        self._channels.append(chan)
        return chan

    # -- lifecycle -----------------------------------------------------------

    def release(self, unlink: bool) -> None:
        """Drop this process's mapping; the creator also unlinks the segment.

        Numpy views pin the underlying ``memoryview``, so they must be
        dropped before ``close()`` or CPython raises ``BufferError``.
        Every channel this arena vended is detached here; callers holding
        additional hand-made views must drop them first.
        """
        for chan in self._channels:
            chan.detach()
        self._header = None
        try:
            self.shm.close()
        except BufferError:  # pragma: no cover - a live view escaped
            pass
        if unlink and not self._unlinked:
            self._unlinked = True
            try:
                self.shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass


class RingChannel:
    """SPSC shared-memory channel with the ArrayChannel block API.

    ``pushed_count``/``popped_count`` read the shared counters; blocking
    semantics are documented per method.  Exactly one process may push and
    one may pop — nothing enforces this, the planner guarantees it.
    """

    __slots__ = (
        "name",
        "_ctrl",
        "_data",
        "_header",
        "capacity",
        "timeout",
        "spin",
        "max_sleep",
        "wid",
    )

    def __init__(
        self,
        name: str,
        ctrl: np.ndarray,
        data: np.ndarray,
        header: np.ndarray,
        timeout: float = 120.0,
        spin: int = _SPIN_ITERS,
        max_sleep: float = _MAX_SLEEP,
    ) -> None:
        self.name = name
        self._ctrl = ctrl
        self._data = data
        self._header = header
        self.capacity = data.size
        self.timeout = timeout
        #: Pure-spin iterations before the wait loop yields.  Sessions set
        #: this to 0 when workers outnumber CPUs: on a timesliced host the
        #: peer needs this core, so yield immediately.
        self.spin = spin
        #: Ceiling on one backoff nap.  A blocked wait overshoots the peer's
        #: finish by at most this much, so sessions cap it well below a
        #: batch's compute time (the old 1 ms ceiling cost a visible slice
        #: of every batch on an oversubscribed host).
        self.max_sleep = max_sleep
        #: The worker id blocked waits report in RingStall (set per-process
        #: by the parallel session after fork; None outside one).
        self.wid: Optional[int] = None

    # -- counters -------------------------------------------------------------

    @property
    def pushed_count(self) -> int:
        """n(t): total items ever pushed (initial delay items count)."""
        return int(self._ctrl[0])

    @pushed_count.setter
    def pushed_count(self, value: int) -> None:
        self._ctrl[0] = value

    @property
    def popped_count(self) -> int:
        """p(t): total items ever popped."""
        return int(self._ctrl[8])

    @popped_count.setter
    def popped_count(self, value: int) -> None:
        self._ctrl[8] = value

    @property
    def occupancy(self) -> int:
        return int(self._ctrl[0] - self._ctrl[8])

    def stall_stats(self) -> dict:
        """Cumulative blocked-wait statistics, both sides, in seconds.

        ``producer_*`` is backpressure (pushes that found no space),
        ``consumer_*`` is starvation (pops/peeks that found no items).
        Readable from any process sharing the arena.
        """
        ctrl = self._ctrl
        return {
            "producer_stalls": int(ctrl[_PROD_STALLS]),
            "producer_stall_s": float(ctrl[_PROD_STALL_NS]) * 1e-9,
            "consumer_stalls": int(ctrl[_CONS_STALLS]),
            "consumer_stall_s": float(ctrl[_CONS_STALL_NS]) * 1e-9,
        }

    def blocked_needs(self) -> tuple:
        """``(producer_need, consumer_need)`` — nonzero while a side is blocked.

        A snapshot of the need slots the blocked ``_wait`` path maintains;
        readable from any process sharing the arena (the watchdog's view of
        who is waiting for what, racy by design).
        """
        ctrl = self._ctrl
        return (int(ctrl[_PROD_NEED]), int(ctrl[_CONS_NEED]))

    def __len__(self) -> int:
        return int(self._ctrl[0] - self._ctrl[8])

    def prefill(self, items: Sequence[float]) -> None:
        """Seed initial delay items (parent only, before workers start)."""
        n = len(items)
        if n > self.capacity:
            raise StreamItError(
                f"ring {self.name!r}: {n} initial items exceed capacity {self.capacity}"
            )
        self._data[:n] = np.asarray(items, dtype=np.float64)
        self._ctrl[0] = n

    # -- blocking -------------------------------------------------------------

    def _ready(self, need: int, for_space: bool) -> bool:
        ctrl = self._ctrl
        live = ctrl[0] - ctrl[8]
        return self.capacity - live >= need if for_space else live >= need

    def _wait(self, need: int, *, for_space: bool) -> None:
        """Block until ``need`` items (or free slots) are available."""
        if for_space and need > self.capacity:
            raise StreamItError(
                f"ring {self.name!r}: a single push of {need} items can "
                f"never fit capacity {self.capacity} (planner bug)"
            )
        if self._ready(need, for_space):
            return
        # The blocked path: account the stall (events + nanoseconds) in the
        # blocked side's own control slots.  The unblocked path above pays
        # nothing for this.  Every slot is read through ``self``: the
        # traceback of a RingAbort or RingStall keeps this frame alive, and
        # a local view of the segment would pin it past
        # RingArena.release().
        stall_slot = _PROD_STALLS if for_space else _CONS_STALLS
        ns_slot = _PROD_STALL_NS if for_space else _CONS_STALL_NS
        need_slot = _PROD_NEED if for_space else _CONS_NEED
        t0 = time.perf_counter_ns()
        self._ctrl[stall_slot] += 1
        self._ctrl[need_slot] = need
        spin = self.spin
        max_sleep = self.max_sleep
        spins = 0
        sleep = _MIN_SLEEP
        deadline: Optional[float] = None
        try:
            while True:
                if self._ready(need, for_space):
                    return
                if self._header[0]:
                    raise RingAbort(f"ring {self.name!r}: session aborted by a peer")
                spins += 1
                if spins <= spin:
                    continue
                if deadline is None:
                    deadline = time.monotonic() + self.timeout
                    # First escalation: yield the timeslice outright — on an
                    # oversubscribed host the peer is runnable right now.
                    time.sleep(0)
                    continue
                if time.monotonic() > deadline:
                    raise self._stall_error(need, for_space)
                time.sleep(sleep)
                if sleep < max_sleep:
                    sleep = min(max_sleep, sleep * 2.0)
        finally:
            self._ctrl[need_slot] = 0
            self._ctrl[ns_slot] += time.perf_counter_ns() - t0

    def _stall_error(self, need: int, for_space: bool) -> RingStall:
        side = "producer" if for_space else "consumer"
        what = "space" if for_space else "items"
        who = f" (worker {self.wid})" if self.wid is not None else ""
        return RingStall(
            f"ring {self.name!r}: {side}{who} waited "
            f"{self.timeout:.0f}s for {need} {what} (occupancy "
            f"{self.occupancy}/{self.capacity}); suspected "
            "deadlock or dead peer",
            edge=self.name,
            worker=self.wid,
            side=side,
            need=need,
            occupancy=self.occupancy,
            capacity=self.capacity,
        )



    def wait_items(self, count: int) -> None:
        """Block until at least ``count`` items are readable."""
        self._wait(count, for_space=False)

    # -- block API (producer side) --------------------------------------------

    def push_block(self, block: np.ndarray) -> None:
        """Enqueue a whole array (flattened in C order); blocks on full."""
        block = np.ascontiguousarray(block, dtype=np.float64).reshape(-1)
        n = block.size
        if n == 0:
            return
        self._wait(n, for_space=True)
        pos = int(self._ctrl[0]) % self.capacity
        first = min(n, self.capacity - pos)
        self._data[pos : pos + first] = block[:first]
        if n > first:
            self._data[: n - first] = block[first:]
        # Publish: single aligned 8-byte store after the data writes.
        self._ctrl[0] += n

    def push(self, item: float) -> None:
        self._wait(1, for_space=True)
        self._data[int(self._ctrl[0]) % self.capacity] = item
        self._ctrl[0] += 1

    def push_many(self, items: Iterable[float]) -> None:
        self.push_block(np.asarray(list(items), dtype=np.float64))

    # -- block API (consumer side) ---------------------------------------------

    def peek_block(self, count: int) -> np.ndarray:
        """First ``count`` live items; blocks until they exist.

        Returns a zero-copy view when the window doesn't wrap (valid until
        the matching ``drop``/``pop_block`` — the producer cannot overwrite
        unpopped slots), a copy when it does.
        """
        if count < 0:
            raise ChannelUnderflow(f"peek_block({count}) on ring {self.name!r}")
        if count == 0:
            return self._data[:0]
        self._wait(count, for_space=False)
        pos = int(self._ctrl[8]) % self.capacity
        if pos + count <= self.capacity:
            return self._data[pos : pos + count]
        out = np.empty(count, dtype=np.float64)
        first = self.capacity - pos
        out[:first] = self._data[pos:]
        out[first:] = self._data[: count - first]
        return out

    def pop_block(self, count: int) -> np.ndarray:
        """Dequeue ``count`` items as an owned array; blocks until available.

        Always copies: after ``popped`` advances the producer may reuse the
        slots, so a view would be unsafe.
        """
        block = np.array(self.peek_block(count), copy=True)
        self._ctrl[8] += count
        return block

    def drop(self, count: int) -> None:
        """Discard the first ``count`` live items; blocks until they exist."""
        if count < 0:
            raise ChannelUnderflow(f"drop({count}) on ring {self.name!r}")
        if count:
            self._wait(count, for_space=False)
            self._ctrl[8] += count

    def pop(self) -> float:
        self._wait(1, for_space=False)
        item = float(self._data[int(self._ctrl[8]) % self.capacity])
        self._ctrl[8] += 1
        return item

    def pop_many(self, count: int) -> List[float]:
        return self.pop_block(count).tolist()

    def peek(self, index: int) -> float:
        if index < 0:
            raise ChannelUnderflow(f"peek({index}) on ring {self.name!r}")
        self._wait(index + 1, for_space=False)
        return float(self._data[(int(self._ctrl[8]) + index) % self.capacity])

    def snapshot(self) -> List[float]:
        """The live items, oldest first (inspection/testing; racy under load)."""
        return self.peek_block(len(self)).tolist()

    def detach(self) -> None:
        """Drop the shared-memory views so the segment can close cleanly.

        Numpy views pin the segment's ``memoryview``; a detached channel
        keeps a private copy of its control block — its history counters,
        occupancy and stall statistics still answer — but moves no item
        (any push or pop raises) and no longer blocks
        ``SharedMemory.close()``.
        """
        self._ctrl = self._ctrl.copy()
        self._data = self._header = None
