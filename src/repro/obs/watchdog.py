"""Parent-side **stall watchdog** for the parallel engine.

A ``RingStall`` fires only after the ring's timeout
(``repro.runtime.parallel.RING_STALL_S``, 120 s) — two minutes of silence
before the error names the blocked edge.  The watchdog closes that gap: a
daemon sampler thread in the parent reads each cross-worker ring's
counters, occupancy, and blocked-``need`` slots
(:meth:`~repro.runtime.ring.RingChannel.blocked_needs`) straight out of
the shared arena, plus worker process liveness, every
:data:`INTERVAL_S` seconds.  When a ring's counters stop
moving while a side is provably blocked on it, the watchdog records a
structured ``stall_suspected`` flight event — *consumer* blocked means the
edge is **starved** (its producer isn't delivering), *producer* blocked
means **convoy/backpressure** (its consumer isn't draining) — long before
the deadline, and bumps ``repro_watchdog_stall_suspected_total``.  Dead
workers get a ``worker_dead`` event the tick they are noticed.

Everything the watchdog does is read-only and advisory: ticks are fully
exception-guarded (a detached channel mid-``close()`` is expected, not an
error), and the thread is a daemon so it can never hold the process alive.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional, Tuple

from repro.obs.metrics import METRICS
from repro.obs.recorder import FLIGHT

#: Seconds between two samples of a session's rings.
INTERVAL_S = 0.25
#: Consecutive no-progress ticks (with a blocked side) before suspicion.
_STUCK_TICKS = 2


class StallWatchdog(threading.Thread):
    """Daemon thread sampling one :class:`ParallelSession`'s shared arena."""

    def __init__(self, session, interval: Optional[float] = None) -> None:
        super().__init__(name="repro-stall-watchdog", daemon=True)
        self._session = session
        self.interval = INTERVAL_S if interval is None else interval
        self._stop_event = threading.Event()
        # Per-edge progress memory: (pushed, popped) at the last tick and
        # how many consecutive ticks it has been both frozen and blocked.
        self._last_counters: Dict[str, Tuple[int, int]] = {}
        self._stuck_ticks: Dict[str, int] = {}
        # Edges already reported this episode (re-armed when counters move)
        # and workers already reported dead — one event per incident.
        self._reported: set = set()
        self._dead_reported: set = set()
        self.ticks = 0
        self.suspicions = 0

        self._g_occupancy = METRICS.gauge(
            "repro_ring_occupancy", "Items queued per cross-worker ring"
        )
        self._g_alive = METRICS.gauge(
            "repro_parallel_workers_alive", "Live forked workers of the newest session"
        )
        self._c_ticks = METRICS.counter(
            "repro_watchdog_ticks_total", "Watchdog sampler iterations"
        )
        self._c_suspected = METRICS.counter(
            "repro_watchdog_stall_suspected_total",
            "Rings seen frozen while a side was blocked, by blocked side",
        )

    # -- sampling ------------------------------------------------------------

    def _tick(self) -> None:
        session = self._session
        self._c_ticks.labels().inc()
        self.ticks += 1

        alive = 0
        for proc in session._procs:
            try:
                if proc.is_alive():
                    alive += 1
                elif proc.exitcode not in (0, None) and proc.name not in self._dead_reported:
                    self._dead_reported.add(proc.name)
                    FLIGHT.record(
                        "worker_dead", worker=proc.name, exitcode=proc.exitcode
                    )
            except Exception:
                pass
        self._g_alive.labels().set(alive)

        for edge in session.ring_edges:
            chan = session.channels.get(edge)
            if chan is None:
                continue
            try:
                pushed = chan.pushed_count
                popped = chan.popped_count
                prod_need, cons_need = chan.blocked_needs()
                capacity = chan.capacity
            except Exception:
                continue  # detached mid-close: expected, skip this ring
            name = chan.name
            self._g_occupancy.labels(edge=name).set(pushed - popped)

            counters = (pushed, popped)
            moved = self._last_counters.get(name) != counters
            self._last_counters[name] = counters
            if moved or (prod_need == 0 and cons_need == 0):
                self._stuck_ticks[name] = 0
                self._reported.discard(name)
                continue
            self._stuck_ticks[name] = self._stuck_ticks.get(name, 0) + 1
            if self._stuck_ticks[name] < _STUCK_TICKS or name in self._reported:
                continue
            self._reported.add(name)
            self.suspicions += 1
            # Consumer blocked and nothing arriving: the producer side is
            # the suspect (starvation).  Producer blocked on a full ring:
            # the consumer is the suspect (convoy/backpressure).
            if cons_need:
                side, suspect, need = "consumer", "starvation", cons_need
            else:
                side, suspect, need = "producer", "convoy/backpressure", prod_need
            self._c_suspected.labels(side=side).inc()
            FLIGHT.record(
                "stall_suspected",
                edge=name,
                side=side,
                suspect=suspect,
                need=need,
                occupancy=pushed - popped,
                capacity=capacity,
                blocked_for_s=round(self._stuck_ticks[name] * self.interval, 3),
            )

    def run(self) -> None:
        while not self._stop_event.wait(self.interval):
            try:
                self._tick()
                METRICS.maybe_publish()
            except Exception:
                # Advisory-only: a failed sample must never disturb the run.
                pass

    def stop(self, timeout: float = 2.0) -> None:
        self._stop_event.set()
        if self.is_alive():
            self.join(timeout=timeout)
