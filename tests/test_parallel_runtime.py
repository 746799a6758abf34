"""Tests for the parallel runtime: ring buffers, worker lifecycle, and
bit-exactness of ``engine="parallel"`` against the batched engine.

The ring tests drive :class:`RingChannel` through its edge cases directly
(wraparound, blocked producer/consumer, abort).  The lifecycle tests assert
the issue's teardown contract: no orphaned worker processes on success, on
an exception inside a worker (error carries the filter's instance name), or
on cancellation mid-session.  The differential tests run real apps under
every mapping strategy and require bit-identical output or a structured
``SL304`` downgrade — never a crash.
"""

import gc
import os
import threading
import time
import warnings

import numpy as np
import pytest

from repro.apps import ALL_APPS
from repro.errors import EngineDowngradeWarning, StreamItError
from repro.graph.base import Filter
from repro.graph.builtins import ArraySource, CollectSink, Identity
from repro.graph.composites import Pipeline
from repro.mapping.strategies import STRATEGIES
from repro.runtime import Interpreter
from repro.runtime.parallel import clear_struct_cache, drain_warm_arenas
from repro.runtime.ring import RingAbort, RingArena, RingStall

from .helpers import FIR, Gain

STRATEGY_NAMES = tuple(STRATEGIES)


def _collect(app):
    return next(f for f in app.filters() if isinstance(f, CollectSink))


def _run(builder, engine, periods=6, **opts):
    app = builder()
    sink = _collect(app)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EngineDowngradeWarning)
        interp = Interpreter(app, engine=engine, **opts)
    try:
        interp.run(periods)
    finally:
        interp.close()
    return list(sink.collected), interp


# ---------------------------------------------------------------------------
# Ring buffer edge cases
# ---------------------------------------------------------------------------


class TestRingChannel:
    def test_wraparound_at_capacity(self):
        arena = RingArena([8])
        try:
            ring = arena.ring(0, name="wrap")
            # Fill, drain partially, refill: the second block must wrap.
            ring.push_block(np.arange(6.0))
            assert ring.pop_block(4).tolist() == [0.0, 1.0, 2.0, 3.0]
            ring.push_block(np.arange(10.0, 15.0))  # crosses the end
            assert len(ring) == 7
            assert ring.snapshot() == [4.0, 5.0, 10.0, 11.0, 12.0, 13.0, 14.0]
            # peek_block over the wrapped window copies but stays correct.
            assert ring.peek_block(7).tolist() == ring.snapshot()
            ring.drop(7)
            assert len(ring) == 0
        finally:
            arena.release(unlink=True)

    def test_counters_survive_wraparound(self):
        arena = RingArena([4])
        try:
            ring = arena.ring(0, name="count")
            for i in range(25):
                ring.push(float(i))
                assert ring.pop() == float(i)
            assert ring.pushed_count == 25
            assert ring.popped_count == 25
        finally:
            arena.release(unlink=True)

    def test_consumer_blocked_until_producer_pushes(self):
        arena = RingArena([8])
        try:
            ring = arena.ring(0, name="cb", timeout=5.0)

            def produce():
                time.sleep(0.05)
                ring.push_block(np.arange(3.0))

            t = threading.Thread(target=produce)
            t.start()
            # Blocks (the items don't exist yet), then returns them.
            assert ring.pop_block(3).tolist() == [0.0, 1.0, 2.0]
            t.join()
        finally:
            arena.release(unlink=True)

    def test_producer_blocked_until_consumer_pops(self):
        arena = RingArena([4])
        try:
            ring = arena.ring(0, name="pb", timeout=5.0)
            ring.push_block(np.arange(4.0))  # full

            def consume():
                time.sleep(0.05)
                ring.drop(3)

            t = threading.Thread(target=consume)
            t.start()
            ring.push_block(np.array([9.0, 10.0]))  # blocks until the drop
            t.join()
            assert ring.snapshot() == [3.0, 9.0, 10.0]
        finally:
            arena.release(unlink=True)

    def test_blocked_wait_times_out_as_stall(self):
        arena = RingArena([4])
        try:
            ring = arena.ring(0, name="stall", timeout=0.05)
            with pytest.raises(RingStall):
                ring.pop_block(1)  # nobody will ever push
            ring.push_block(np.arange(4.0))
            with pytest.raises(RingStall):
                ring.push(5.0)  # nobody will ever pop
        finally:
            arena.release(unlink=True)

    def test_abort_unblocks_waiters(self):
        arena = RingArena([4])
        try:
            ring = arena.ring(0, name="abort", timeout=30.0)

            def aborter():
                time.sleep(0.05)
                arena.abort()

            t = threading.Thread(target=aborter)
            t.start()
            with pytest.raises(RingAbort):
                ring.pop_block(1)
            t.join()
        finally:
            arena.release(unlink=True)

    def test_oversized_single_push_is_a_planner_bug(self):
        arena = RingArena([4])
        try:
            ring = arena.ring(0, name="big")
            with pytest.raises(StreamItError):
                ring.push_block(np.arange(5.0))
        finally:
            arena.release(unlink=True)

    def test_zero_item_operations_are_noops(self):
        arena = RingArena([4])
        try:
            ring = arena.ring(0, name="zero")
            ring.push_block(np.empty(0))
            ring.drop(0)
            assert ring.peek_block(0).tolist() == []
            assert len(ring) == 0
        finally:
            arena.release(unlink=True)


# ---------------------------------------------------------------------------
# Worker lifecycle
# ---------------------------------------------------------------------------


class _BombFilter(Filter):
    """Works fine during init, explodes on the Nth steady firing."""

    def __init__(self, fuse: int) -> None:
        super().__init__(pop=1, push=1, name="bomb")
        self.fuse = fuse
        self.count = 0

    def work(self) -> None:
        self.count += 1
        if self.count > self.fuse:
            raise RuntimeError("boom")
        self.push(self.pop() * 2.0)


def _chain_app(middle):
    data = [float(v) for v in np.arange(16.0)]
    return Pipeline(
        ArraySource(data),
        Identity(),
        middle,
        Identity(),
        CollectSink(),
    )


class TestWorkerLifecycle:
    def test_clean_shutdown_on_success(self):
        out, interp = _run(
            lambda: _chain_app(Identity()), "parallel", strategy="softpipe", cores=2
        )
        if interp.engine_used != "parallel":
            pytest.skip("degenerate partition on this host")
        assert interp.parallel.alive_workers == 0
        interp.close()  # idempotent
        assert interp.parallel.alive_workers == 0

    def test_worker_exception_propagates_with_filter_name(self):
        app = _chain_app(_BombFilter(fuse=4))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EngineDowngradeWarning)
            interp = Interpreter(app, engine="parallel", strategy="softpipe", cores=2)
        if interp.engine_used != "parallel":
            pytest.skip("degenerate partition on this host")
        with pytest.raises(StreamItError, match="bomb"):
            interp.run(periods=64)
        # No orphans: every worker joined during failure teardown.
        assert interp.parallel.alive_workers == 0
        interp.close()
        with pytest.raises(StreamItError, match="closed"):
            interp.run_steady(1)

    def test_worker_error_carries_slice_and_iteration(self):
        # A fuse long enough that the bomb survives init and explodes in
        # steady state, where the command carries slice/iteration context.
        app = _chain_app(_BombFilter(fuse=30))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EngineDowngradeWarning)
            interp = Interpreter(
                app, engine="parallel", strategy="softpipe", cores=2, trace=True
            )
        if interp.engine_used != "parallel":
            pytest.skip("degenerate partition on this host")
        with pytest.raises(StreamItError, match="bomb") as excinfo:
            interp.run(periods=100)
        message = str(excinfo.value)
        assert "schedule slice" in message
        assert "steady iteration" in message
        # The traced run records the same context as a worker_error event.
        errors = [
            e for e in interp.tracer.events if e.get("name") == "worker_error"
        ]
        assert errors and errors[0]["args"]["filter"] == "bomb"
        assert "schedule_slice" in errors[0]["args"]
        assert "steady_iteration" in errors[0]["args"]
        interp.close()
        # The captured traceback's frames pin ring views; drop them while
        # the arena is still alive so its shared memory can finalize cleanly.
        del excinfo
        gc.collect()

    def test_cancellation_mid_session_leaves_no_orphans(self):
        app = _chain_app(Identity())
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EngineDowngradeWarning)
            interp = Interpreter(app, engine="parallel", strategy="softpipe", cores=2)
        if interp.engine_used != "parallel":
            pytest.skip("degenerate partition on this host")
        # Run part of the work, then abandon the session the way a
        # KeyboardInterrupt handler would: close() with workers idle-parked
        # between commands, without a shutdown command having been run.
        interp.run(periods=2)
        assert interp.parallel.alive_workers > 0
        interp.close()
        assert interp.parallel.alive_workers == 0

    def test_close_before_first_run_is_safe(self):
        app = _chain_app(Identity())
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EngineDowngradeWarning)
            interp = Interpreter(app, engine="parallel", strategy="softpipe", cores=2)
        interp.close()
        if interp.parallel is not None:
            assert interp.parallel.alive_workers == 0

    def test_context_manager_closes(self):
        app = _chain_app(Identity())
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EngineDowngradeWarning)
            with Interpreter(app, engine="parallel", strategy="softpipe", cores=2) as interp:
                interp.run(periods=2)
        if interp.parallel is not None:
            assert interp.parallel.alive_workers == 0

    def test_zero_period_steady_is_noop(self):
        app = _chain_app(Identity())
        sink = _collect(app)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EngineDowngradeWarning)
            with Interpreter(app, engine="parallel", strategy="softpipe", cores=2) as interp:
                interp.run_init()
                before = len(sink.collected)
                interp.run_steady(0)
                assert len(sink.collected) == before


# ---------------------------------------------------------------------------
# Structured downgrades
# ---------------------------------------------------------------------------


class TestParallelDowngrade:
    def test_single_core_request_downgrades_to_batched(self):
        app = _chain_app(Identity())
        with pytest.warns(EngineDowngradeWarning, match="SL304"):
            interp = Interpreter(app, engine="parallel", strategy="softpipe", cores=1)
        assert interp.engine_used == "codegen"  # the one single-process engine
        assert any(d.code == "SL304" for d in interp.downgrades)
        interp.run(periods=4)
        interp.close()

    def test_teleport_portals_downgrade_to_batched(self):
        from repro.apps import freqhop

        app = freqhop.build_teleport()
        with pytest.warns(EngineDowngradeWarning, match="SL304"):
            interp = Interpreter(app, engine="parallel", strategy="softpipe", cores=2)
        assert interp.engine_used == "codegen"  # the one single-process engine
        assert any(d.code == "SL304" for d in interp.downgrades)
        interp.close()

    def test_strict_mode_raises_instead_of_downgrading(self):
        app = _chain_app(Identity())
        with pytest.raises(StreamItError, match="SL304"):
            Interpreter(
                app, engine="parallel", strategy="softpipe", cores=1, strict=True
            )

    def test_analyzer_crash_refuses_instead_of_dropping_constraints(
        self, monkeypatch
    ):
        # The co-location constraints keep two filters that share a mutable
        # object on one worker; an analysis that crashed has found none.
        def crash(graph):
            raise RuntimeError("analyzer exploded")

        monkeypatch.setattr("repro.analysis.graph.shared_state_groups", crash)
        clear_struct_cache()
        with pytest.warns(EngineDowngradeWarning, match="SL304"):
            interp = Interpreter(
                ALL_APPS["FMRadio"](), check=False, engine="parallel", cores=2
            )
        assert interp.engine_used == "codegen"  # the one single-process engine
        [downgrade] = [d for d in interp.downgrades if d.code == "SL304"]
        assert "analyzer exploded" in downgrade.message
        interp.close()
        with pytest.raises(StreamItError, match="analyzer exploded"):
            Interpreter(
                ALL_APPS["FMRadio"](), check=False, engine="parallel", cores=2,
                strict=True,
            )

    def test_downgrade_report_is_structured(self):
        app = _chain_app(Identity())
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EngineDowngradeWarning)
            interp = Interpreter(app, engine="parallel", strategy="softpipe", cores=1)
        report = interp.engine_report()
        assert report["requested"] == "parallel"
        assert report["used"] == "codegen"
        assert any(d["code"] == "SL304" for d in report["downgrades"])
        interp.close()


# ---------------------------------------------------------------------------
# Bit-exactness against the batched engine, across apps and strategies
# ---------------------------------------------------------------------------

#: Every app under the default strategy; a representative subset under the
#: full strategy matrix (the matrix over ALL_APPS runs in the nightly sweep,
#: not per-commit).
MATRIX_APPS = ("Vocoder", "FMRadio", "FilterBank", "DToA")


class TestParallelDifferential:
    @pytest.mark.parametrize("name", sorted(ALL_APPS))
    def test_apps_bit_exact_softpipe(self, name):
        builder = ALL_APPS[name]
        ref, _ = _run(builder, "batched", periods=4)
        out, interp = _run(
            builder, "parallel", periods=4, strategy="softpipe", cores=2
        )
        if interp.engine_used != "parallel":
            assert any(d.code == "SL304" for d in interp.downgrades)
        assert out == ref

    @pytest.mark.parametrize("strategy", STRATEGY_NAMES)
    @pytest.mark.parametrize("name", MATRIX_APPS)
    def test_matrix_bit_exact_all_strategies(self, name, strategy):
        builder = ALL_APPS[name]
        ref, _ = _run(builder, "batched", periods=4)
        out, interp = _run(
            builder, "parallel", periods=4, strategy=strategy, cores=4
        )
        if interp.engine_used != "parallel":
            assert any(d.code == "SL304" for d in interp.downgrades)
        assert out == ref

    def test_layout_report_places_io_on_parent(self):
        builder = ALL_APPS["FMRadio"]
        app = builder()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EngineDowngradeWarning)
            interp = Interpreter(app, engine="parallel", strategy="softpipe", cores=2)
        try:
            layout = interp.engine_report()["parallel"]
            workers = layout["workers"]
            assert len(workers) >= 3  # parent + >=2 compute workers
            parent_nodes = workers[0]
            assert any("source" in n.lower() or "sink" in n.lower() for n in parent_nodes)
            assert layout["ring_edges"]  # cross-worker traffic exists
        finally:
            interp.close()


# ---------------------------------------------------------------------------
# Batched protocol, double-buffered discipline, warm reuse, structured stalls
# ---------------------------------------------------------------------------


def _fresh_parallel(builder, strategy="softpipe", cores=2, **opts):
    """Build a parallel Interpreter on a cold pool/cache (skip on SL304)."""
    drain_warm_arenas()
    clear_struct_cache()
    app = builder()
    sink = _collect(app)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EngineDowngradeWarning)
        interp = Interpreter(
            app, engine="parallel", strategy=strategy, cores=cores, **opts
        )
    if interp.engine_used != "parallel":
        interp.close()
        pytest.skip(f"parallel engine downgraded for {strategy}")
    return interp, sink


class _SlowFilter(Filter):
    """Healthy filter that stalls its consumers once, for a long time.

    The nap duration mixes in mutated state so the rate analyzer treats the
    ``sleep`` argument as unknown (rates stay provably static); a concrete
    foreign call would demote the filter to dynamic rates and downgrade the
    engine before the stall path we want to exercise is ever reached.
    """

    def __init__(self, naps: float) -> None:
        super().__init__(pop=1, push=1, name="slow")
        self.naps = naps
        self.count = 0

    def work(self) -> None:
        self.count += 1
        if self.count == 3:
            time.sleep(self.naps + 0.0 * self.count)
        self.push(self.pop())


class TestStructuredStall:
    def test_ring_stall_carries_edge_worker_and_occupancy(self):
        arena = RingArena([4])
        try:
            ring = arena.ring(0, name="a->b", timeout=0.05)
            ring.wid = 3
            with pytest.raises(RingStall) as excinfo:
                ring.pop_block(2)
            err = excinfo.value
            assert err.edge == "a->b"
            assert err.worker == 3
            assert err.side == "consumer"
            assert err.need == 2
            assert err.occupancy == 0
            assert err.capacity == 4
            assert "a->b" in str(err) and "worker 3" in str(err)
            # Producer side: fill the ring, then push into a full ring.
            ring.push_block(np.arange(4.0))
            with pytest.raises(RingStall) as excinfo:
                ring.push(9.0)
            assert excinfo.value.side == "producer"
            assert excinfo.value.occupancy == 4
        finally:
            arena.release(unlink=True)

    def test_starved_session_names_edge_and_worker(self, monkeypatch):
        # One filter naps far past the stall deadline: whichever worker is
        # blocked on the starved ring must raise a structured error naming
        # the edge and the worker — not hang for the default two minutes.
        monkeypatch.setattr("repro.runtime.parallel.RING_STALL_S", 0.4)
        interp, _ = _fresh_parallel(lambda: _chain_app(_SlowFilter(3.0)))
        t0 = time.perf_counter()
        with pytest.raises(StreamItError) as excinfo:
            interp.run(4)
        elapsed = time.perf_counter() - t0
        interp.close()
        assert elapsed < 30.0
        # Two valid shapes: the parent stalled (structured "session aborted;
        # worker W stalled ... on ring 'src->dst'") or a child stalled first
        # and its report carries the RingStall traceback.  Both must name
        # the blocked edge and worker.
        msg = str(excinfo.value)
        chain = excinfo.value.__cause__
        structured = (
            isinstance(chain, RingStall) or "stalled" in msg or "RingStall" in msg
        )
        assert structured, msg
        assert "->" in msg and "worker" in msg, msg


class TestBatchedProtocol:
    def test_one_steady_command_per_run_and_single_fork(self):
        interp, sink = _fresh_parallel(ALL_APPS["FilterBank"])
        try:
            interp.run(3)
            interp.run_steady(2)
            interp.run_steady(4)
            proto = interp.engine_report()["parallel"]["protocol"]
        finally:
            interp.close()
        assert proto["fork_count"] == 1
        assert proto["commands"]["init"] == 1
        # O(1) control traffic: exactly one steady command per run() /
        # run_steady() call, regardless of the periods each one covers.
        assert proto["commands"]["steady"] == 3
        assert proto["steady_runs"] == 3

    def test_warm_session_reuse_is_bit_exact(self):
        builder = ALL_APPS["FilterBank"]
        ref, _ = _run(builder, "batched", periods=8)
        interp, sink = _fresh_parallel(builder)
        try:
            interp.run(5)
            interp.run_steady(3)
            out = list(sink.collected)
        finally:
            interp.close()
        assert out == ref

    def test_no_leaked_segments_after_close_and_drain(self):
        interp, _ = _fresh_parallel(ALL_APPS["FMRadio"])
        segment = interp.parallel._arena.shm.name
        interp.run(2)
        interp.close()
        drain_warm_arenas()
        if os.path.isdir("/dev/shm"):
            assert not os.path.exists(f"/dev/shm/{segment.lstrip('/')}")


class TestDoubleBuffered:
    @pytest.mark.parametrize("strategy", ("task", "data", "fine_grained"))
    def test_dag_strategies_run_barrier_free_at_proved_capacity(
        self, strategy, monkeypatch
    ):
        # Zero slack allocates exactly the certified capacity: the proofs
        # alone must make the barrier-free run safe and bit-exact.
        monkeypatch.setattr("repro.runtime.parallel.RING_SLACK_BATCHES", 0)
        for name in ("FilterBank", "FMRadio", "Beamformer"):
            builder = ALL_APPS[name]
            ref, _ = _run(builder, "batched", periods=6)
            interp, sink = _fresh_parallel(builder, strategy=strategy)
            try:
                assert interp.parallel.discipline == "double_buffered", name
                interp.run(4)
                interp.run_steady(2)
                proto = interp.parallel.protocol_report()
                out = list(sink.collected)
            finally:
                interp.close()
            # Start + finish per command only — zero per-batch step barriers.
            commands = proto["commands"]["init"] + proto["commands"]["steady"]
            assert proto["barrier_waits"] == 2 * commands, name
            assert out == ref, name

    def test_unproved_ring_keeps_dag_barriers(self, monkeypatch):
        # A ring whose capacity proof is unavailable must not run
        # barrier-free: the session keeps the per-batch "dag" barrier.
        import dataclasses

        import repro.analysis.graph as graph_analysis

        prove = graph_analysis.ring_capacity_proofs

        def unproved(program, node_wid, batch_periods, monolithic):
            return {
                e: dataclasses.replace(
                    p, proved=False, capacity=p.db_capacity + 64, db_capacity=0
                )
                for e, p in prove(program, node_wid, batch_periods, monolithic).items()
            }

        monkeypatch.setattr(graph_analysis, "ring_capacity_proofs", unproved)
        builder = ALL_APPS["FilterBank"]
        ref, _ = _run(builder, "batched", periods=6)
        interp, sink = _fresh_parallel(builder, strategy="task")
        try:
            assert interp.parallel.discipline == "dag"
            interp.run(6)
            proto = interp.parallel.protocol_report()
            out = list(sink.collected)
        finally:
            interp.close()
            clear_struct_cache()  # drop the fabricated proofs
        commands = proto["commands"]["init"] + proto["commands"]["steady"]
        assert proto["barrier_waits"] > 2 * commands  # a step barrier per batch
        assert out == ref

    def test_proofs_certify_double_buffer_capacity(self):
        interp, _ = _fresh_parallel(ALL_APPS["FilterBank"], strategy="task")
        try:
            session = interp.parallel
            assert session.ring_proofs
            for proof in session.ring_proofs.values():
                if proof.proved:
                    assert proof.batch_items > 0
                    assert proof.db_capacity == proof.capacity + proof.batch_items
        finally:
            interp.close()


class TestWarmStructures:
    def test_second_session_adopts_arena_and_struct_cache(self):
        builder = ALL_APPS["FilterBank"]
        interp, _ = _fresh_parallel(builder)
        first = interp.parallel.protocol_report()
        interp.run(2)
        interp.close()
        assert first["arena_reused"] is False
        assert first["struct_cache"] == "miss"

        app = builder()
        sink = _collect(app)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", EngineDowngradeWarning)
            interp2 = Interpreter(app, engine="parallel", strategy="softpipe", cores=2)
        try:
            second = interp2.parallel.protocol_report()
            interp2.run(2)
            out = list(sink.collected)
        finally:
            interp2.close()
            drain_warm_arenas()
        assert second["arena_reused"] is True
        assert second["struct_cache"] == "hit"
        ref, _ = _run(builder, "batched", periods=2)
        assert out == ref


def _small_pipeline():
    return Pipeline(
        ArraySource([float(i) for i in range(8)]),
        FIR([0.25, 0.5, 0.25], name="fir"),
        Gain(2.0, name="gain"),
        CollectSink(),
    )


class TestHonestCores:
    def test_single_core_auto_degrades_with_sl304(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        with pytest.warns(EngineDowngradeWarning, match=r"\[SL304\]"):
            interp = Interpreter(_small_pipeline(), check=False, engine="parallel")
        assert interp.engine_used == "codegen"  # the one single-process engine
        assert any(d.code == "SL304" for d in interp.downgrades)
        interp.close()

    def test_explicit_cores_override_wins(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        scalar, _ = _run(_small_pipeline, "scalar", periods=6, check=False)
        collected, interp = _run(
            _small_pipeline, "parallel", periods=6, check=False, cores=2
        )
        assert interp.engine_used == "parallel"
        assert collected == scalar
