"""The timed protocols: warm windows, chopped calls, paired linear arms,
fresh-process compile sweeps.

The first three run in one process, closed loop, one caller: a round visits
every app of the workload once (windows interleaved round-robin), then runs
one cold in-process job sweep, until ``--seconds`` are used.  Sinks are
drained after every window.  Every timed op goes through a
:class:`calib.Stopwatch` of its own kind (windows against the compute spin;
calls, jobs and set-up against the interpreter spin), so each sample exists
in raw and in calibrated seconds.  Nothing here opens a span: end-to-end numbers are always taken
with the recorder off.
"""

from __future__ import annotations

import gc
import json
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from calib import Stopwatch, clock
from ceilings import CEILINGS
from harness import (
    Ops,
    Oracle,
    REFERENCE_ATOL,
    REFERENCE_RTOL,
    check_output,
    clear_compile_caches,
    drain,
    engine_ok,
    make_app,
    make_oracle,
    run_job,
    sink_of,
)
from repro.runtime import Interpreter
from workloads import (
    CHOPPED_BLOCK_CALLS,
    LINEAR_ABS_BOUND,
    LINEAR_BASE_PERIODS,
    LINEAR_OPT_ITEMS,
    PROBE_CALLS,
    WINDOW_PERIODS,
)

#: Times set-up runs (the median is reported as setup_s).
SETUP_REPEATS = 3

Samples = Dict[str, Dict[str, List[float]]]


@dataclass
class Session:
    """One warm interpreter over one seeded app."""

    name: str
    label: str
    interp: Interpreter
    sink: object
    periods: int
    items_per_period: int

    def close(self) -> None:
        self.interp.close()


def open_session(
    name: str,
    builder: Callable,
    seed: int,
    oracle: Oracle,
    ops: Ops,
    periods: int,
    engine: str = "codegen",
    check: bool = True,
    **opts,
) -> Session:
    """Build, compile, initialise and check one app; leaves it warm (one
    full window has run, so buffers have grown)."""
    app = make_app(builder, seed)
    sink = sink_of(app)
    interp = Interpreter(app, check=check, engine=engine, **opts)
    interp.run_init()
    interp.run_steady(oracle.periods)
    check_output(ops, oracle, sink.collected, f"{name}/{engine}")
    drain(sink)
    interp.run_steady(periods)
    drain(sink)
    return Session(name, f"{name}/{engine}", interp, sink, periods, oracle.items_per_period)


def timed_window(
    session: Session, ops: Ops, watch: Stopwatch, expect_engine: bool = True
) -> Optional[Tuple[float, float]]:
    """One window: sink items per (calibrated, raw) second, or None when
    the op failed."""
    try:
        _, raw, cal = watch.time(session.interp.run_steady, session.periods)
    except Exception as exc:  # an op that raises is a failed op, not a crash
        ops.record(False, f"{session.label}: window raised {type(exc).__name__}: {exc}")
        return None
    items = drain(session.sink)
    ok = items == session.periods * session.items_per_period and (
        not expect_engine or engine_ok(session.name, session.interp.engine_used)
    )
    ops.record(ok, f"{session.label}: window gave {items} items on {session.interp.engine_used}")
    return (items / cal, items / raw) if ok else None


def _run_calls(run: Callable, calls: int, latencies: List[float]) -> None:
    append = latencies.append
    for _ in range(calls):
        start = clock()
        run(1)
        append(clock() - start)


def call_block(session: Session, calls: int, ops: Ops, watch: Stopwatch):
    """``calls`` x ``run_steady(1)``: calibrated per-call microseconds and
    the block's items per (calibrated, raw) second (None when it failed)."""
    latencies: List[float] = []
    try:
        _, raw, cal = watch.time(_run_calls, session.interp.run_steady, calls, latencies)
    except Exception as exc:
        ops.merge(calls, calls - len(latencies), [f"{session.label}: call raised {exc}"])
        drain(session.sink)
        return [], None
    items = drain(session.sink)
    ok = items == calls * session.items_per_period and engine_ok(
        session.name, session.interp.engine_used
    )
    ops.merge(calls, 0 if ok else calls, [] if ok else [f"{session.label}: {items} items"])
    scale = 1e6 * cal / raw
    return [v * scale for v in latencies], ((items / cal, items / raw) if ok else None)


#: A timed pass never has fewer rounds than this, whatever ``--seconds`` says.
MIN_ROUNDS = 3


def run_rounds(proto, one_round: Callable, seconds: float, fixed_rounds: Optional[int]) -> None:
    """Rounds until another (as long as the longest so far) would overrun
    ``seconds``; ``fixed_rounds`` replaces the clock (selftest)."""
    start = clock()
    longest = 0.0
    while True:
        round_start = clock()
        one_round()
        proto.rounds += 1
        now = clock()
        longest = max(longest, now - round_start)
        if fixed_rounds is not None:
            if proto.rounds >= fixed_rounds:
                return
        elif proto.rounds >= MIN_ROUNDS and now - start + longest > seconds:
            return


class InProcess:
    """Shared skeleton of the in-process protocols."""

    def __init__(self, apps: Dict[str, Callable], seed: int, transform=None) -> None:
        self.apps = apps
        self.seed = seed
        self.ops = Ops()
        #: calls, jobs and set-up are interpreter work; windows are bulk.
        self.watch = Stopwatch("interp")
        self.bulk = Stopwatch("compute")
        self.oracles: Dict[str, Oracle] = {}
        self.sessions: List[Session] = []
        #: transform applied to the built app inside every job (linear-opt).
        self.job_transform = transform
        #: calibrated samples, metric -> app -> values; raw twins beside.
        self.samples: Samples = {"items_per_s": {}, "call_us": {}}
        self.raw: Samples = {"items_per_s": {}}
        self.job_sweeps: List[float] = []
        self.raw_job_sweeps: List[float] = []
        self.rounds = 0

    # -- set-up ------------------------------------------------------------------

    def setup_app(self, name: str, builder: Callable) -> List[Session]:
        """Oracle, then build, compile, initialise, check and warm."""
        raise NotImplementedError

    def setup(self) -> Tuple[float, float]:
        """Everything between the imports and the first timed sample, from
        empty compile caches, app by app.  Repeatable; returns its (raw,
        calibrated) seconds."""
        self.close()
        clear_compile_caches()
        total_raw = total_cal = 0.0
        for name, builder in self.apps.items():
            sessions, raw, cal = self.watch.time(self.setup_app, name, builder)
            self.sessions.extend(sessions)
            total_raw += raw
            total_cal += cal
        return total_raw, total_cal

    # -- measurement -------------------------------------------------------------

    def add(self, metric: str, app: str, value: Optional[float]) -> None:
        if value is not None:
            self.samples[metric].setdefault(app, []).append(value)

    def add_window(self, metric: str, app: str, rates: Optional[Tuple[float, float]]) -> None:
        if rates is not None:
            self.samples[metric].setdefault(app, []).append(rates[0])
            self.raw.setdefault(metric, {}).setdefault(app, []).append(rates[1])

    def probe_calls(self, session: Session, calls: int = PROBE_CALLS) -> None:
        latencies, _ = call_block(session, calls, self.ops, self.watch)
        self.samples["call_us"].setdefault(session.name, []).extend(latencies)

    def job_sweep(self) -> None:
        """One cold in-process job per app (plan and codegen caches emptied)."""
        clear_compile_caches()
        total_raw = total_cal = 0.0
        for name, builder in self.apps.items():
            try:
                job, raw, cal = self.watch.time(
                    run_job, name, builder, self.seed, self.job_transform
                )
            except Exception as exc:
                self.ops.record(False, f"{name}: job raised {type(exc).__name__}: {exc}")
                continue
            self.check_job(name, job)
            total_raw += raw
            total_cal += cal
        self.job_sweeps.append(total_cal)
        self.raw_job_sweeps.append(total_raw)

    def check_job(self, name: str, job: Dict[str, object]) -> None:
        self.ops.record(
            engine_ok(name, job["engine_used"]), f"{name}: job ran on {job['engine_used']}"
        )
        self.check_job_output(name, job["output"])

    def check_job_output(self, name: str, output) -> None:
        check_output(self.ops, self.oracles[name], output, f"{name}/job")

    def one_round(self) -> None:
        raise NotImplementedError

    def measure(self, seconds: float, fixed_rounds: Optional[int] = None) -> None:
        gc.collect()
        gc.freeze()
        run_rounds(self, self.timed_round, seconds, fixed_rounds)
        gc.unfreeze()

    def timed_round(self) -> None:
        self.one_round()
        self.job_sweep()
        gc.collect()

    def close(self) -> None:
        for session in self.sessions:
            session.close()
        self.sessions = []


class Steady(InProcess):
    """``steady-kernel`` / ``steady-dispatch``: warm codegen windows, with
    the hand-written ceiling run right after each window that has one."""

    def __init__(self, apps, seed, with_ceilings: bool) -> None:
        super().__init__(apps, seed)
        self.ceilings: Dict[str, Callable] = {}
        self.with_ceilings = with_ceilings
        self.samples["ceiling_items_per_s"] = {}
        self.samples["ceiling_ratio"] = {}

    def validate_ceiling(self, name: str) -> None:
        oracle = self.oracles[name]
        ceiling = CEILINGS[name]()
        got = ceiling(oracle.data, len(oracle.output))
        ok = len(got) == len(oracle.output) and np.allclose(
            got, oracle.output, rtol=REFERENCE_RTOL, atol=REFERENCE_ATOL
        )
        self.ops.record(ok, f"{name}: ceiling differs from the scalar engine")
        if ok:
            self.ceilings[name] = ceiling

    def setup_app(self, name: str, builder: Callable) -> List[Session]:
        self.oracles[name] = make_oracle(name, builder, self.seed)
        if self.with_ceilings and name in CEILINGS:
            self.validate_ceiling(name)
        return [
            open_session(
                name, builder, self.seed, self.oracles[name], self.ops, WINDOW_PERIODS[name]
            )
        ]

    def ceiling_window(self, session: Session) -> float:
        """The hand-written program's items per calibrated second for the
        window's output volume."""
        items = session.periods * session.items_per_period
        data = self.oracles[session.name].data
        out, _raw, cal = self.bulk.time(self.ceilings[session.name], data, items)
        return len(out) / cal

    def one_round(self) -> None:
        for session in self.sessions:
            rates = timed_window(session, self.ops, self.bulk)
            self.add_window("items_per_s", session.name, rates)
            if session.name in self.ceilings:
                ceiling = self.ceiling_window(session)
                self.add("ceiling_items_per_s", session.name, ceiling)
                if rates is not None:
                    self.add("ceiling_ratio", session.name, rates[0] / ceiling)
            self.probe_calls(session)


class Chopped(InProcess):
    """``chopped-runs``: the warm session driven one period per call."""

    def setup_app(self, name: str, builder: Callable) -> List[Session]:
        self.oracles[name] = make_oracle(name, builder, self.seed)
        return [open_session(name, builder, self.seed, self.oracles[name], self.ops, 1)]

    def one_round(self) -> None:
        for session in self.sessions:
            latencies, rates = call_block(session, CHOPPED_BLOCK_CALLS, self.ops, self.watch)
            self.samples["call_us"].setdefault(session.name, []).extend(latencies)
            self.add_window("items_per_s", session.name, rates)


class Linear(InProcess):
    """``linear-opt``: ``apply_selection(build())`` against ``build()``,
    both on codegen, one window per arm per app per round.  Sessions are
    kept as baseline, optimised, baseline, optimised, ..."""

    def __init__(self, apps, seed) -> None:
        from repro.linear import apply_selection

        super().__init__(apps, seed, transform=lambda app: apply_selection(app)[0])
        self.samples["base_items_per_s"] = {}
        self.samples["linear_speedup"] = {}
        self.max_abs_err = 0.0

    def setup_app(self, name: str, builder: Callable) -> List[Session]:
        self.oracles[name] = oracle = make_oracle(name, builder, self.seed)
        base = open_session(
            name, builder, self.seed, oracle, self.ops, LINEAR_BASE_PERIODS[name]
        )
        app = self.job_transform(make_app(builder, self.seed))
        sink = sink_of(app)
        interp = Interpreter(app, check=True, engine="codegen")
        interp.run_init()
        init_items = len(sink.collected)
        interp.run_steady(1)
        per_period = len(sink.collected) - init_items
        interp.run_steady(-(-len(oracle.output) // per_period))
        self.check_optimised(name, sink.collected)
        drain(sink)
        # A FrequencyFilter period covers many base periods, so the arm is
        # sized in sink items and converted through the graph's own rates.
        periods = max(1, round(LINEAR_OPT_ITEMS[name] / per_period))
        interp.run_steady(periods)
        drain(sink)
        return [base, Session(name, f"{name}/optimised", interp, sink, periods, per_period)]

    def check_optimised(self, name: str, got) -> None:
        """The optimised graph reassociates sums, so it is held to the
        baseline within a stated absolute bound, not bit for bit."""
        oracle = self.oracles[name]
        got = np.asarray(got, dtype=np.float64)
        n = min(len(got), len(oracle.output))
        err = float(np.max(np.abs(got[:n] - oracle.output[:n]))) if n else float("inf")
        self.max_abs_err = max(self.max_abs_err, err)
        self.ops.record(err <= LINEAR_ABS_BOUND, f"{name}/optimised: max abs err {err:.3g}")

    def check_job_output(self, name: str, output) -> None:
        self.check_optimised(name, output)

    def one_round(self) -> None:
        for base, optimised in zip(self.sessions[::2], self.sessions[1::2]):
            base_rates = timed_window(base, self.ops, self.bulk)
            rates = timed_window(optimised, self.ops, self.bulk)
            self.add_window("base_items_per_s", base.name, base_rates)
            self.add_window("items_per_s", optimised.name, rates)
            if base_rates is not None and rates is not None:
                self.add("linear_speedup", base.name, rates[0] / base_rates[0])
            self.probe_calls(optimised)


class Compile:
    """``compile-cold`` / ``compile-warm``: one fresh Python process per
    sweep (``job.py``), every app from ``Pipeline(...)`` to first output.
    The job process calibrates its own imports and each app's job."""

    def __init__(self, workload: str, apps, seed: int, work_dir: str, warm: bool) -> None:
        self.workload = workload
        self.apps = apps
        self.seed = seed
        self.work_dir = work_dir
        self.warm = warm
        self.ops = Ops()
        self.watch = Stopwatch("interp")
        self.oracles: Dict[str, Oracle] = {}
        self.cache_dir: Optional[str] = None
        self.samples: Samples = {"items_per_s": {}, "call_us": {}}
        self.raw: Samples = {"items_per_s": {}}
        self.job_sweeps: List[float] = []
        self.raw_job_sweeps: List[float] = []
        #: calibrated seconds of the apps' jobs alone, imports left out (the
        #: base the traced run's stage spans are held against).
        self.app_job_sums: List[float] = []
        self.import_s: List[float] = []
        self.maxrss_mb: List[float] = []
        self.disk_lookups = [0, 0]  # hits, misses over the timed sweeps
        self.plan_lookups = [0, 0]
        self.rounds = 0
        self._sweep_id = 0

    def setup(self) -> Tuple[float, float]:
        total_raw = total_cal = 0.0
        for name, builder in self.apps.items():
            self.oracles[name], raw, cal = self.watch.time(
                make_oracle, name, builder, self.seed
            )
            total_raw += raw
            total_cal += cal
        if self.warm:
            self.close()
            self.cache_dir = tempfile.mkdtemp(prefix="codegen-warm-", dir=self.work_dir)
            populated = self.sweep(record=False)
            if populated is not None:
                total_raw += populated["raw_total_s"]
                total_cal += populated["total_s"]
        return total_raw, total_cal

    def spawn(self, cache_dir: str, staged: bool = False) -> Optional[dict]:
        """Run ``job.py`` once; its parsed result, or None if it failed."""
        self._sweep_id += 1
        out = os.path.join(self.work_dir, f"sweep-{self._sweep_id}.json")
        env = dict(os.environ, REPRO_CODEGEN_CACHE=cache_dir)
        cmd = [
            sys.executable,
            os.path.join(os.path.dirname(os.path.abspath(__file__)), "job.py"),
            "--workload", self.workload,
            "--seed", str(self.seed),
            "--staged", str(int(staged)),
            "--tag", str(self._sweep_id),
            "--out", out,
        ]
        try:
            done = subprocess.run(cmd, env=env, timeout=150)
        except subprocess.TimeoutExpired:
            self.ops.record(False, "sweep timed out")
            return None
        if done.returncode != 0:
            self.ops.record(False, f"sweep exited with {done.returncode}")
            return None
        with open(out) as fh:
            result = json.load(fh)
        os.unlink(out)
        return result

    def sweep(self, record: bool = True, staged: bool = False) -> Optional[dict]:
        """One sweep over every app, checked; cold sweeps get (and lose) an
        empty cache directory of their own."""
        cache_dir = self.cache_dir
        if not self.warm:
            cache_dir = tempfile.mkdtemp(prefix="codegen-cold-", dir=self.work_dir)
        result = self.spawn(cache_dir, staged)
        if not self.warm:
            shutil.rmtree(cache_dir, ignore_errors=True)
        if result is None:
            return None
        for job in result["jobs"]:
            name = job["app"]
            self.ops.record(
                engine_ok(name, job["engine_used"]),
                f"{name}: job ran on {job['engine_used']}",
            )
            check_output(self.ops, self.oracles[name], job["output"], f"{name}/job")
        if record and not staged:
            self.job_sweeps.append(result["total_s"])
            self.raw_job_sweeps.append(result["raw_total_s"])
            self.app_job_sums.append(
                sum(job["job_s"] * job["scale"] for job in result["jobs"])
            )
            self.import_s.append(result["import_s"])
            self.maxrss_mb.append(result["maxrss_kb"] / 1024.0)
            cache = result["codegen_cache"]
            self.disk_lookups[0] += cache["disk_hits"]
            self.disk_lookups[1] += cache["disk_misses"]
            self.plan_lookups[0] += result["plan_cache"]["hits"]
            self.plan_lookups[1] += result["plan_cache"]["misses"]
            for job in result["jobs"]:
                name = job["app"]
                scale = job["scale"]
                self.samples["items_per_s"].setdefault(name, []).append(
                    job["items"] / (job["job_s"] * scale)
                )
                self.raw["items_per_s"].setdefault(name, []).append(
                    job["items"] / job["job_s"]
                )
                self.samples["call_us"].setdefault(name, []).extend(
                    1e6 * scale * v for v in job["probe_calls_s"]
                )
        return result

    def measure(self, seconds: float, fixed_rounds: Optional[int] = None) -> None:
        run_rounds(self, self.sweep, seconds, fixed_rounds)

    def close(self) -> None:
        if self.cache_dir is not None:
            shutil.rmtree(self.cache_dir, ignore_errors=True)
            self.cache_dir = None
