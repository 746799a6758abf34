"""The compiled engine's contract: one block walk, the feedback core as
generated code, same outputs.

``engine="codegen"`` (``"batched"`` names the same engine) must be
bit-exact against the scalar interpreter on every application (the core's
module rewrites the same work() bodies the scalar engine runs, or calls
them, so there is no tolerance to hide behind) and must report how each
block runs through ``engine_report()``.
The core's module is emitted for the core that runs it and stored nowhere;
the cache directory keeps only the rate reports, written by every session
whatever its graph and read back by the next "process" (simulated here by
clearing the in-memory memo).
"""

import ast
import gc
import hashlib
import json
import marshal
import os
import subprocess
import sys
import warnings
from pathlib import Path
from types import FunctionType, ModuleType
from typing import Set

import pytest

from repro.analysis import analyze_filter
from repro.analysis import executor as executor_mod
from repro.analysis import rates as rates_mod
from repro.apps import ALL_APPS
from repro.diskcache import cache_dir
from repro.obs import METRICS
from repro.errors import EngineDowngradeWarning, StreamItError
from repro.graph import ArraySource, CollectSink, Filter, Pipeline, SplitJoin, duplicate
from repro.graph.splitjoin import combine
from repro.runtime import (
    ExecutionPlan,
    Interpreter,
    clear_codegen_cache,
    codegen_cache_stats,
)
from repro.runtime import codegen as codegen_mod
from repro.runtime.array_channel import ArrayChannel
from repro.runtime.plan import clear_plan_cache, plan_cache_summary
from repro.apps.common import FIRFilter
from tests.helpers import (
    FIR,
    Accumulator,
    Fold,
    Gain,
    Guarded,
    Peek3,
    Permuted,
    cores_of,
    feedback_app,
    run_calls,
)


@pytest.fixture(autouse=True)
def _isolated_codegen_cache(tmp_path, monkeypatch):
    """Every test gets its own empty disk cache and zeroed counters."""
    monkeypatch.setenv("REPRO_CODEGEN_CACHE", str(tmp_path / "cgc"))
    clear_codegen_cache()
    yield
    clear_codegen_cache()


def _run(builder, engine: str, periods: int):
    app = builder()
    sink = next(f for f in app.filters() if isinstance(f, CollectSink))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EngineDowngradeWarning)
        interp = Interpreter(app, check=False, engine=engine)
        interp.run(periods)
    return list(sink.collected), interp


# -- bit-exactness sweep -----------------------------------------------------


@pytest.mark.parametrize("app_name", sorted(ALL_APPS), ids=str)
def test_codegen_matches_scalar_exactly(app_name):
    builder = ALL_APPS[app_name]
    scalar, _ = _run(builder, "scalar", 3)
    generated, interp = _run(builder, "codegen", 3)
    assert len(scalar) > 0
    assert generated == scalar  # bit-for-bit, not approximately
    assert interp.engine_used == "codegen"  # teleport messaging included
    assert type(interp.plan) is ExecutionPlan
    assert interp.downgrades == []


@pytest.mark.parametrize("app_name", ["FIR", "FilterBank", "Oversampler", "DToA"])
def test_fired_counts_match_scalar(app_name):
    _, scalar = _run(ALL_APPS[app_name], "scalar", 4)
    _, generated = _run(ALL_APPS[app_name], "codegen", 4)
    scalar_counts = sorted((node.name, n) for node, n in scalar.fired.items())
    codegen_counts = sorted((node.name, n) for node, n in generated.fired.items())
    assert codegen_counts == scalar_counts


def _core(interp):
    (core,) = cores_of(interp)
    return core


def test_dtoa_core_is_inlined():
    """The tentpole case: DToA's feedback core lowers to the closed loop
    with every body inlined; every other block is walked."""
    _, interp = _run(ALL_APPS["DToA"], "codegen", 5)
    core = _core(interp)
    assert core.lowering["mode"] == "inline" and core.lowering["called"] == {}
    assert interp.downgrades == []
    modes = {row["kind"]: row["mode"] for row in interp.engine_report()["codegen"]["blocks"]}
    assert modes == {"phase": "walk", "core": "inline"}


def test_core_round_is_emitted_once_however_often_it_repeats():
    """A loop fed many items a period repeats one short round; the emitter
    loops over it instead of inlining every copy (the inlined form made the
    job of a frequency-translated DToA 6x slower to compile)."""
    from repro.apps import dtoa
    from repro.linear import apply_selection
    from repro.runtime.codegen_emit import _repeating_unit

    assert _repeating_unit(list("abab")) == (list("ab"), 2)
    assert _repeating_unit(list("aaaa")) == (["a"], 4)
    assert _repeating_unit(list("abac")) == (list("abac"), 1)
    assert _repeating_unit(list("aba")) == (list("aba"), 1)

    scalar, _ = _run(lambda: apply_selection(dtoa.build())[0], "scalar", 3)
    generated, interp = _run(lambda: apply_selection(dtoa.build())[0], "codegen", 3)
    # LinearFilter / FrequencyFilter batch kernels are allclose, not bit-exact.
    assert len(generated) == len(scalar) > 0
    assert max(abs(a - b) for a, b in zip(generated, scalar)) < 1e-12
    (core,) = [b for b in interp.plan.blocks if b.kind == "core"]
    rounds = len(core.phases) // 4
    assert rounds >= 32  # the up+interp FrequencyFilter pushes a block a period
    source = core.source
    assert f"for _ in range({rounds}):" in source
    assert source.count(".leak") == 1  # ErrorShaper's body, once


# -- the inlined core: tapes in locals, tapes on lists ---------------------------


def _core_row(interp) -> dict:
    (row,) = [b for b in interp.engine_report()["codegen"]["blocks"] if b["kind"] == "core"]
    return row


def _core_source(interp) -> str:
    source = _core(interp).source
    return source[source.index("_core.begin()") : source.index("_core.end(")]


def _assert_chopping_invariant(builder, total=9, chunk_periods=None):
    """scalar ≡ codegen at run(N), run(1)×N and run(a); run(N−a), every
    pass at most ``chunk_periods`` periods when given (so a window of N
    passes over each storage slot more than once)."""
    scalar, _ = run_calls(builder, "scalar", (total,))
    assert len(scalar) > 0
    for calls in ((total,), (1,) * total, (4, total - 4)):
        got, interp = run_calls(builder, "codegen", calls, chunk_periods=chunk_periods)
        for core in cores_of(interp):
            assert core.lowering["mode"] == "inline"
        assert got == scalar, calls
    return interp


@pytest.mark.parametrize("app_name", sorted(ALL_APPS), ids=str)
def test_shared_tape_storage_is_bit_exact_across_passes(app_name):
    """Passes of two periods over a seven-period window: every transit
    edge's slot is written again at each pass, and a walked block's views
    die with its step, so the outputs stay the scalar engine's."""
    interp = _assert_chopping_invariant(ALL_APPS[app_name], total=7, chunk_periods=2)
    assert interp.engine_report()["codegen"]["storage"]["slots"] == 0  # closed


def test_des_window_keeps_its_transit_edges_on_few_slots():
    """CI's guard against a return to per-edge or per-chain buffers: after
    DES's 1 200-period window all 452 of its edges, those of its
    splitjoins' members included, are transit edges on 11 slots of at most
    4 MiB (per-edge buffers held 44 MiB) with no private buffer left; after BitonicSort's 1 200-period window its 43 transit
    edges share 5 slots; and after FFT's 4 800-period window the 13 edges
    of its one 14-stage chain share 2 slots with no private buffer left."""
    interp = Interpreter(ALL_APPS["DES"](), check=False, engine="codegen")
    interp.run_init()
    interp.run_steady(1200)
    storage = interp.engine_report()["codegen"]["storage"]
    assert storage["transit_edges"] == 452
    assert storage["slots"] == 11
    assert storage["slot_bytes"] <= 4 * 2**20
    assert storage["private_bytes"] == 0
    interp.close()
    assert interp.engine_report()["codegen"]["storage"]["slots"] == 0
    for app, periods, row in (
        ("BitonicSort", 1200, (43, 5, 1835008, 9216)),
        ("FFT", 4800, (13, 2, 2**20, 0)),
    ):
        interp = Interpreter(ALL_APPS[app](), check=False, engine="codegen")
        interp.run_init()
        interp.run_steady(periods)
        storage = interp.engine_report()["codegen"]["storage"]
        assert storage == dict(
            zip(("transit_edges", "slots", "slot_bytes", "private_bytes"), row)
        ), app
        interp.close()


def _reachable_tapes(root) -> Set[int]:
    """The ids of every :class:`ArrayChannel` reachable from ``root``
    through ``gc.get_referents``; a function is followed into its closure
    and defaults only, and classes and modules are not entered."""
    seen, stack, found = set(), [root], set()
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, ModuleType)):
            continue
        seen.add(id(obj))
        if isinstance(obj, ArrayChannel):
            found.add(id(obj))
        if isinstance(obj, FunctionType):
            stack.extend(obj.__closure__ or ())
            stack.extend(obj.__defaults__ or ())
        else:
            stack.extend(gc.get_referents(obj))
    return found


@pytest.mark.parametrize("app_name", sorted(ALL_APPS), ids=str)
def test_the_plan_holds_no_tape_of_its_own(app_name):
    """After a multi-period window every tape the plan can reach is one of
    the graph's channels: no block keeps a private tape outside
    ``storage_report`` and ``close()``."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EngineDowngradeWarning)
        interp = Interpreter(ALL_APPS[app_name](), check=False, engine="codegen")
    interp.run_init()
    interp.run_steady(50)
    assert _reachable_tapes(interp.plan) == {id(c) for c in interp.channels.values()}
    interp.close()


def test_raising_chunk_periods_moves_tapes_off_their_slots():
    """A pass that outgrows the slots (the cap raised after they were
    sized) moves each tape it outgrows to a private buffer, bit-exact."""
    builder = ALL_APPS["DES"]
    scalar, _ = run_calls(builder, "scalar", (5 + 12,))
    app = builder()
    sink = next(f for f in app.filters() if isinstance(f, CollectSink))
    interp = Interpreter(app, check=False, engine="codegen")
    interp.plan.chunk_periods = 2
    interp.run_init()
    interp.run_steady(5)
    before = interp.engine_report()["codegen"]["storage"]
    assert before["slots"] >= 2 and before["transit_edges"] >= 100
    interp.plan.chunk_periods = 6
    interp.run_steady(12)
    after = interp.engine_report()["codegen"]["storage"]
    assert after["transit_edges"] < before["transit_edges"]
    assert after["private_bytes"] > before["private_bytes"]
    assert list(sink.collected) == scalar
    interp.close()


def test_dtoa_core_keeps_its_tapes_in_locals():
    interp = _assert_chopping_invariant(ALL_APPS["DToA"], total=12)
    row = _core_row(interp)
    assert row["mode"] == "inline"
    assert sorted(row["forwarded"]) == sorted(
        [
            "noise_shaper.join->shape",
            "shape->noise_shaper.split",
            "noise_shaper.split->loopgain",
            "loopgain->noise_shaper.join",
        ]
    )
    assert row["taped"] == {
        "interp->noise_shaper.join": "external input",
        "noise_shaper.split->smooth": "external output",
    }
    assert row["hoisted"] == ["loopgain.factor", "shape.leak"]
    core = _core_source(interp)
    assert ".append(" not in core and ".extend(" not in core  # no internal list traffic
    assert core.count(".append") == 1  # the output tape's append, bound once above the loop
    assert ".leak" not in core.split("for _ in range(scale):")[1]

    # Each session emits its own module: a second one reports the same.
    _, again = _run(ALL_APPS["DToA"], "codegen", 2)
    assert _core_row(again) == row


def _mix(items):
    return items[0] - 0.25 * items[1]


class Leveled(Filter):
    """Reads its state back through a property the loop must not hoist."""

    def __init__(self) -> None:
        super().__init__(pop=1, push=1)
        self.decay = 0.5
        self._level = 0.0

    def init(self) -> None:
        self._level = 0.0

    @property
    def level(self) -> float:
        return self._level

    def work(self) -> None:
        self._level = self._level * self.decay + self.pop()
        self.push(self.level)


DATA = [0.5, -1.25, 2.0, 0.75, -0.5]


def _select_arms(source: str):
    """``(body names, orelse names)`` bound by each ``if`` in ``source``."""

    def bound(body):
        return {t.id for st in body if isinstance(st, ast.Assign) for t in st.targets}

    return [
        (bound(node.body), bound(node.orelse))
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.If)
    ]


def test_conditional_pushes_and_loop_peeks_are_forwarded():
    """An ``if`` whose arms push as many items binds the same local in
    both (the select form); a ``for`` whose trip the unit fixes is unrolled,
    its peeks at literal positions and the coefficients its trip count read
    folded in under the guard.  Neither sends a tape to a list."""

    def folded():
        return feedback_app(DATA, loopback=[Fold(0.1)])

    interp = _assert_chopping_invariant(folded)
    row = _core_row(interp)
    assert set(row["taped"].values()) == {"external input", "external output"}
    assert [name for name in row["forwarded"] if "->Fold_" in name]
    ((body, orelse),) = _select_arms(_core(interp).source)
    assert len(body) == 1 and body == orelse  # each arm binds the one pushed item

    def looped():
        return feedback_app(DATA, loopback=[FIR([0.3, -0.2, 0.1])], delay=3)

    interp = _assert_chopping_invariant(looped)
    row = _core_row(interp)
    assert set(row["taped"].values()) == {"external input", "external output"}
    assert [name for name in row["forwarded"] if "->FIR_" in name]
    (coeffs,) = row["folded"]
    assert coeffs.startswith("FIR_") and coeffs.endswith(".coeffs")
    loop = _core_source(interp).split("for _ in range(scale):")[1]
    assert "for " not in loop and ".coeffs" not in loop
    assert "* 0.3" in loop and "* -0.2" in loop and "* 0.1" in loop


class Staggered(Filter):
    """Pushes one item in each of two conditionals whose arms push
    different counts: two pushes a firing, but no one arm's worth."""

    def __init__(self) -> None:
        super().__init__(pop=1, push=2)

    def work(self) -> None:
        x = self.pop()
        if x > 0.0:
            self.push(x)
            self.push(0.0)
        else:
            self.push(0.0)
        if x <= 0.0:
            self.push(x)


def test_arms_that_push_different_counts_stay_on_a_list():
    def build():
        return Pipeline(ArraySource(DATA), Staggered(), Gain(0.5), CollectSink())

    scalar, _ = run_calls(build, "scalar", (6,))
    for calls in ((1,) * 6, (2, 4)):
        app = build()
        sink = next(f for f in app.filters() if isinstance(f, CollectSink))
        interp = Interpreter(app, check=False, engine="codegen")
        interp.run_init()
        interp.plan.small.force(2)
        for periods in calls:
            interp.run_steady(periods)
        assert list(sink.collected) == scalar
        taped = interp.plan.small.form.lowering["taped"]
        (name,) = taped
        assert name.startswith("Staggered_")
        assert taped[name] == "its arms of a conditional pop or push different counts"
        interp.close()


def test_long_delay_line_stays_on_a_list():
    """Carried locals are re-bound every unit, so past a few items the
    cursor of a list is cheaper (codegen_emit._CARRY_MAX)."""

    def build():
        return feedback_app(DATA, delay=6)

    row = _core_row(_assert_chopping_invariant(build))
    (why,) = [w for w in row["taped"].values() if not w.startswith("external")]
    assert why == "holds 6 items between periods"
    assert len(row["forwarded"]) == 3


def _rebound_run(build, engine, calls, at, rebind):
    """``calls`` on a fresh ``build()``, ``rebind(app)`` after the first
    ``at`` of them: the output and the interpreter."""
    app = build()
    sink = next(f for f in app.filters() if isinstance(f, CollectSink))
    interp = Interpreter(app, check=False, engine=engine)
    interp.run_init()
    for i, periods in enumerate(calls):
        if i == at:
            rebind(app)
        interp.run_steady(periods)
    interp.close()
    return list(sink.collected), interp


def test_a_rebound_folded_attribute_lowers_the_core_again():
    """The core folded a permutation into its peek positions.  A new tuple
    bound between two calls fails the module's identity guard, and the core
    lowers again from the live value before it runs the call: bit-exact
    against a scalar session given the same rebinding."""

    def build():
        return feedback_app(DATA, loopback=[Permuted([2, 0, 1], [0.3, -0.2, 0.1])], delay=3)

    def rebind(app):
        (filt,) = [f for f in app.filters() if isinstance(f, Permuted)]
        filt.perm = (1, 2, 0)

    calls = (2, 2, 3, 2)  # walked: a two-period call never runs the small-call form
    scalar, _ = _rebound_run(build, "scalar", calls, 2, rebind)
    got, interp = _rebound_run(build, "codegen", calls, 2, rebind)
    assert got == scalar
    (core,) = cores_of(interp)
    (folded,) = core.lowering["folded"]
    assert folded.endswith(".perm") and "if not _fresh():" in core.source
    _, unbound = _rebound_run(build, "codegen", calls, len(calls), rebind)
    (first,) = cores_of(unbound)
    assert first.source != core.source  # the peeks read the window in a new order


def test_dtoa_rebinding_between_calls_is_bit_exact():
    """DToA's core reads its gain and leak once a call (hoisted, never
    folded: they decide no structure), and the walk reads a FIR's
    coefficients at every call, so new values bound between calls take
    effect at the next one on both."""

    def rebind(app):
        for filt in app.filters():
            if filt.name == "loopgain":
                filt.factor = 0.75
            elif filt.name == "shape":
                filt.leak = 0.375
            elif isinstance(filt, FIRFilter):
                filt.coeffs = tuple(reversed(filt.coeffs))

    build = ALL_APPS["DToA"]
    calls = (1, 3, 1, 1, 4, 1)
    scalar, _ = _rebound_run(build, "scalar", calls, 3, rebind)
    got, interp = _rebound_run(build, "codegen", calls, 3, rebind)
    assert got == scalar
    (core,) = cores_of(interp)
    assert core.lowering["folded"] == [] and "if not _fresh():" not in core.source


def test_literal_peeks_read_carried_locals():
    def build():
        return feedback_app(DATA, loopback=[Peek3(0.2, -0.3, 0.4)], delay=3)

    interp = _assert_chopping_invariant(build)
    row = _core_row(interp)
    (into_peek,) = [name for name in row["forwarded"] if "->Peek3_" in name]
    assert set(row["taped"].values()) == {"external input", "external output"}
    core = _core(interp)
    held = [
        core.held(e) for e in core.internal if f"{e.src.name}->{e.dst.name}" in row["forwarded"]
    ]
    # delay 3 = the filter's two-item peek residue + one item on the way in.
    assert sorted(held) == [0, 0, 1, 2]
    source = _core_source(interp)
    assert ".append(" not in source
    assert source.count("[:] = [") == 2  # both carrying tapes are stored back


def test_stored_attributes_and_properties_are_not_hoisted():
    def build():
        return feedback_app(DATA, body=[Accumulator()], loopback=[Leveled(), Gain(0.9)])

    interp = _assert_chopping_invariant(build)
    hoisted = _core_row(interp)["hoisted"]
    assert [name.split(".")[1] for name in hoisted] == ["k", "decay", "leak"]
    loop = _core_source(interp).split("for _ in range(scale):")[1]
    assert ".total" in loop and "._level" in loop and ".level" in loop
    assert ".decay" not in loop and ".leak" not in loop


def test_reducer_and_repeated_round():
    def build():
        lanes = SplitJoin(duplicate(), [Gain(0.7), Accumulator()], combine(_mix))
        return feedback_app(DATA, loopback=[lanes], rounds=9)

    interp = _assert_chopping_invariant(build)
    row = _core_row(interp)
    assert set(row["taped"].values()) == {"external input", "external output"}
    source = _core_source(interp)
    assert "for _ in range(9):" in source  # one round, looped
    assert source.count("_rd") == 1 and source.count(".total") == 2  # emitted once


# -- generated-module introspection ------------------------------------------


def test_generated_source_is_real_compilable_python():
    _, interp = _run(ALL_APPS["DToA"], "codegen", 2)
    source = _core(interp).source
    assert source and "def run_chunk(scale):" in source
    module = {}
    exec(compile(source, "<check>", "exec"), module)  # valid standalone source
    # The text carries the loop alone: what it names comes with the emitter.
    assert [name for name in module if not name.startswith("__")] == ["run_chunk"]


def test_engine_report_carries_codegen_section():
    _, interp = _run(ALL_APPS["FMRadio"], "codegen", 2)
    report = interp.engine_report()
    assert report["used"] == "codegen"
    section = report["codegen"]
    assert [(row["kind"], row["name"]) for row in section["blocks"]] == [
        (b.kind, b.name) for b in interp.plan.blocks
    ]
    assert {row["mode"] for row in section["blocks"]} == {"walk"}  # no core here
    assert section["cache"]["disk_dir"] == str(cache_dir())
    assert set(section["cache"]) == {"disk_hits", "disk_misses", "disk_evictions", "disk_dir"}
    assert "plan_cache" in report and "size" in report["plan_cache"]
    _, dtoa = _run(ALL_APPS["DToA"], "codegen", 2)
    assert set(_core_row(dtoa)) == {
        "kind", "name", "mode", "forwarded", "taped", "hoisted", "folded", "called"
    }


# -- the one store: rate reports ----------------------------------------------


def test_a_core_session_stores_rate_reports_only():
    """A DToA compiled session started in an empty cache directory leaves
    only ``.rates`` entries, and a second session in the same process emits
    the same module text again."""
    assert not cache_dir().exists()
    scalar, _ = _run(ALL_APPS["DToA"], "scalar", 3)
    _new_process()
    sources = []
    for _ in range(2):
        out, _, interp = _run_checked(ALL_APPS["DToA"])
        assert out == scalar
        sources.append(_core(interp).source)
    assert sources[0] == sources[1] and "def run_chunk(scale):" in sources[0]
    stored = sorted(cache_dir().iterdir())
    assert stored and stored == _entries(".rates")


def _run_checked(builder, periods: int = 3):
    """A ``check=True`` codegen run (rate analysis included): output and
    every filter's diagnostics."""
    app = builder()
    sink = next(f for f in app.filters() if isinstance(f, CollectSink))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EngineDowngradeWarning)
        with Interpreter(app, check=True, engine="codegen") as interp:
            interp.run(periods)
    diagnostics = [d.format() for f in app.filters() for d in analyze_filter(f).diagnostics]
    return list(sink.collected), diagnostics, interp


def _drop_last_lines(raw: bytes) -> bytes:
    return b"".join(raw.splitlines(keepends=True)[:-3])


def _flip_one_byte(raw: bytes) -> bytes:
    at = len(raw) // 2
    return raw[:at] + bytes([raw[at] ^ 0x01]) + raw[at + 1 :]


def _drop_digest_line(raw: bytes) -> bytes:  # what a pre-digest writer left
    return raw.partition(b"\n")[2]


def _digest_of_another_entry(raw: bytes) -> bytes:
    """A valid digest line, of another entry's body."""
    other = next(p.read_bytes() for p in _entries(".rates") if p.read_bytes() != raw)
    return other.partition(b"\n")[0] + b"\n" + raw.partition(b"\n")[2]


def _small_loop():
    """A feedback app other than DToA: a second core."""
    return feedback_app(DATA)


def _new_process() -> None:
    """What a second process starts with: no report in memory."""
    clear_codegen_cache()
    rates_mod.MEMO.clear()


def _entries(suffix: str):
    return sorted(cache_dir().glob(f"*{suffix}"))


def _wrong_python(raw: bytes) -> bytes:
    """A rate entry that verifies but was written by another Python."""
    _version, stem, entries = marshal.loads(raw.partition(b"\n")[2])
    body = marshal.dumps(((2, 7), stem, entries))
    header = b"# repro-rates sha256=" + hashlib.sha256(body).hexdigest().encode()
    return header + b"\n" + body


@pytest.mark.parametrize(
    "damage",
    [_drop_last_lines, _flip_one_byte, _drop_digest_line, _wrong_python, _digest_of_another_entry],
)
def test_rate_entry_that_does_not_verify_is_a_miss(damage):
    builder = ALL_APPS["FIR"]  # no core, no module: the session writes the reports
    _new_process()
    cold, cold_diagnostics, _ = _run_checked(builder)
    entries = _entries(".rates")
    assert len(entries) > 1 and codegen_cache_stats["disk_misses"] == len(entries)
    entries[0].write_bytes(damage(entries[0].read_bytes()))

    _new_process()
    out, diagnostics, _ = _run_checked(builder)
    assert codegen_cache_stats["disk_misses"] == 1
    assert codegen_cache_stats["disk_hits"] == len(entries) - 1
    assert (out, diagnostics) == (cold, cold_diagnostics)

    _new_process()  # the miss rewrote the entry
    assert _run_checked(builder)[:2] == (cold, cold_diagnostics)
    assert codegen_cache_stats["disk_hits"] == len(entries)
    assert codegen_cache_stats["disk_misses"] == 0


def test_a_session_without_a_core_writes_the_rate_reports(monkeypatch):
    """The reports are written by a session's first steady call whatever
    its graph: FIR lowers nothing, and a second process still reads every
    report back instead of running the executor."""
    _new_process()
    cold = _run_checked(ALL_APPS["FIR"])[:2]
    stored = _entries(".rates")
    assert stored
    ran = []
    real_run = executor_mod.RateAnalyzer.run
    monkeypatch.setattr(
        executor_mod.RateAnalyzer, "run", lambda self: ran.append(1) or real_run(self)
    )
    _new_process()
    assert _run_checked(ALL_APPS["FIR"])[:2] == cold
    assert ran == []
    assert codegen_cache_stats["disk_hits"] == len(stored)
    assert codegen_cache_stats["disk_misses"] == 0


class PushOnce(Filter):
    def __init__(self):
        super().__init__(pop=1, push=1)

    def work(self):
        self.push(self.pop())


def _push_twice(self):
    x = self.pop()
    self.push(x)
    self.push(x)


def test_work_assigned_at_run_time_is_not_read_from_the_store(monkeypatch):
    app = Pipeline(ArraySource([1.0, 2.0]), PushOnce(), CollectSink())
    Interpreter(app, check=True, engine="codegen").run(1)
    assert _entries(".rates")  # PushOnce's report is stored...
    _new_process()
    monkeypatch.setattr(PushOnce, "work", _push_twice)
    # ...and another process whose PushOnce.work is not the source's own
    # does not read it.
    assert rates_mod.analyze_rates(PushOnce()).push.lo == 2


_GAIN_CFG = "TAPS = 2\nGAIN = 2.0\n"

_GAIN_FILTER = """
import gain_cfg
from repro.graph import Filter


class Gain(Filter):
    def __init__(self):
        super().__init__(pop=2, push=1)

    def work(self):
        total = 0.0
        for _ in range(gain_cfg.TAPS):
            total += self.pop()
        self.push(total * gain_cfg.GAIN)
"""


@pytest.fixture
def gain_modules(tmp_path, monkeypatch):
    """``gain_filter.Gain`` reads ``gain_cfg.TAPS`` and ``gain_cfg.GAIN``
    through the module: both files are real, so Gain's reports are stored,
    and only gain_filter.py is part of their key."""
    (tmp_path / "gain_cfg.py").write_text(_GAIN_CFG)
    (tmp_path / "gain_filter.py").write_text(_GAIN_FILTER)
    monkeypatch.syspath_prepend(str(tmp_path))
    import gain_cfg
    import gain_filter

    yield gain_cfg, gain_filter
    for name in ("gain_cfg", "gain_filter"):
        sys.modules.pop(name, None)


def test_reads_through_a_module_are_part_of_the_stored_key(gain_modules, monkeypatch):
    cfg, mod = gain_modules
    ran = []
    real_run = executor_mod.RateAnalyzer.run
    monkeypatch.setattr(
        executor_mod.RateAnalyzer, "run", lambda self: ran.append(1) or real_run(self)
    )

    def coeffs():
        return [dict(row.coeffs) for row in rates_mod.affine_rows(mod.Gain()).rows]

    _new_process()
    assert coeffs() == [{0: 2.0, 1: 2.0}]
    app = Pipeline(ArraySource([1.0, 2.0]), mod.Gain(), CollectSink())
    Interpreter(app, check=True, engine="codegen").run(1)  # stores both reports

    cfg.GAIN = 3.0  # gain_cfg.py edited: gain_filter.py, the key, is not
    _new_process()
    ran.clear()
    assert coeffs() == [{0: 3.0, 1: 3.0}]
    assert rates_mod.analyze_rates(mod.Gain()).pop.lo == 2
    assert len(ran) == 2 and codegen_cache_stats["disk_misses"] == 2

    cfg.TAPS = 3  # in-process: the memo's key moves too
    assert rates_mod.analyze_rates(mod.Gain()).pop.lo == 3
    assert len(ran) == 3

    cfg.GAIN, cfg.TAPS = 2.0, 2  # back to what the store holds
    _new_process()
    ran.clear()
    assert coeffs() == [{0: 2.0, 1: 2.0}]
    assert ran == [] and codegen_cache_stats["disk_hits"] == 1


def test_warm_run_hits_every_level_and_the_registry_sees_it():
    builder = ALL_APPS["DToA"]
    _new_process()
    *cold, cold_interp = _run_checked(builder)
    _new_process()
    before = _cache_events("disk", "hits")
    *warm, warm_interp = _run_checked(builder)
    assert warm == cold
    assert _core(warm_interp).source == _core(cold_interp).source
    stats = dict(codegen_cache_stats)
    assert stats["disk_hits"] == len(_entries(".rates")) > 0
    assert stats["disk_misses"] == stats["disk_evictions"] == 0
    assert _cache_events("disk", "hits") - before == stats["disk_hits"]


def _cache_events(level: str, event: str) -> float:
    family = METRICS.snapshot().get("repro_codegen_cache_total", {"samples": []})
    labels = {"level": level, "event": event}
    return sum(s["value"] for s in family["samples"] if s["labels"] == labels)


def test_clear_disk_removes_every_entry_kind():
    _new_process()
    _run_checked(ALL_APPS["DToA"])
    assert _entries(".rates")
    (cache_dir() / "lost.rates.tmp4242").write_bytes(b"half an entry")  # a killed writer
    clear_codegen_cache(disk=True)
    assert list(cache_dir().iterdir()) == []


def test_clear_disk_goes_on_past_an_entry_it_cannot_delete(monkeypatch):
    _new_process()
    _run_checked(ALL_APPS["FIR"])
    entries = _entries(".rates")
    assert len(entries) > 1
    refused = []
    real_unlink = Path.unlink

    def unlink(path, *args, **kwargs):
        if not refused:
            refused.append(path)
            raise PermissionError(f"cannot delete {path}")
        return real_unlink(path, *args, **kwargs)

    monkeypatch.setattr(Path, "unlink", unlink)
    clear_codegen_cache(disk=True)
    assert list(cache_dir().iterdir()) == refused


def test_a_failed_write_leaves_no_temporary_behind():
    from repro.diskcache import write_entry

    directory = cache_dir()
    (directory / "taken.rates").mkdir(parents=True)  # os.replace onto it fails
    assert not write_entry(directory / "taken.rates", "repro-rates", b"body")
    assert [p.name for p in directory.iterdir()] == ["taken.rates"]


def test_eviction_bounds_every_entry_kind(monkeypatch):
    monkeypatch.setattr(rates_mod, "STORE_MAX", 2)
    created = []  # a key written again after its eviction is created twice
    real_write = rates_mod.write_entry

    def write_entry(path, *rest):
        if not path.exists():
            created.append(path)
        return real_write(path, *rest)

    monkeypatch.setattr(rates_mod, "write_entry", write_entry)
    _new_process()
    for builder in (ALL_APPS["FIR"], _small_loop, ALL_APPS["DToA"]):
        _run_checked(builder)
    assert len(_entries(".rates")) == 2
    assert codegen_cache_stats["disk_evictions"] == len(created) - 2 > 0


_SWEEP = """
import json, sys
from repro.analysis import analyze_filter
from repro.apps import ALL_APPS
from repro.graph import CollectSink
from repro.runtime import Interpreter, codegen_cache_stats

result = {"apps": {}}
for name in sys.argv[1:]:
    app = ALL_APPS[name]()
    sink = next(f for f in app.filters() if isinstance(f, CollectSink))
    with Interpreter(app, check=True, engine="codegen") as interp:
        interp.run(3)
    result["apps"][name] = {
        "output": list(sink.collected),
        "diagnostics": [
            d.format() for f in app.filters() for d in analyze_filter(f).diagnostics
        ],
    }
result["stats"] = dict(codegen_cache_stats)
print(json.dumps(result))
"""


def _sweep_process(cache: Path, apps, script: str = _SWEEP) -> subprocess.Popen:
    src = str(Path(codegen_mod.__file__).resolve().parents[2])
    env = dict(
        os.environ,
        REPRO_CODEGEN_CACHE=str(cache),
        PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
    )
    return subprocess.Popen(
        [sys.executable, "-W", "ignore", "-c", script, *apps],
        env=env, stdout=subprocess.PIPE, text=True,
    )


def test_racing_processes_share_one_cache_directory(tmp_path):
    apps = ["FIR", "DToA", "BitonicSort"]
    cache = tmp_path / "shared"
    racers = [_sweep_process(cache, apps) for _ in range(2)]
    cold = [json.loads(p.communicate(timeout=300)[0]) for p in racers]
    warm = json.loads(_sweep_process(cache, apps).communicate(timeout=300)[0])
    stats = warm["stats"]
    assert stats["disk_hits"] == len(list(cache.iterdir())) > 0  # only .rates entries
    assert stats["disk_misses"] == stats["disk_evictions"] == 0
    for name in apps:
        scalar, _ = _run(ALL_APPS[name], "scalar", 3)
        assert warm["apps"][name]["output"] == scalar
        for racer in cold:
            assert racer["apps"][name] == warm["apps"][name]


_EFFECTS = """
import json, sys
from repro.analysis import classify, effects, executor, send_sites
from repro.apps import ALL_APPS
from repro.runtime import Interpreter, codegen_cache_stats

runs, asts = [], []
real_run, real_ast = executor.RateAnalyzer.run, effects.function_ast
executor.RateAnalyzer.run = lambda self: runs.append(1) or real_run(self)
effects.function_ast = lambda fn: asts.append(fn.__name__) or real_ast(fn)
found = {}
for name in ("Beamformer", "FreqHopRadio"):
    app = ALL_APPS[name]()
    if sys.argv[1] == "store":
        with Interpreter(app, check=True, engine="codegen") as interp:
            interp.run(1)
    for filt in app.filters():
        if type(filt).__name__ in ("BeamFirFilter", "HopDetector"):
            report = classify(filt)
            found[filt.name] = [repr(report), [list(s) for s in send_sites(filt, report)]]
print(json.dumps({
    "effects": found, "runs": len(runs), "work_asts": asts.count("work"),
    "stats": dict(codegen_cache_stats),
}))
"""


def test_a_warm_process_reads_the_effects_from_the_entry(tmp_path):
    """Stateful filters and a sender: the second process classifies them
    and lists the sends off the stored reports, without reading work()."""
    cold, warm = (
        json.loads(_sweep_process(tmp_path, [mode], _EFFECTS).communicate(timeout=300)[0])
        for mode in ("store", "read")
    )
    assert warm["effects"] == cold["effects"]
    assert all("classification='stateful'" in r for r, _ in warm["effects"].values())
    sites = [site for _, found in warm["effects"].values() for site in found]
    assert sites and all(site == ["portal", "setf", 6, ""] for site in sites)
    assert cold["runs"] > 0 and cold["work_asts"] > 0
    assert warm["stats"]["disk_hits"] > 0 and warm["stats"]["disk_misses"] == 0
    assert warm["runs"] == 0 and warm["work_asts"] == 0


def test_plan_cache_eviction_counter(monkeypatch):
    from repro.runtime import plan as plan_mod

    clear_plan_cache()
    monkeypatch.setattr(plan_mod, "_PLAN_CACHE_MAX", 1)
    _run(ALL_APPS["FIR"], "batched", 1)
    _run(ALL_APPS["FMRadio"], "batched", 1)
    summary = plan_cache_summary()
    assert summary["size"] <= 1
    assert summary["evictions"] >= 1
    clear_plan_cache()
    assert plan_cache_summary()["evictions"] == 0


# -- what runs walked -----------------------------------------------------------


def test_messaging_app_runs_compiled_without_sl305():
    """Sender and receiver blocks are ordinary blocks of the walk."""
    builder = ALL_APPS["FreqHopRadio"]
    scalar, _ = _run(builder, "scalar", 3)
    app = builder()
    sink = next(f for f in app.filters() if isinstance(f, CollectSink))
    with warnings.catch_warnings():
        warnings.simplefilter("error", EngineDowngradeWarning)
        interp = Interpreter(app, check=False, engine="codegen")
        interp.run(3)
    assert interp.engine_used == "codegen"
    assert interp.downgrades == []
    kinds = {row["kind"] for row in interp.engine_report()["codegen"]["blocks"]}
    assert {"sender", "receiver"} <= kinds
    assert list(sink.collected) == scalar


def test_messaging_app_runs_under_strict():
    interp = Interpreter(
        ALL_APPS["FreqHopRadio"](), check=False, engine="codegen", strict=True
    )
    interp.run(3)
    assert interp.engine_used == "codegen"


def test_unliftable_filter_runs_its_loop_executor():
    """A stateful filter the lifter rejects is a walked block like any
    other: its executor runs the per-firing loop, and nothing downgrades."""

    def build():
        return Pipeline(
            ArraySource([1.0, 2.0, -3.0, 0.5]),
            Gain(2.0),
            Accumulator(),  # stores self.total in work(): not liftable
            CollectSink(),
        )

    scalar, _ = _run(build, "scalar", 6)
    app = build()
    sink = next(f for f in app.filters() if isinstance(f, CollectSink))
    interp = Interpreter(app, check=False, engine="codegen", strict=True)
    interp.run(6)
    kinds = {
        name.rstrip("0123456789_"): row["kind"]
        for name, row in interp.plan.vectorization_report().items()
    }
    assert kinds["Accumulator"] == "loop"
    assert interp.downgrades == []
    assert list(sink.collected) == scalar


class EarlyReturn(Filter):
    def __init__(self) -> None:
        super().__init__(pop=1, push=1)

    def work(self) -> None:
        x = self.pop()
        if x > 0.0:
            self.push(x * 0.5)
            return
        self.push(-0.25 * x)


class Comprehension(Filter):
    def __init__(self) -> None:
        super().__init__(pop=1, push=1)
        self.weights = [0.25, -0.5, 0.125]

    def work(self) -> None:
        x = self.pop()
        self.push(sum([x * w for w in self.weights]))


class OpaqueHelper(Filter):
    def __init__(self) -> None:
        super().__init__(pop=1, push=1)
        self.k = 0.75

    def scaled(self, x: float) -> float:
        return x * self.k

    def work(self) -> None:
        self.push(self.scaled(self.pop()))


class ConditionalPop(Filter):
    def __init__(self) -> None:
        super().__init__(pop=1, push=1)
        self.up = True

    def work(self) -> None:
        y = self.pop() * 0.5 if self.up else -self.pop()
        self.push(y)


class DirectChannel(Filter):
    def __init__(self) -> None:
        super().__init__(pop=1, push=1)

    def work(self) -> None:
        self.output.push(self.input.pop() * 0.5)


def _closure_filter():
    k = 0.625

    class FreeVariable(Filter):
        def __init__(self) -> None:
            super().__init__(pop=1, push=1)

        def work(self) -> None:
            self.push(self.pop() * k)

    return FreeVariable


#: One filter per family of bodies :class:`WorkInliner` refuses, with the
#: words of the reason it gives.
REFUSED = {
    "try": (Guarded, "Try"),
    "early return": (EarlyReturn, "Return"),
    "comprehension": (Comprehension, "ListComp"),
    "opaque helper": (OpaqueHelper, "opaque self.scaled() call"),
    "conditional pop": (ConditionalPop, "pop() in a conditionally-evaluated position"),
    "free variable": (_closure_filter(), "free variables"),
    "channel reached directly": (DirectChannel, "reaches self.output directly"),
}


@pytest.mark.parametrize("family", REFUSED, ids=str)
def test_a_refused_body_is_called_from_the_loop(family):
    """A body the inliner refuses costs its filter the inlining, not the
    loop: the emitter calls its work() over the filter's list tapes, in a
    feedback core and in the small-call form alike.  Nothing downgrades,
    and the output is the scalar engine's however the run is chopped."""
    cls, why = REFUSED[family]
    total = 9
    builders = {
        "core": lambda: feedback_app(DATA, loopback=[cls()]),
        "small": lambda: Pipeline(ArraySource(DATA), Gain(0.5), cls(), CollectSink()),
    }
    for form, build in builders.items():
        scalar, _ = run_calls(build, "scalar", (total,))
        assert len(scalar) > 0
        for calls in ((total,), (1,) * total, (4, total - 4)):
            app = build()
            sink = next(f for f in app.filters() if isinstance(f, CollectSink))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with Interpreter(app, check=False, engine="codegen", strict=True) as interp:
                    interp.run_init()
                    if form == "small":
                        interp.plan.small.force(total)
                    for periods in calls:
                        interp.run_steady(periods)
            assert list(sink.collected) == scalar, (form, calls)
            assert interp.downgrades == []
            runner = _core(interp) if form == "core" else interp.plan.small.form
            row = runner.lowering
            assert row["mode"] == "inline"
            ((name, reason),) = row["called"].items()
            assert name.startswith(cls.__name__) and why in reason, row
            tapes = [edge for edge, how in row["taped"].items() if name in how]
            assert tapes and all(name in edge for edge in tapes)
            assert ".work()" in runner.source


# -- observability -----------------------------------------------------------


def test_traced_codegen_run_renders_cache_section():
    from repro.obs.report import render_report

    app = ALL_APPS["DToA"]()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EngineDowngradeWarning)
        interp = Interpreter(app, check=False, engine="codegen", trace=True)
        interp.run(4)
        interp.close()
    payload = interp.tracer.chrome()
    meta = payload["repro"]["meta"]
    assert meta["engine"] == "codegen"
    assert "codegen_cache" in meta
    spans = [e for e in payload["traceEvents"] if e.get("cat") == "codegen"]
    assert spans, "expected codegen:run_chunk spans in the trace"
    text = render_report(payload)
    assert "codegen cache:" in text


def test_codegen_spans_count_as_self_time():
    from repro.obs.tracer import CAT_CODEGEN, SELF_TIME_CATS

    assert CAT_CODEGEN in SELF_TIME_CATS
