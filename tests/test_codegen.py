"""The compiled engine's contract: one block walk, the feedback core as
generated code, same outputs.

``engine="codegen"`` (``"batched"`` names the same engine) must be
bit-exact against the scalar interpreter on every application (the core's
module rewrites the same work() bodies the interpreted core loop runs, so
there is no tolerance to hide behind), must report how each block runs
through ``engine_report()`` — and ``SL305`` for a core it cannot lower —
and must hit the core module's two-level cache: in memory within a
process, on disk across "processes" (simulated here by clearing the memory
level).  The cache directory also keeps the rate reports, written by every
session whatever its graph.
"""

import copy
import hashlib
import importlib.util
import json
import marshal
import os
import subprocess
import sys
import warnings
from pathlib import Path

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
    codegen_cache_summary,
)
from repro.runtime import codegen as codegen_mod
from repro.runtime.plan import clear_plan_cache, plan_cache_summary
from tests.helpers import (
    FIR,
    Accumulator,
    Fold,
    Gain,
    Peek3,
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
    """The tentpole case: DToA's feedback core must lower to the closed
    loop, not fall back to the interpreted CoreLoopRunner; every other
    block is walked."""
    _, interp = _run(ALL_APPS["DToA"], "codegen", 5)
    core = _core(interp)
    assert core.lowering["mode"] == "inline"
    assert core.chunk != core.interpret
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


def _assert_chopping_invariant(builder, total=9):
    """scalar ≡ codegen at run(N), run(1)×N and run(a); run(N−a), and a
    generated core handed to the interpreted ``CoreLoopRunner`` between two
    calls carries on from what the forwarded tapes left on the lists."""
    scalar, _ = run_calls(builder, "scalar", (total,))
    assert len(scalar) > 0
    for calls in ((total,), (1,) * total, (4, total - 4)):
        got, interp = run_calls(builder, "codegen", calls)
        assert _core(interp).lowering["mode"] == "inline"
        assert got == scalar, calls
    got, downgraded = run_calls(builder, "codegen", (4, total - 4), downgrade_before=1)
    assert _core(downgraded).chunk == _core(downgraded).interpret
    assert got == scalar
    return interp


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

    # The report is read from the module's own meta: a disk hit says the same.
    clear_codegen_cache()
    _, again = _run(ALL_APPS["DToA"], "codegen", 2)
    again_row = _core_row(again)
    assert again_row.pop("cache_outcome") == "disk_hit"
    row.pop("cache_outcome")  # a miss, or a hit on the chopped runs' module
    assert again_row == row


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


def test_conditional_pushes_and_loop_peeks_stay_on_lists():
    def folded():
        return feedback_app(DATA, loopback=[Fold(0.1)])

    row = _core_row(_assert_chopping_invariant(folded))
    (why,) = [why for name, why in row["taped"].items() if name.startswith("Fold_")]
    assert why == "accessed inside a loop or a conditional"
    assert row["forwarded"]  # the rest of the loop is still in locals

    def looped():
        return feedback_app(DATA, loopback=[FIR([0.3, -0.2, 0.1])], delay=3)

    row = _core_row(_assert_chopping_invariant(looped))
    (why,) = [why for name, why in row["taped"].items() if "->FIR_" in name]
    assert why == "peek at a computed position"
    assert row["forwarded"]


def test_long_delay_line_stays_on_a_list():
    """Carried locals are re-bound every unit, so past a few items the
    cursor of a list is cheaper (codegen_emit._CARRY_MAX)."""

    def build():
        return feedback_app(DATA, delay=6)

    row = _core_row(_assert_chopping_invariant(build))
    (why,) = [w for w in row["taped"].values() if not w.startswith("external")]
    assert why == "holds 6 items between periods"
    assert len(row["forwarded"]) == 3


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


def test_bind_refuses_a_core_that_is_not_this_plans():
    from repro.runtime.codegen import BindMismatch, bind_core

    _, interp = _run(ALL_APPS["DToA"], "codegen", 2)
    core = _core(interp)
    code = compile(core.source, "<test>", "exec")
    module = {}
    exec(code, module)

    def bind(edit):
        meta = copy.deepcopy(module["__codegen_meta__"])
        (entry,) = meta["blocks"]
        edit(entry)
        ns = {}
        exec(code, ns)
        return bind_core(core, ns, meta)

    assert bind(lambda core: None)["mode"] == "inline"
    edge = next(iter(module["__codegen_meta__"]["blocks"][0]["forwarded"]))
    with pytest.raises(BindMismatch, match="tapes differ"):  # an edge the plan lacks
        bind(lambda core: core["forwarded"].update({"99": core["forwarded"].pop(edge)}))
    with pytest.raises(BindMismatch, match="tapes differ"):  # an edge the module lacks
        bind(lambda core: core["taped"].popitem())
    with pytest.raises(BindMismatch, match="does not hold"):
        bind(lambda core: core["forwarded"].update({edge: 5}))
    with pytest.raises(BindMismatch, match="hoisted"):
        bind(lambda core: core["hoisted"].append([core["filters"][0], "rate_of_nothing"]))


# -- generated-module introspection ------------------------------------------


def test_generated_source_is_real_compilable_python():
    _, interp = _run(ALL_APPS["DToA"], "codegen", 2)
    source = _core(interp).source
    assert source and "def run_chunk(scale):" in source
    compile(source, "<check>", "exec")  # must be valid standalone source
    assert _core(interp).path is not None


def test_engine_report_carries_codegen_section():
    _, interp = _run(ALL_APPS["FMRadio"], "codegen", 2)
    report = interp.engine_report()
    assert report["used"] == "codegen"
    section = report["codegen"]
    assert [(row["kind"], row["name"]) for row in section["blocks"]] == [
        (b.kind, b.name) for b in interp.plan.blocks
    ]
    assert {row["mode"] for row in section["blocks"]} == {"walk"}  # no core here
    assert section["cache"]["disk_max"] >= 1
    assert "plan_cache" in report and "size" in report["plan_cache"]
    _, dtoa = _run(ALL_APPS["DToA"], "codegen", 2)
    assert _core_row(dtoa)["cache_outcome"] in ("miss", "mem_hit", "disk_hit")


# -- cache behaviour ---------------------------------------------------------


def _outcome(interp) -> str:
    return _core(interp).lowering["cache_outcome"]


def test_second_run_hits_memory_then_disk_cache():
    builder = ALL_APPS["DToA"]
    _, first = _run(builder, "codegen", 2)
    assert _outcome(first) == "miss"
    assert codegen_cache_stats["disk_misses"] == 1

    _, second = _run(builder, "codegen", 2)
    assert _outcome(second) == "mem_hit"
    assert codegen_cache_stats["mem_hits"] == 1

    # A fresh process keeps the disk artifact but not the memory cache.
    clear_codegen_cache()
    out_scalar, _ = _run(builder, "scalar", 2)
    out_disk, third = _run(builder, "codegen", 2)
    assert _outcome(third) == "disk_hit"
    assert codegen_cache_stats["disk_hits"] == 1
    assert codegen_cache_stats["disk_misses"] == 0
    assert out_disk == out_scalar  # the rebound cached module still runs


def _drop_last_lines(raw: bytes) -> bytes:
    return b"".join(raw.splitlines(keepends=True)[:-3])


def _flip_one_byte(raw: bytes) -> bytes:
    at = len(raw) // 2
    return raw[:at] + bytes([raw[at] ^ 0x01]) + raw[at + 1 :]


def _drop_digest_line(raw: bytes) -> bytes:  # what a pre-digest writer left
    return raw.partition(b"\n")[2]


def _small_loop():
    """A feedback app other than DToA: a second core module."""
    return feedback_app(DATA)


def _digest_of_another_module(raw: bytes) -> bytes:
    _, other = _run(_small_loop, "codegen", 2)
    other_digest = Path(_core(other).path).read_bytes().partition(b"\n")[0]
    return other_digest + b"\n" + raw.partition(b"\n")[2]


@pytest.mark.parametrize(
    "damage",
    [_drop_last_lines, _flip_one_byte, _drop_digest_line, _digest_of_another_module],
)
def test_disk_entry_that_does_not_verify_is_a_miss(damage):
    builder = ALL_APPS["DToA"]
    scalar, _ = _run(builder, "scalar", 3)
    _, first = _run(builder, "codegen", 3)
    path = Path(_core(first).path)
    intact = path.read_bytes()
    header, _, body = intact.partition(b"\n")
    assert header == b"# repro-codegen sha256=" + hashlib.sha256(body).hexdigest().encode()
    # Only the file carries the digest line.
    assert body.decode() == _core(first).source
    damaged = damage(intact)
    # Line-boundary truncation and a flipped byte can both leave valid Python.
    assert damaged != intact
    path.write_bytes(damaged)

    clear_codegen_cache()  # memory level and counters only
    out, second = _run(builder, "codegen", 3)
    assert _outcome(second) == "miss"
    assert codegen_cache_stats["disk_misses"] == 1
    assert codegen_cache_stats["disk_hits"] == 0
    assert out == scalar
    assert _core(second).source == _core(first).source
    assert path.read_bytes() == intact  # regenerated and overwritten

    clear_codegen_cache()
    out, third = _run(builder, "codegen", 3)
    assert _outcome(third) == "disk_hit"
    assert out == scalar


def test_memory_cache_eviction_is_bounded(monkeypatch):
    monkeypatch.setattr(codegen_mod, "_MEM_CACHE_MAX", 1)
    _run(ALL_APPS["DToA"], "codegen", 2)
    _run(_small_loop, "codegen", 2)
    summary = codegen_cache_summary()
    assert summary["mem_size"] <= 1
    assert summary["mem_evictions"] >= 1


def test_disk_cache_eviction_is_bounded(monkeypatch):
    monkeypatch.setattr(codegen_mod, "_DISK_CACHE_MAX", 1)
    _run(ALL_APPS["DToA"], "codegen", 2)
    _run(_small_loop, "codegen", 2)
    summary = codegen_cache_summary()
    assert summary["disk_size"] <= 1
    assert summary["disk_evictions"] >= 1


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


def _new_process() -> None:
    """What a second process starts with: no module, no report in memory."""
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


def _wrong_magic(raw: bytes) -> bytes:
    """A code object that verifies but is another interpreter's bytecode."""
    magic = importlib.util.MAGIC_NUMBER.hex().encode()
    return raw.replace(b"magic=" + magic, b"magic=" + b"0" * len(magic), 1)


@pytest.mark.parametrize(
    "damage", [_drop_last_lines, _flip_one_byte, _drop_digest_line, _wrong_python]
)
def test_rate_entry_that_does_not_verify_is_a_miss(damage):
    builder = ALL_APPS["FIR"]  # no core, no module: the session writes the reports
    _new_process()
    cold, cold_diagnostics, _ = _run_checked(builder)
    entries = _entries(".rates")
    assert entries and codegen_cache_stats["analysis_misses"] == len(entries)
    entries[0].write_bytes(damage(entries[0].read_bytes()))

    _new_process()
    out, diagnostics, _ = _run_checked(builder)
    assert codegen_cache_stats["analysis_misses"] == 1
    assert codegen_cache_stats["analysis_hits"] == len(entries) - 1
    assert (out, diagnostics) == (cold, cold_diagnostics)

    _new_process()  # the miss rewrote the entry
    assert _run_checked(builder)[:2] == (cold, cold_diagnostics)
    assert codegen_cache_stats["analysis_hits"] == len(entries)
    assert codegen_cache_stats["analysis_misses"] == 0


def test_a_session_without_a_core_writes_the_rate_reports(monkeypatch):
    """The reports are written by a session's first steady call whatever
    its graph: FIR lowers nothing, writes no module, and a second process
    still reads every report back instead of running the executor."""
    _new_process()
    cold = _run_checked(ALL_APPS["FIR"])[:2]
    stored = _entries(".rates")
    assert stored and not _entries(".py") and not _entries(".code")
    ran = []
    real_run = executor_mod.RateAnalyzer.run
    monkeypatch.setattr(
        executor_mod.RateAnalyzer, "run", lambda self: ran.append(1) or real_run(self)
    )
    _new_process()
    assert _run_checked(ALL_APPS["FIR"])[:2] == cold
    assert ran == []
    assert codegen_cache_stats["analysis_hits"] == len(stored)
    assert codegen_cache_stats["analysis_misses"] == 0


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
    assert len(ran) == 2 and codegen_cache_stats["analysis_misses"] == 2

    cfg.TAPS = 3  # in-process: the memo's key moves too
    assert rates_mod.analyze_rates(mod.Gain()).pop.lo == 3
    assert len(ran) == 3

    cfg.GAIN, cfg.TAPS = 2.0, 2  # back to what the store holds
    _new_process()
    ran.clear()
    assert coeffs() == [{0: 2.0, 1: 2.0}]
    assert ran == [] and codegen_cache_stats["analysis_hits"] == 1


@pytest.mark.parametrize(
    "damage", [_drop_last_lines, _flip_one_byte, _drop_digest_line, _wrong_magic]
)
def test_code_object_that_does_not_verify_is_recompiled(damage):
    builder = ALL_APPS["DToA"]
    scalar, _ = _run(builder, "scalar", 3)
    out, _, first = _run_checked(builder)
    blob = Path(_core(first).path).with_suffix(".code")
    intact = blob.read_bytes()
    blob.write_bytes(damage(intact))

    _new_process()
    out, _, second = _run_checked(builder)
    assert _outcome(second) == "disk_hit"
    assert codegen_cache_stats["code_misses"] == 1
    assert codegen_cache_stats["code_hits"] == 0
    assert out == scalar
    assert _core(second).source == _core(first).source

    _new_process()
    out, _, third = _run_checked(builder)
    assert _outcome(third) == "disk_hit"
    assert codegen_cache_stats["code_hits"] == 1
    assert out == scalar


def test_warm_run_hits_every_level_and_the_registry_sees_it():
    builder = ALL_APPS["DToA"]
    _new_process()
    cold = _run_checked(builder)[:2]
    _new_process()
    before = _cache_events("analysis", "hits")
    assert _run_checked(builder)[:2] == cold
    stats = dict(codegen_cache_stats)
    assert stats["disk_hits"] == stats["code_hits"] == 1
    assert stats["analysis_hits"] > 0
    assert stats["disk_misses"] == stats["code_misses"] == stats["analysis_misses"] == 0
    assert _cache_events("analysis", "hits") - before == stats["analysis_hits"]


def _cache_events(level: str, event: str) -> float:
    family = METRICS.snapshot().get("repro_codegen_cache_total", {"samples": []})
    labels = {"level": level, "event": event}
    return sum(s["value"] for s in family["samples"] if s["labels"] == labels)


def test_clear_disk_removes_every_entry_kind():
    _new_process()
    _run_checked(ALL_APPS["DToA"])
    assert _entries(".py") and _entries(".code") and _entries(".rates")
    clear_codegen_cache(disk=True)
    assert list(cache_dir().iterdir()) == []


def test_eviction_bounds_every_entry_kind(monkeypatch):
    monkeypatch.setattr(codegen_mod, "_DISK_CACHE_MAX", 1)
    monkeypatch.setattr(rates_mod, "STORE_MAX", 2)
    _new_process()
    for builder in (ALL_APPS["FIR"], _small_loop, ALL_APPS["DToA"]):
        _run_checked(builder)
    assert len(_entries(".py")) == len(_entries(".code")) == 1
    assert len(_entries(".rates")) == 2


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
    assert stats["disk_hits"] == stats["code_hits"] == 1  # DToA's core module
    assert stats["analysis_hits"] > 0
    assert stats["disk_misses"] == stats["code_misses"] == stats["analysis_misses"] == 0
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
    assert warm["stats"]["analysis_hits"] > 0 and warm["stats"]["analysis_misses"] == 0
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


# -- what runs walked, what says SL305 ---------------------------------------


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
    other: its executor runs the per-firing loop, and nothing says SL305."""

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


class Guarded(Filter):
    """A body the core emitter refuses (``try``): its core runs interpreted."""

    def __init__(self) -> None:
        super().__init__(pop=1, push=1)

    def work(self) -> None:
        x = self.pop()
        try:
            y = 1.0 / x
        except ZeroDivisionError:
            y = 0.0
        self.push(y)


def test_strict_raises_on_fallback_blocks():
    """The one fallback block left: a core the emitter cannot lower."""

    def build():
        return feedback_app(DATA, loopback=[Guarded()])

    strict = Interpreter(build(), check=False, engine="codegen", strict=True)
    with pytest.raises(StreamItError, match="SL305"):
        strict.run(3)

    scalar, _ = run_calls(build, "scalar", (5,))
    with pytest.warns(EngineDowngradeWarning, match="SL305"):
        interp = Interpreter(build(), check=False, engine="codegen")
        interp.run(5)
    sink = next(f for f in interp.stream.filters() if isinstance(f, CollectSink))
    assert list(sink.collected) == scalar
    row = _core_row(interp)
    assert row["mode"] == "fallback" and "Try" in row["reason"]
    assert _core(interp).chunk == _core(interp).interpret


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
