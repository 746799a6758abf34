"""The codegen engine's contract: one generated module, same outputs.

``engine="codegen"`` must be bit-exact against the scalar interpreter on
every application (the generated module splices the same lifted kernels
and rewrites the same core work() bodies the batched engine runs, so
there is no tolerance to hide behind), must report its per-block lowering
through ``engine_report()`` and ``SL305``, and must hit its two-level
module cache — in-memory within a process, on disk across "processes"
(simulated here by clearing the memory level).
"""

import copy
import hashlib
import warnings
from pathlib import Path

import pytest

from repro.apps import ALL_APPS
from repro.errors import EngineDowngradeWarning, StreamItError
from repro.graph import ArraySource, CollectSink, Filter, Pipeline, SplitJoin, duplicate
from repro.graph.builtins import Identity
from repro.graph.splitjoin import combine
from repro.runtime import (
    CodegenPlan,
    Interpreter,
    clear_codegen_cache,
    codegen_cache_stats,
    codegen_cache_summary,
)
from repro.runtime import codegen as codegen_mod
from repro.runtime.plan import clear_plan_cache, plan_cache_summary
from tests.helpers import FIR, Accumulator, Fold, Gain, Peek3, feedback_app, run_calls


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
    if app_name == "FreqHopRadio":  # teleport messaging: whole-plan fallback
        assert interp.engine_used == "batched"
    else:
        assert interp.engine_used == "codegen"
        assert isinstance(interp.plan, CodegenPlan)


@pytest.mark.parametrize("app_name", ["FIR", "FilterBank", "Oversampler", "DToA"])
def test_fired_counts_match_scalar(app_name):
    _, scalar = _run(ALL_APPS[app_name], "scalar", 4)
    _, generated = _run(ALL_APPS[app_name], "codegen", 4)
    scalar_counts = sorted((node.name, n) for node, n in scalar.fired.items())
    codegen_counts = sorted((node.name, n) for node, n in generated.fired.items())
    assert codegen_counts == scalar_counts


def test_dtoa_core_is_inlined():
    """The tentpole case: DToA's feedback core must lower to the closed
    loop, not fall back to the interpreted CoreLoopRunner."""
    _, interp = _run(ALL_APPS["DToA"], "codegen", 5)
    cores = [b for b in interp.plan.codegen_meta["blocks"] if b["kind"] == "core"]
    assert cores and all(b["mode"] == "inline" for b in cores)
    assert interp.plan.codegen_fallbacks == []


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
    source = interp.plan.generated_source
    assert f"for _ in range({rounds}):" in source
    assert source.count(".leak") == 1  # ErrorShaper's body, once


# -- the inlined core: tapes in locals, tapes on lists ---------------------------


def _core_row(interp) -> dict:
    (row,) = [b for b in interp.engine_report()["codegen"]["blocks"] if b["kind"] == "core"]
    return row


def _core_source(interp) -> str:
    source = interp.plan.generated_source
    return source[source.index("_core.begin()") : source.index("_core.end(")]


def _assert_chopping_invariant(builder, total=9):
    """scalar ≡ codegen at run(N), run(1)×N and run(a); run(N−a), and a
    codegen run handed to the interpreted ``CoreLoopRunner`` between two
    calls carries on from what the forwarded tapes left on the lists."""
    scalar, _ = run_calls(builder, "scalar", (total,))
    assert len(scalar) > 0
    for calls in ((total,), (1,) * total, (4, total - 4)):
        got, interp = run_calls(builder, "codegen", calls)
        assert interp.engine_used == "codegen"
        assert got == scalar, calls
    got, downgraded = run_calls(builder, "codegen", (4, total - 4), downgrade_before=1)
    assert downgraded.engine_used == "batched"
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
    assert again.plan.cache_outcome == "disk_hit"
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
    (core,) = [b for b in interp.plan.codegen_meta["blocks"] if b["kind"] == "core"]
    # delay 3 = the filter's two-item peek residue + one item on the way in.
    assert sorted(core["forwarded"].values()) == [0, 0, 1, 2]
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
    from repro.runtime.codegen import BindMismatch, bind_module

    _, interp = _run(ALL_APPS["DToA"], "codegen", 2)
    plan = interp.plan

    def bind(edit):
        meta = copy.deepcopy(plan.codegen_meta)
        (core,) = [b for b in meta["blocks"] if b["kind"] == "core"]
        edit(core)
        ns = {}
        exec(compile(plan.generated_source, "<test>", "exec"), ns)
        return bind_module(plan, ns, meta)

    assert bind(lambda core: None) == ([], "inline")
    edge = next(iter(plan.codegen_meta["blocks"][3]["forwarded"]))
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
    _, interp = _run(ALL_APPS["FMRadio"], "codegen", 2)
    source = interp.plan.generated_source
    assert source and "def run_chunk(scale):" in source
    compile(source, "<check>", "exec")  # must be valid standalone source
    assert interp.plan.generated_path is not None


def test_engine_report_carries_codegen_section():
    _, interp = _run(ALL_APPS["DToA"], "codegen", 2)
    report = interp.engine_report()
    assert report["used"] == "codegen"
    section = report["codegen"]
    assert section["active"] and section["materialized"]
    assert section["cache_outcome"] in ("miss", "mem_hit", "disk_hit")
    modes = [b.get("mode") for b in section["blocks"] if b["kind"] != "fused"]
    assert all(m in ("inline", "call", "fallback") for m in modes)
    assert "plan_cache" in report and "size" in report["plan_cache"]


# -- cache behaviour ---------------------------------------------------------


def test_second_run_hits_memory_then_disk_cache():
    builder = ALL_APPS["FMRadio"]
    _, first = _run(builder, "codegen", 2)
    assert first.plan.cache_outcome == "miss"
    assert codegen_cache_stats["disk_misses"] == 1

    _, second = _run(builder, "codegen", 2)
    assert second.plan.cache_outcome == "mem_hit"
    assert codegen_cache_stats["mem_hits"] == 1

    # A fresh process keeps the disk artifact but not the memory cache.
    clear_codegen_cache()
    out_scalar, _ = _run(builder, "scalar", 2)
    out_disk, third = _run(builder, "codegen", 2)
    assert third.plan.cache_outcome == "disk_hit"
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


def _digest_of_another_module(raw: bytes) -> bytes:
    _, other = _run(ALL_APPS["FMRadio"], "codegen", 2)
    other_digest = Path(other.plan.generated_path).read_bytes().partition(b"\n")[0]
    return other_digest + b"\n" + raw.partition(b"\n")[2]


@pytest.mark.parametrize(
    "damage",
    [_drop_last_lines, _flip_one_byte, _drop_digest_line, _digest_of_another_module],
)
def test_disk_entry_that_does_not_verify_is_a_miss(damage):
    builder = ALL_APPS["FIR"]
    scalar, _ = _run(builder, "scalar", 3)
    _, first = _run(builder, "codegen", 3)
    path = Path(first.plan.generated_path)
    intact = path.read_bytes()
    header, _, body = intact.partition(b"\n")
    assert header == b"# repro-codegen sha256=" + hashlib.sha256(body).hexdigest().encode()
    # Only the file carries the digest line.
    assert body.decode() == first.plan.generated_source
    damaged = damage(intact)
    # Line-boundary truncation and a flipped byte can both leave valid Python.
    assert damaged != intact
    path.write_bytes(damaged)

    clear_codegen_cache()  # memory level and counters only
    out, second = _run(builder, "codegen", 3)
    assert second.plan.cache_outcome == "miss"
    assert codegen_cache_stats["disk_misses"] == 1
    assert codegen_cache_stats["disk_hits"] == 0
    assert out == scalar
    assert second.plan.generated_source == first.plan.generated_source
    assert path.read_bytes() == intact  # regenerated and overwritten

    clear_codegen_cache()
    out, third = _run(builder, "codegen", 3)
    assert third.plan.cache_outcome == "disk_hit"
    assert out == scalar


def test_memory_cache_eviction_is_bounded(monkeypatch):
    monkeypatch.setattr(codegen_mod, "_MEM_CACHE_MAX", 1)
    _run(ALL_APPS["FIR"], "codegen", 2)
    _run(ALL_APPS["FMRadio"], "codegen", 2)
    summary = codegen_cache_summary()
    assert summary["mem_size"] <= 1
    assert summary["mem_evictions"] >= 1


def test_disk_cache_eviction_is_bounded(monkeypatch):
    monkeypatch.setattr(codegen_mod, "_DISK_CACHE_MAX", 1)
    _run(ALL_APPS["FIR"], "codegen", 2)
    _run(ALL_APPS["FMRadio"], "codegen", 2)
    summary = codegen_cache_summary()
    assert summary["disk_size"] <= 1
    assert summary["disk_evictions"] >= 1


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


# -- fallback ladder (SL305) -------------------------------------------------


def test_messaging_app_downgrades_whole_plan_with_sl305():
    builder = ALL_APPS["FreqHopRadio"]
    scalar, _ = _run(builder, "scalar", 3)
    app = builder()
    sink = next(f for f in app.filters() if isinstance(f, CollectSink))
    with pytest.warns(EngineDowngradeWarning, match="SL305"):
        interp = Interpreter(app, check=False, engine="codegen")
    interp.run(3)
    assert interp.engine_used == "batched"
    assert any(d.code == "SL305" for d in interp.downgrades)
    assert list(sink.collected) == scalar


def test_messaging_app_strict_raises():
    with pytest.raises(StreamItError, match="SL305"):
        Interpreter(
            ALL_APPS["FreqHopRadio"](), check=False, engine="codegen", strict=True
        )


def test_unliftable_filter_becomes_fallback_block():
    """A stateful filter the lifter rejects keeps its adaptive executor;
    the rest of the module still runs generated, and SL305 names it."""

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
    interp = Interpreter(app, check=False, engine="codegen")
    with pytest.warns(EngineDowngradeWarning, match="SL305"):
        interp.run(6)
    assert interp.engine_used == "codegen"  # partial fallback, still codegen
    assert interp.plan.codegen_fallbacks  # the Accumulator block
    assert any(d.code == "SL305" for d in interp.downgrades)
    assert list(sink.collected) == scalar


def test_strict_raises_on_fallback_blocks():
    def build():
        return Pipeline(
            ArraySource([1.0, 2.0]), Accumulator(), Identity(), CollectSink()
        )

    interp = Interpreter(build(), check=False, engine="codegen", strict=True)
    with pytest.raises(StreamItError, match="SL305"):
        interp.run(3)


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
