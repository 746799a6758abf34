"""The codegen engine's contract: one generated module, same outputs.

``engine="codegen"`` must be bit-exact against the scalar interpreter on
every application (the generated module splices the same lifted kernels
and rewrites the same core work() bodies the batched engine runs, so
there is no tolerance to hide behind), must report its per-block lowering
through ``engine_report()`` and ``SL305``, and must hit its two-level
module cache — in-memory within a process, on disk across "processes"
(simulated here by clearing the memory level).
"""

import hashlib
import warnings
from pathlib import Path

import pytest

from repro.apps import ALL_APPS
from repro.errors import EngineDowngradeWarning, StreamItError
from repro.graph import ArraySource, CollectSink, Pipeline
from repro.graph.builtins import Identity
from repro.runtime import (
    CodegenPlan,
    Interpreter,
    clear_codegen_cache,
    codegen_cache_stats,
    codegen_cache_summary,
)
from repro.runtime import codegen as codegen_mod
from repro.runtime.plan import clear_plan_cache, plan_cache_summary
from tests.helpers import Accumulator, Gain


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
    _, core, _ = interp.plan.segments
    rounds = len(core.phases) // 4
    assert rounds >= 32  # the up+interp FrequencyFilter pushes a block a period
    source = interp.plan.generated_source
    assert f"for _ in range({rounds}):" in source
    assert source.count(".leak") == 1  # ErrorShaper's body, once


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
