"""Whole-program codegen backend (``engine="codegen"``).

:class:`CodegenPlan` extends the batched :class:`~repro.runtime.plan
.ExecutionPlan`: instead of walking the compiled phase list through a
Python dispatch loop on every chunk, it asks
:mod:`repro.runtime.codegen_emit` for **one fused source module** whose
``run_chunk(scale)`` executes ``scale`` steady periods as straight-line
code, then binds that module to this plan's live filters and channels and
calls it directly.  Small-batch, feedback-heavy graphs — where per-block
dispatch dominated — collapse into a single Python frame per chunk.

Generated modules are cached twice:

* **in memory**, keyed by the plan fingerprint (structural signature +
  work() code hashes + emitter revision), bounded LRU;
* **on disk** (:mod:`repro.diskcache`), one ``<fingerprint>.py`` per module
  and beside it the compiled ``<fingerprint>.code``, bounded by mtime
  eviction — a second process compiling the same graph skips emission and
  ``compile()`` both.  The code object is tied to this interpreter's
  bytecode magic and to the text it was compiled from; one that does not
  verify is recompiled from the (verified) text.

Materializing also writes the rate reports this process computed
(:meth:`repro.analysis.rates._ReadSetMemo.flush`) into the same directory,
so the next process's ``validate()`` reads them instead of re-running the
symbolic executor.  Counters for every level live in
:data:`codegen_cache_stats` and surface through ``engine_report()`` and
``python -m repro.obs report``.

Fallback ladder (all reported through the ``SL305`` diagnostic, which
``strict=True`` turns into an error):

* teleport messaging → whole plan runs batched (codegen inactive);
* an uncertified filter → that block calls its adaptive
  :class:`~repro.runtime.vectorize.BatchExecutor` (everything else in the
  module stays generated);
* an unlowerable cyclic core → that core block calls the interpreted
  :class:`~repro.runtime.plan.CoreLoopRunner`.
"""

from __future__ import annotations

import hashlib
import importlib.util
import marshal
import math as _real_math
import os
import types
from collections import OrderedDict
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.diskcache import (
    cache_dir,
    clear_disk,
    codegen_cache_stats,
    evict,
    read_entry,
    write_entry,
)
from repro.runtime.codegen_emit import (
    EMITTER_VERSION,
    Unsupported,
    emit_module,
    plan_fingerprint,
    plain_attribute,
)
from repro.runtime.plan import ExecutionPlan, _FusionTape, _plan_signature, timed
from repro.runtime.vectorize import VEC_MATH, BatchExecutor, run_lifted, run_loop

# -- module cache (memory + disk) ---------------------------------------------

_MEM_CACHE: "OrderedDict[str, types.CodeType]" = OrderedDict()
_MEM_CACHE_MAX = 64
_DISK_CACHE_MAX = 128

#: Only the file carries its digest line: what is compiled and what
#: ``generated_source`` shows is the module text alone.
_SOURCE_TAG = "repro-codegen"


def clear_codegen_cache(disk: bool = False) -> None:
    """Drop the in-memory module cache and zero the counters; with
    ``disk=True`` also delete every on-disk entry (modules, code objects,
    rate reports)."""
    _MEM_CACHE.clear()
    for key in codegen_cache_stats:
        codegen_cache_stats[key] = 0
    if disk:
        clear_disk()


def codegen_cache_summary() -> Dict[str, object]:
    """Counters plus current sizes of both cache levels."""
    directory = cache_dir()
    try:
        disk_size = sum(1 for _ in directory.glob("*.py")) if directory.is_dir() else 0
    except OSError:
        disk_size = 0
    summary: Dict[str, object] = dict(codegen_cache_stats)
    summary["mem_size"] = len(_MEM_CACHE)
    summary["mem_max"] = _MEM_CACHE_MAX
    summary["disk_size"] = disk_size
    summary["disk_max"] = _DISK_CACHE_MAX
    summary["disk_dir"] = str(directory)
    return summary


def _disk_path(fingerprint: str, suffix: str = ".py") -> Path:
    return cache_dir() / f"{fingerprint}{suffix}"


def _code_tag(source: str) -> str:
    """A code object is valid for this interpreter's bytecode and for the
    one text it was compiled from."""
    magic = importlib.util.MAGIC_NUMBER.hex()
    return f"repro-code magic={magic} source={hashlib.sha256(source.encode()).hexdigest()}"


def _compile(fingerprint: str, source: str) -> types.CodeType:
    return compile(source, f"<codegen:{fingerprint[:12]}>", "exec")


def _disk_load(fingerprint: str) -> Optional[Tuple[str, Optional[types.CodeType]]]:
    """The stored module text, None if it does not verify (the caller
    regenerates and overwrites the entry), with its stored code object,
    None if that does not verify or load."""
    path = _disk_path(fingerprint)
    body = read_entry(path, _SOURCE_TAG)
    if body is None:
        codegen_cache_stats["disk_misses"] += 1
        return None
    codegen_cache_stats["disk_hits"] += 1
    try:  # freshen mtime so LRU-by-mtime eviction spares hot entries
        os.utime(path)
    except OSError:
        pass
    source = body.decode()
    blob = read_entry(_disk_path(fingerprint, ".code"), _code_tag(source))
    try:
        code = None if blob is None else marshal.loads(blob)
    except (EOFError, ValueError, TypeError):
        code = None
    if not isinstance(code, types.CodeType):
        codegen_cache_stats["code_misses"] += 1
        return source, None
    codegen_cache_stats["code_hits"] += 1
    return source, code


def _code_store(fingerprint: str, source: str, code: types.CodeType) -> None:
    write_entry(_disk_path(fingerprint, ".code"), _code_tag(source), marshal.dumps(code))


def _disk_store(fingerprint: str, source: str, code: types.CodeType) -> Optional[Path]:
    path = _disk_path(fingerprint)
    if not write_entry(path, _SOURCE_TAG, source.encode()):
        return None
    _code_store(fingerprint, source, code)
    for victim in evict(path.parent, ".py", _DISK_CACHE_MAX):
        victim.with_suffix(".code").unlink(missing_ok=True)
        codegen_cache_stats["disk_evictions"] += 1
    return path


def _mem_store(fingerprint: str, code: types.CodeType) -> None:
    _MEM_CACHE[fingerprint] = code
    _MEM_CACHE.move_to_end(fingerprint)
    while len(_MEM_CACHE) > _MEM_CACHE_MAX:
        _MEM_CACHE.popitem(last=False)
        codegen_cache_stats["mem_evictions"] += 1


# -- binding ------------------------------------------------------------------


class BindMismatch(Exception):
    """A cached module's meta does not line up with this plan's layout."""


def _rebind_kernel(ns: dict, kname: str, fn) -> None:
    """Rebuild a spliced kernel over the original work()'s globals (with
    ``math`` swapped for the exact vector namespace — lift_work semantics)."""
    proto = ns.get(kname)
    if proto is None:
        raise BindMismatch(f"cached module lacks kernel {kname}")
    g = dict(fn.__globals__)
    if g.get("math") is _real_math:
        g["math"] = VEC_MATH
    ns[kname] = types.FunctionType(
        proto.__code__, g, kname, proto.__defaults__, proto.__closure__
    )


def bind_module(plan, ns: dict, meta: dict) -> Tuple[List[str], Optional[str]]:
    """Inject this plan's live objects into an exec'd generated module.

    Walks ``plan.blocks`` and the module's ``__codegen_meta__`` in
    lockstep, verifying structure as it goes (any disagreement raises
    :class:`BindMismatch` — the caller regenerates).  Returns the names of
    fallback blocks and the core's lowering mode (``None`` if no core).
    """
    if meta.get("emitter") != EMITTER_VERSION:
        raise BindMismatch("emitter version mismatch")
    nodes = list(plan.graph.nodes)
    node_index = {n: i for i, n in enumerate(nodes)}
    edges = plan.graph.edges
    blocks = plan.blocks
    mblocks = meta.get("blocks", [])
    if len(blocks) != len(mblocks):
        raise BindMismatch("block count mismatch")
    for i, edge in enumerate(edges):
        ns[f"ch{i}"] = plan.channels[edge]
    plan._module_tapes.clear()

    fallbacks: List[str] = []
    core_mode: Optional[str] = None

    def bind_phase(ph, m: dict) -> None:
        node = ph.node
        i = node_index[node]
        if m.get("kind") != "phase" or m.get("node") != i:
            raise BindMismatch(f"phase meta mismatch at node {node.name}")
        mode = m.get("mode")
        if mode == "inline":
            fn = type(node.filter).work
            ns[f"f{i}"] = node.filter
            _rebind_kernel(ns, f"_K{i}", fn)
            fire = ph.fire
            if isinstance(fire, BatchExecutor) and fire.mode is None:
                # Keep vectorization_report() consistent with the module.
                fire.mode = "lifted"
                fire.trusted = True
        else:
            ns[f"x{i}"] = ph.fire
            if mode == "fallback":
                fallbacks.append(node.name)

    for bi, (obj, m) in enumerate(zip(blocks, mblocks)):
        kind = obj.kind
        if kind == "phase":
            bind_phase(obj, m)
        elif kind == "fused":
            stages = obj.stages
            if m.get("kind") != "fused" or m.get("nodes") != [
                node_index[st.node] for st in stages
            ]:
                raise BindMismatch("fused chain mismatch")
            for j, st in enumerate(stages[:-1]):
                tape = ns[f"tp{bi}_{j}"] = _FusionTape(name=f"codegen:{st.node.name}")
                plan._module_tapes.append(tape)
            for st, sm in zip(stages, m.get("stages", ())):
                # Every stage's channel attributes are rebound by name.
                ns[f"f{node_index[st.node]}"] = st.node.filter
                bind_phase(st, sm)
        elif kind == "region":
            if (
                m.get("kind") != "region"
                or m.get("tier") != obj.tier
                or m.get("nodes") != [node_index[ph.node] for ph in obj.members]
            ):
                raise BindMismatch("region block mismatch")
            ns[f"rg{bi}"] = obj.run
            if m.get("mode") == "fallback":
                fallbacks.append(obj.name)
        elif kind == "core":
            core = obj
            if m.get("kind") != "core" or m.get("nodes") != sorted(
                node_index[n] for n in core.nodes
            ):
                raise BindMismatch("core block mismatch")
            core_mode = m.get("mode")
            if core_mode == "fallback":
                ns["_core_run"] = core.run
                fallbacks.append(core.name)
            else:
                # The module keeps every tape of the core in one of two
                # forms; a forwarded one carries a fixed number of items.
                ns["_core"] = core
                forwarded, taped = m.get("forwarded", {}), m.get("taped", {})
                if {int(i) for i in [*forwarded, *taped]} != set(
                    core.edge_index.values()
                ):
                    raise BindMismatch("core tapes differ from the module's")
                for index, held in forwarded.items():
                    edge = edges[int(index)]
                    if core.held(edge) != held:
                        raise BindMismatch(
                            f"core tape {edge.src.name}->{edge.dst.name} does "
                            f"not hold {held} items"
                        )
                for i in m.get("filters", ()):
                    ns[f"f{i}"] = nodes[i].filter
                for i, attr in m.get("hoisted", ()):
                    if not plain_attribute(nodes[i].filter, attr):
                        raise BindMismatch(f"{nodes[i].name}.{attr} cannot be hoisted")
                for si, names in m.get("globals", {}).items():
                    i = int(si)
                    g = type(nodes[i].filter).work.__globals__
                    for name in names:
                        if name not in g:
                            raise BindMismatch(f"missing kernel global {name!r}")
                        ns[f"_g{i}_{name}"] = g[name]
                for i in m.get("reducers", ()):
                    reducer = getattr(
                        getattr(nodes[i].obj, "joiner", None), "reducer", None
                    )
                    if reducer is None:
                        raise BindMismatch("cached module expects a reducer")
                    ns[f"_rd{i}"] = reducer
    ns["_dm"] = {}
    ns["_run_lifted"] = run_lifted
    ns["_run_loop"] = run_loop
    return fallbacks, core_mode


# -- the plan subclass --------------------------------------------------------


class CodegenPlan(ExecutionPlan):
    """An :class:`ExecutionPlan` that executes through a generated module.

    Compilation (emission or cache lookup, ``compile()``, binding) is lazy —
    it runs at the first ``run_steady`` call, after ``init()`` firings, so
    kernel certification sees live attribute state exactly like the batched
    engine's first-call trial.  When codegen is unavailable (teleport
    messaging) or materialization fails, execution transparently degrades
    to the parent batched engine, reported as ``SL305``.
    """

    def __init__(self, interp) -> None:
        super().__init__(interp)
        self.codegen_active: bool = not self.messaging
        self.codegen_fallbacks: List[str] = []
        self.codegen_meta: Optional[dict] = None
        self.generated_source: Optional[str] = None
        self.generated_path: Optional[str] = None
        self.cache_outcome: Optional[str] = None
        self.fingerprint: Optional[str] = None
        #: What a pass calls while codegen is active: the bound module's
        #: ``run_chunk``, alone (under tracing, timed like any block).
        self._chunk_steps: tuple = ()
        #: Scratch tapes bound into the generated module (see release_scratch).
        self._module_tapes: List[_FusionTape] = []
        self._materialized = False
        if self.messaging:
            from repro.analysis.rates import MEMO

            MEMO.flush()  # there is no module to write: store the reports now
            interp._engine_downgrade(
                "teleport messaging needs per-delivery firing boundaries that "
                "a fused module cannot honour; running the batched engine",
                code="SL305",
            )

    # -- materialization ------------------------------------------------------

    def _materialize(self) -> None:
        self._materialized = True
        interp = self.interp
        from repro import __version__
        from repro.analysis.rates import MEMO

        MEMO.flush()  # a codegen session is the rate reports' only writer
        signature = _plan_signature(
            self.graph, interp.program, self._senders, self._receivers
        )
        fingerprint = plan_fingerprint(self, signature, __version__)
        self.fingerprint = fingerprint
        try:
            source, outcome = self._load_or_emit(fingerprint)
            code = _MEM_CACHE[fingerprint]
            ns: dict = {}
            exec(code, ns)
            meta = ns.get("__codegen_meta__")
            if not isinstance(meta, dict):
                raise BindMismatch("module carries no __codegen_meta__")
            try:
                fallbacks, core_mode = bind_module(self, ns, meta)
            except BindMismatch:
                # Stale or foreign cached module: regenerate once.
                source, meta = emit_module(self, fingerprint)
                code = _compile(fingerprint, source)
                _mem_store(fingerprint, code)
                self.generated_path = _path_str(_disk_store(fingerprint, source, code))
                ns = {}
                exec(code, ns)
                fallbacks, core_mode = bind_module(self, ns, meta)
                outcome = "regenerated"
        except Unsupported as exc:
            self.codegen_active = False
            interp._engine_downgrade(
                f"codegen unavailable for this plan ({exc}); running the "
                "batched engine",
                code="SL305",
            )
            return
        run_chunk = ns["run_chunk"]
        tracer = interp.tracer
        if tracer.enabled:
            run_chunk = timed(tracer, run_chunk, self._chunk_span)
        self._chunk_steps = (run_chunk,)
        self.codegen_meta = meta
        self.generated_source = source
        self.cache_outcome = outcome
        self.codegen_fallbacks = fallbacks
        if fallbacks:
            interp._engine_downgrade(
                "codegen fell back to executor calls for: "
                + ", ".join(fallbacks),
                code="SL305",
            )

    def _load_or_emit(self, fingerprint: str) -> Tuple[str, str]:
        """Resolve (source, cache outcome); ensures ``_MEM_CACHE`` holds the
        compiled code object on return."""
        if fingerprint in _MEM_CACHE:
            codegen_cache_stats["mem_hits"] += 1
            _MEM_CACHE.move_to_end(fingerprint)
            source = self.generated_source
            path = _disk_path(fingerprint)
            if source is None:
                body = read_entry(path, _SOURCE_TAG)
                source = None if body is None else body.decode()
            self.generated_path = str(path) if path.is_file() else None
            if source is not None:
                return source, "mem_hit"
            # Counters say hit, but the source text is gone (disk cleared
            # since) — re-emit just the text for introspection.
            source, _meta = emit_module(self, fingerprint)
            return source, "mem_hit"
        codegen_cache_stats["mem_misses"] += 1
        stored = _disk_load(fingerprint)
        if stored is not None:
            source, code = stored
            try:
                if code is None:
                    code = _compile(fingerprint, source)
                    _code_store(fingerprint, source, code)
            except SyntaxError:
                pass  # corrupt artifact: fall through to regeneration
            else:
                _mem_store(fingerprint, code)
                self.generated_path = str(_disk_path(fingerprint))
                return source, "disk_hit"
        source, _meta = emit_module(self, fingerprint)
        code = _compile(fingerprint, source)
        _mem_store(fingerprint, code)
        self.generated_path = _path_str(_disk_store(fingerprint, source, code))
        return source, "miss"

    # -- execution ------------------------------------------------------------

    def _pass_steps(self):
        """A pass is one ``run_chunk(scale)`` call while codegen is active,
        the parent's walk over the blocks once it is not."""
        if self.codegen_active and not self._materialized:
            self._materialize()
        return self._chunk_steps if self.codegen_active else self._steps

    def _chunk_span(self, scale: int) -> Tuple[str, str, Dict[str, int]]:
        from repro.obs.tracer import CAT_CODEGEN

        firings = self.interp.program.steady.total_firings * scale
        return "codegen:run_chunk", CAT_CODEGEN, {"periods": scale, "firings": firings}

    def release_scratch(self) -> None:
        super().release_scratch()
        for tape in self._module_tapes:
            tape.release()

    # -- introspection ---------------------------------------------------------

    def codegen_report(self) -> Dict[str, object]:
        """Per-block lowering outcome plus cache counters (engine_report)."""
        blocks = None
        if self.codegen_meta is not None:
            blocks = []
            for m in self.codegen_meta["blocks"]:
                if m["kind"] == "fused":
                    blocks.append(
                        {
                            "kind": "fused",
                            "name": m.get("name", ""),
                            "modes": [s.get("mode") for s in m.get("stages", ())],
                        }
                    )
                else:
                    row = {
                        "kind": m["kind"],
                        "name": m.get("name", m["kind"]),
                        "mode": m.get("mode"),
                    }
                    if "tier" in m:
                        row["tier"] = m["tier"]
                    if "forwarded" in m:  # an inlined core: the form of each tape
                        edges, nodes = self.graph.edges, self.graph.nodes
                        names = {
                            str(i): f"{e.src.name}->{e.dst.name}" for i, e in enumerate(edges)
                        }
                        row["forwarded"] = [names[i] for i in m["forwarded"]]
                        row["taped"] = {names[i]: why for i, why in m["taped"].items()}
                        row["hoisted"] = sorted(
                            f"{nodes[i].name}.{attr}" for i, attr in m["hoisted"]
                        )
                    blocks.append(row)
        return {
            "active": self.codegen_active,
            "materialized": self._materialized,
            "cache_outcome": self.cache_outcome,
            "fingerprint": self.fingerprint,
            "fallbacks": list(self.codegen_fallbacks),
            "blocks": blocks,
            "cache": codegen_cache_summary(),
        }


def _path_str(path: Optional[Path]) -> Optional[str]:
    return str(path) if path is not None else None
