"""The generated module of a feedback core: cache, binder, lowering.

A plan runs by walking its blocks (:mod:`repro.runtime.plan`); the one
block generated code speeds up is the cyclic core of a feedback loop,
which :class:`~repro.runtime.codegen_emit.CoreEmitter` lowers to an
inlined closed loop.  :func:`lower_core` finds that module — in memory, on
disk, or freshly emitted and compiled — and binds it to the core's live
objects; the core then runs its ``run_chunk`` instead of the interpreted
loop.

Generated modules are cached twice:

* **in memory**, keyed by the plan fingerprint (structural signature +
  work() code hashes + emitter revision), bounded LRU;
* **on disk** (:mod:`repro.diskcache`), one ``<fingerprint>.py`` per module
  and beside it the compiled ``<fingerprint>.code``, bounded by mtime
  eviction — a second process lowering the same core skips emission and
  ``compile()`` both.  The code object is tied to this interpreter's
  bytecode magic and to the text it was compiled from; one that does not
  verify is recompiled from the (verified) text.

Counters for every level live in :data:`codegen_cache_stats` and surface
through ``engine_report()`` and ``python -m repro.obs report``.  The
emitter (:mod:`repro.runtime.codegen_emit`) is imported only when a core
is lowered.
"""

from __future__ import annotations

import hashlib
import importlib.util
import marshal
import os
import types
from collections import OrderedDict
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple

from repro.diskcache import (
    cache_dir,
    clear_disk,
    codegen_cache_stats,
    evict,
    read_entry,
    write_entry,
)
from repro.runtime.plan import _plan_signature

# -- module cache (memory + disk) ---------------------------------------------

#: fingerprint -> (module text, its code object)
_MEM_CACHE: "OrderedDict[str, Tuple[str, types.CodeType]]" = OrderedDict()
_MEM_CACHE_MAX = 64
_DISK_CACHE_MAX = 128

#: Only the file carries its digest line: what is compiled and what
#: ``core.source`` shows is the module text alone.
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


def _disk_store(fingerprint: str, source: str, code: types.CodeType) -> None:
    path = _disk_path(fingerprint)
    if not write_entry(path, _SOURCE_TAG, source.encode()):
        return
    _code_store(fingerprint, source, code)
    for victim in evict(path.parent, ".py", _DISK_CACHE_MAX):
        victim.with_suffix(".code").unlink(missing_ok=True)
        codegen_cache_stats["disk_evictions"] += 1


def _mem_store(fingerprint: str, source: str, code: types.CodeType) -> None:
    _MEM_CACHE[fingerprint] = (source, code)
    _MEM_CACHE.move_to_end(fingerprint)
    while len(_MEM_CACHE) > _MEM_CACHE_MAX:
        _MEM_CACHE.popitem(last=False)
        codegen_cache_stats["mem_evictions"] += 1


def _lookup(fingerprint: str) -> Optional[Tuple[str, types.CodeType, str]]:
    """``(source, code, outcome)`` from memory or disk; None on a miss."""
    entry = _MEM_CACHE.get(fingerprint)
    if entry is not None:
        codegen_cache_stats["mem_hits"] += 1
        _MEM_CACHE.move_to_end(fingerprint)
        return (*entry, "mem_hit")
    codegen_cache_stats["mem_misses"] += 1
    stored = _disk_load(fingerprint)
    if stored is None:
        return None
    source, code = stored
    if code is None:
        try:
            code = _compile(fingerprint, source)
        except SyntaxError:  # corrupt artifact: the caller regenerates
            return None
        _code_store(fingerprint, source, code)
    _mem_store(fingerprint, source, code)
    return source, code, "disk_hit"


# -- binding ------------------------------------------------------------------


class BindMismatch(Exception):
    """A cached module's meta does not line up with this core."""


def bind_core(core, ns: dict, meta: dict) -> dict:
    """Inject ``core``'s live objects into an exec'd core module.

    Checks the module's ``__codegen_meta__`` against the core as it goes
    (any disagreement raises :class:`BindMismatch` — the caller emits the
    module again) and returns the module's core entry.
    """
    from repro.runtime.codegen_emit import EMITTER_VERSION, plain_attribute

    if meta.get("emitter") != EMITTER_VERSION:
        raise BindMismatch("emitter version mismatch")
    blocks = meta.get("blocks", ())
    if len(blocks) != 1:
        raise BindMismatch("a core module describes one core")
    (m,) = blocks
    graph = core.plan.graph
    nodes, edges = list(graph.nodes), graph.edges
    node_index = {n: i for i, n in enumerate(nodes)}
    if m.get("kind") != "core" or m.get("nodes") != sorted(
        node_index[n] for n in core.nodes
    ):
        raise BindMismatch("core block mismatch")
    # The module keeps every tape of the core in one of two forms; a
    # forwarded one carries a fixed number of items.
    forwarded, taped = m.get("forwarded", {}), m.get("taped", {})
    if {int(i) for i in [*forwarded, *taped]} != set(core.edge_index.values()):
        raise BindMismatch("core tapes differ from the module's")
    for index, held in forwarded.items():
        edge = edges[int(index)]
        if core.held(edge) != held:
            raise BindMismatch(
                f"core tape {edge.src.name}->{edge.dst.name} does not hold {held} items"
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
        reducer = getattr(getattr(nodes[i].obj, "joiner", None), "reducer", None)
        if reducer is None:
            raise BindMismatch("cached module expects a reducer")
        ns[f"_rd{i}"] = reducer
    ns["_core"] = core
    return m


def _bound(core, fingerprint: str, source: str, code, outcome: str) -> Callable[[int], None]:
    ns: dict = {}
    exec(code, ns)
    meta = ns.get("__codegen_meta__")
    if not isinstance(meta, dict):
        raise BindMismatch("module carries no __codegen_meta__")
    m = bind_core(core, ns, meta)
    names = {
        str(i): f"{e.src.name}->{e.dst.name}" for i, e in enumerate(core.plan.graph.edges)
    }
    nodes = core.plan.graph.nodes
    core.source = source
    path = _disk_path(fingerprint)
    core.path = str(path) if path.is_file() else None
    core.lowering = {
        "mode": "inline",
        "cache_outcome": outcome,
        "fingerprint": fingerprint,
        "forwarded": [names[i] for i in m["forwarded"]],
        "taped": {names[i]: why for i, why in m["taped"].items()},
        "hoisted": sorted(f"{nodes[i].name}.{attr}" for i, attr in m["hoisted"]),
    }
    return ns["run_chunk"]


def lower_core(core) -> Callable[[int], None]:
    """``core``'s generated ``run_chunk``, bound to its live objects.

    Runs at the plan's first steady pass, after ``init()`` and the init
    schedule: the binder checks the tapes' post-init contents and the
    hoisted attributes' live values.  Raises
    :class:`~repro.runtime.codegen_emit.Unsupported` when the emitter
    cannot lower the core.
    """
    from repro import __version__
    from repro.runtime.codegen_emit import emit_module, plan_fingerprint

    plan = core.plan
    signature = _plan_signature(
        plan.graph, plan.interp.program, plan._senders, plan._receivers
    )
    fingerprint = plan_fingerprint(plan, signature, __version__)
    found = _lookup(fingerprint)
    if found is not None:
        source, code, outcome = found
        try:
            return _bound(core, fingerprint, source, code, outcome)
        except BindMismatch:
            pass  # a stale or foreign module: emit it again
    source, _meta = emit_module(plan, fingerprint)
    code = _compile(fingerprint, source)
    _mem_store(fingerprint, source, code)
    _disk_store(fingerprint, source, code)
    return _bound(core, fingerprint, source, code, "miss" if found is None else "regenerated")
