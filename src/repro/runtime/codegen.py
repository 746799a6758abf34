"""The generated module of a core: emitted, compiled and run for the core
that lowers it.

A plan runs by walking its blocks (:mod:`repro.runtime.plan`); the one
block generated code speeds up is the cyclic core of a feedback loop,
which :class:`~repro.runtime.codegen_emit.CoreEmitter` lowers to an
inlined closed loop.  Its second job is a plan's small calls: the whole
steady schedule as one core (:class:`~repro.runtime.plan.SmallCalls`),
lowered the same way.  :func:`lower_core` emits that module from the core's
live tapes and filters, compiles it, and runs it in the namespace the
emitter hands over with the text; the core then runs its ``run_chunk``.
Nothing is stored or looked up: the module exists for the one core it was
emitted from.  The emitter
(:mod:`repro.runtime.codegen_emit`) is imported only when a core is
lowered.

The counters :data:`codegen_cache_stats` are those of the on-disk store
(:mod:`repro.diskcache`, the rate reports); they surface through
``engine_report()`` and ``python -m repro.obs report``.
"""

from __future__ import annotations

from typing import Callable

from repro.diskcache import clear_disk, codegen_cache_stats


def clear_codegen_cache(disk: bool = False) -> None:
    """Zero the store's counters; with ``disk=True`` also delete every
    on-disk entry."""
    for key in codegen_cache_stats:
        codegen_cache_stats[key] = 0
    if disk:
        clear_disk()


def lower_core(core) -> Callable[[int], None]:
    """``core``'s generated ``run_chunk``, bound to its live objects.

    Runs at the plan's first steady pass, after ``init()`` and the init
    schedule: the emitter reads the tapes' post-init contents and folds
    the attribute values ``init()`` fixed, which the module guards by
    identity (a rebinding sends the call to :meth:`CoreLoopRunner.stale`).
    """
    from repro.runtime.codegen_emit import emit_module

    source, namespace, lowering, lists = emit_module(core)
    exec(compile(source, f"<codegen:{core.name}>", "exec"), namespace)
    core.source, core.lowering = source, lowering
    core.keep_lists(lists)
    return namespace["run_chunk"]
