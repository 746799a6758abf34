"""Runtime execution: channels, the interpreter, and teleport messaging."""

from repro import lazy_getattr
from repro.errors import EngineDowngradeWarning
from repro.runtime.array_channel import ArrayChannel
from repro.runtime.channel import Channel, ChannelUnderflow
from repro.runtime.codegen import (
    clear_codegen_cache,
    codegen_cache_stats,
    codegen_cache_summary,
)
from repro.runtime.interpreter import ENGINES, Interpreter, run_to_list
from repro.runtime.messaging import BEST_EFFORT, PendingMessage, Portal, TimeInterval
from repro.runtime.plan import (
    ExecutionPlan,
    clear_plan_cache,
    compile_and_run,
    plan_cache_stats,
    plan_cache_summary,
)
from repro.runtime.vectorize import BatchExecutor

#: The multi-process engine's names, imported on first use: a
#: single-process run never loads it.
__getattr__ = lazy_getattr(__name__, {
    "repro.runtime.parallel": ("ParallelSession", "ParallelUnsafe"),
    "repro.runtime.ring": ("RingAbort", "RingArena", "RingChannel", "RingStall"),
})

__all__ = [
    "ArrayChannel",
    "BatchExecutor",
    "Channel",
    "ChannelUnderflow",
    "ENGINES",
    "EngineDowngradeWarning",
    "ExecutionPlan",
    "Interpreter",
    "ParallelSession",
    "ParallelUnsafe",
    "RingAbort",
    "RingArena",
    "RingChannel",
    "RingStall",
    "clear_codegen_cache",
    "clear_plan_cache",
    "codegen_cache_stats",
    "codegen_cache_summary",
    "compile_and_run",
    "plan_cache_stats",
    "plan_cache_summary",
    "run_to_list",
    "Portal",
    "TimeInterval",
    "PendingMessage",
    "BEST_EFFORT",
]
