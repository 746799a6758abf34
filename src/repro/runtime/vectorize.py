"""Generic filter vectorization: synthesize ``work_batch`` for any filter.

PR 1's batched engine only vectorized filters with a hand-written
``work_batch``.  This module lifts *arbitrary* filters onto the block path:

* **Lifting** (stateless filters): the filter's own ``work()`` is re-run with
  its channels rebound to *vector shims* — ``pop()``/``peek(i)`` return whole
  columns of the :func:`~repro.runtime.kernels.firing_windows` view over the
  input tape (one row per firing, stride = pop rate), ``push()`` collects
  column vectors, written straight onto the output tape once the declared
  rates are seen to hold — so one call of ``work`` computes all ``n``
  firings at once.  ``math.*`` calls are
  redirected to a vector-math namespace that is *bit-identical* to ``math``
  per element (numpy ufuncs where this platform's libm agrees bit-for-bit,
  ``np.frompyfunc`` element-wise wrappers everywhere else), preserving the
  scalar engine's exact floating-point results.
* **Hoisted-I/O loop** (everything else): ``work()`` still runs once per
  firing, but over a plain Python list snapshot of the input tape with all
  ArrayChannel indexing hoisted out of the loop — the items and arithmetic
  are exactly the scalar engine's.

Whether a filter *may* be lifted is decided adaptively per instance:

1. a bytecode screen rejects work functions that store attributes/globals
   (overridable via :attr:`Filter.stateless`);
2. on the executor's first call, a **trial** runs a scalar reference loop
   and the lifted kernel side-by-side on clones of the filter over a copy of
   the first real input window, and adopts the lifted kernel only if the
   outputs are bit-identical, the declared rates were honoured, and neither
   clone's state changed (statelessness proven, not assumed);
3. any later failure of the lifted kernel permanently demotes the instance
   to the hoisted loop (the real channels are never touched before a lifted
   call succeeds, so demotion is transparent).
"""

from __future__ import annotations

import copy
import dis
import math
import types
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.runtime.array_channel import ArrayChannel, ChannelUnderflow
from repro.runtime.kernels import firing_windows
from repro.runtime.messaging import Portal

#: Firings used by the bit-exactness trial (capped so a superbatched first
#: call doesn't pay a long scalar reference loop).
_TRIAL_FIRINGS = 32

#: Opcodes whose presence in ``work`` marks the filter as (potentially)
#: stateful or environment-mutating; such filters are never lifted.  Local
#: variable and local-subscript stores are allowed — scratch lists indexed
#: inside one firing (e.g. an in-place FFT butterfly) are still pure.
_BLOCKED_OPS = frozenset(
    {
        "STORE_ATTR",
        "DELETE_ATTR",
        "STORE_GLOBAL",
        "DELETE_GLOBAL",
        "STORE_DEREF",
        "DELETE_DEREF",
        "IMPORT_NAME",
    }
)


class _LiftError(Exception):
    """Internal: a lifted kernel violated the rate/shape contract."""


# -- vector math ------------------------------------------------------------
#
# The lifted work function must produce *bit-identical* values to per-firing
# ``math.*`` calls.  numpy's ufuncs are only used where they provably match
# this platform's libm (verified by tests/test_batched_engine.py); every
# other function is applied element-wise through the real ``math`` function
# via ``np.frompyfunc`` — vectorized dispatch, scalar libm semantics.

#: numpy ufuncs that are bit-identical to ``math.*`` here: IEEE-exact
#: operations plus the transcendentals verified on this platform.
_EXACT_UFUNCS: Dict[str, Any] = {
    "sqrt": np.sqrt,
    "sin": np.sin,
    "cos": np.cos,
    "floor": np.floor,
    "ceil": np.ceil,
    "trunc": np.trunc,
    "fabs": np.fabs,
    "copysign": np.copysign,
}

#: name -> arity for functions routed through exact element-wise wrappers.
_WRAPPED_FUNCS: Dict[str, int] = {
    "atan2": 2,
    "hypot": 2,
    "fmod": 2,
    "pow": 2,
    "atan": 1,
    "asin": 1,
    "acos": 1,
    "tan": 1,
    "exp": 1,
    "expm1": 1,
    "log": 1,
    "log1p": 1,
    "log2": 1,
    "log10": 1,
    "sinh": 1,
    "cosh": 1,
    "tanh": 1,
}


def _exact_elementwise(fn: Callable, nin: int) -> Callable:
    ufn = np.frompyfunc(fn, nin, 1)

    def wrapped(*args):
        if any(isinstance(a, np.ndarray) for a in args):
            return ufn(*args).astype(np.float64)
        return fn(*args)

    wrapped.__name__ = fn.__name__
    return wrapped


class _VecMath:
    """Drop-in for the ``math`` module inside lifted work functions."""

    def __init__(self) -> None:
        for name, ufunc in _EXACT_UFUNCS.items():
            setattr(self, name, ufunc)
        for name, nin in _WRAPPED_FUNCS.items():
            setattr(self, name, _exact_elementwise(getattr(math, name), nin))

    def __getattr__(self, name: str):
        # Constants (pi, e, tau, inf, nan) and anything unwrapped fall back
        # to the real module; an unwrapped *function* applied to an array
        # raises TypeError, which the trial turns into a loop fallback.
        return getattr(math, name)


VEC_MATH = _VecMath()


# -- lifting ---------------------------------------------------------------


def _has_blocked_ops(code: types.CodeType) -> bool:
    for instr in dis.get_instructions(code):
        if instr.opname in _BLOCKED_OPS:
            return True
    for const in code.co_consts:
        if isinstance(const, types.CodeType) and _has_blocked_ops(const):
            return True
    return False


#: (filter class, trusted) -> lifted work function, or None if unliftable.
_LIFT_CACHE: Dict[Tuple[type, bool], Optional[Callable]] = {}


def lift_work(cls: type, trusted: bool = False) -> Optional[Callable]:
    """Rebuild ``cls.work`` with ``math`` swapped for :data:`VEC_MATH`.

    Returns ``None`` when the bytecode screen rejects the work function
    (skipped when ``trusted`` — the filter declared ``stateless = True``).
    The returned function still takes ``self``; vectorization happens via
    the channel shims bound by :func:`run_lifted`, not via code rewriting.
    """
    key = (cls, trusted)
    if key not in _LIFT_CACHE:
        fn = cls.work
        lifted: Optional[Callable] = None
        if trusted or not _has_blocked_ops(fn.__code__):
            g = dict(fn.__globals__)
            if g.get("math") is math:
                g["math"] = VEC_MATH
            lifted = types.FunctionType(
                fn.__code__, g, fn.__name__, fn.__defaults__, fn.__closure__
            )
        _LIFT_CACHE[key] = lifted
    return _LIFT_CACHE[key]


class _VecIn:
    """Input shim: ``pop``/``peek`` return one *column* per call.

    ``_windows[k]`` is firing ``k``'s peek window, so column ``c`` holds the
    item each firing sees at offset ``c`` from its own tape front.
    """

    __slots__ = ("_windows", "_peek", "cursor")

    def __init__(self, windows: np.ndarray, peek: int) -> None:
        self._windows = windows
        self._peek = peek
        self.cursor = 0

    def pop(self) -> np.ndarray:
        c = self.cursor
        if c >= self._peek:
            raise ChannelUnderflow(f"lifted pop past peek window ({self._peek})")
        self.cursor = c + 1
        return self._windows[:, c]

    def peek(self, index: int) -> np.ndarray:
        c = self.cursor + index
        if index < 0 or c >= self._peek:
            raise ChannelUnderflow(f"lifted peek({index}) past window ({self._peek})")
        return self._windows[:, c]


class _VecOut:
    """Output shim: collects one column (or broadcast scalar) per ``push``."""

    __slots__ = ("cols",)

    def __init__(self) -> None:
        self.cols: List[Any] = []

    def push(self, item: Any) -> None:
        self.cols.append(item)


def run_lifted(filt, lifted: Callable, n: int) -> None:
    """Execute ``n`` firings of ``filt`` through one lifted ``work`` call.

    The real channels are untouched until the lifted call has produced a
    complete, rate-consistent set of output columns — on any failure the
    caller can fall back to the per-firing loop with no state to unwind.
    """
    rate = filt.rate
    pop, peek, push = rate.pop, rate.peek, rate.push
    inp, out = filt.input, filt.output
    base = inp.peek_block((n - 1) * pop + peek)
    if pop == peek:
        windows = base.reshape(n, pop)
        windows.setflags(write=False)  # an in-place op on a column must fail
    else:
        windows = firing_windows(base, peek, pop, n)
    vin = _VecIn(windows, peek)
    vout = _VecOut()
    filt.input = vin
    filt.output = vout
    try:
        lifted(filt)
    finally:
        filt.input = inp
        filt.output = out
    if vin.cursor != pop:
        raise _LiftError(f"popped {vin.cursor}, declared {pop}")
    cols = vout.cols
    if len(cols) != push:
        raise _LiftError(f"pushed {len(cols)} columns, declared {push}")
    for j, col in enumerate(cols):
        cols[j] = col = np.asarray(col, dtype=np.float64)
        if col.ndim and col.shape != (n,):
            raise _LiftError(f"column {j} has shape {col.shape}, need ({n},)")
    inp.drop(n * pop)
    if push:
        # Fill the output tape's own tail where it can hand one out (a ring
        # or a region's column slice cannot).  Columns may be views of the
        # input tape: dropped items stay in its buffer, which is not this one.
        alloc = getattr(out, "alloc_block", None)
        mat = np.empty((n, push)) if alloc is None else alloc(n * push).reshape(n, push)
        for j, col in enumerate(cols):
            mat[:, j] = col
        if alloc is None:
            out.push_block(mat)


# -- hoisted-I/O per-firing loop -------------------------------------------


class _ListTape:
    """Input shim for the loop fallback: plain-list reads, no array indexing."""

    __slots__ = ("_items", "cursor")

    def __init__(self, items: List[float]) -> None:
        self._items = items
        self.cursor = 0

    def pop(self) -> float:
        c = self.cursor
        if c >= len(self._items):
            raise ChannelUnderflow("pop on exhausted batch window")
        self.cursor = c + 1
        return self._items[c]

    def peek(self, index: int) -> float:
        j = self.cursor + index
        if index < 0 or j >= len(self._items):
            raise ChannelUnderflow(f"peek({index}) beyond batch window")
        return self._items[j]


class _ListSink:
    __slots__ = ("items",)

    def __init__(self) -> None:
        self.items: List[float] = []

    def push(self, item: float) -> None:
        self.items.append(item)


def run_loop(filt, n: int) -> None:
    """``n`` scalar ``work()`` firings with channel I/O hoisted to lists.

    Values round-trip through Python floats exactly as on the scalar engine,
    so results are bit-identical for *any* filter, stateful or not.
    """
    inp, out = filt.input, filt.output
    tape = _ListTape(inp.peek_block(len(inp)).tolist()) if inp is not None else None
    sink = _ListSink() if out is not None else None
    filt.input = tape
    filt.output = sink
    try:
        for _ in range(n):
            filt.work()
    finally:
        filt.input = inp
        filt.output = out
    if tape is not None and tape.cursor:
        inp.drop(tape.cursor)
    if sink is not None and sink.items:
        out.push_block(np.asarray(sink.items, dtype=np.float64))


# -- trial ------------------------------------------------------------------

#: Attributes that are runtime wiring, not filter state.
_NON_STATE_ATTRS = frozenset({"input", "output", "parent", "uid", "name", "rate", "_rt_owner"})


def _state_items(filt) -> Dict[str, Any]:
    return {k: v for k, v in vars(filt).items() if k not in _NON_STATE_ATTRS}


def _values_equal(a: Any, b: Any) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(np.asarray(a), np.asarray(b))
    try:
        return bool(a == b)
    except Exception:
        return False


def _state_equal(filt, other) -> bool:
    sa, sb = _state_items(filt), _state_items(other)
    if sa.keys() != sb.keys():
        return False
    return all(_values_equal(sa[k], sb[k]) for k in sa)


def _clone(filt):
    """Deep copy of a filter with runtime wiring (and the graph) detached."""
    saved = {k: vars(filt).get(k, _clone) for k in ("input", "output", "parent", "_rt_owner")}
    for k in saved:
        if saved[k] is not _clone:
            setattr(filt, k, None)
    try:
        clone = copy.deepcopy(filt)
    finally:
        for k, v in saved.items():
            if v is not _clone:
                setattr(filt, k, v)
    return clone


def _trial_ok(filt, lifted: Callable, n: int) -> bool:
    """Prove the lifted kernel on clones before touching real state.

    A scalar reference loop and the lifted kernel run on two fresh clones of
    ``filt`` over copies of the first ``n`` real input windows.  Adoption
    requires bit-identical outputs, declared rates honoured, and both
    clones' state unchanged — a filter that mutates state (in ways the
    bytecode screen cannot see, e.g. ``self.history.append``) fails here and
    drops to the loop path.
    """
    try:
        rate = filt.rate
        pop, peek, push = rate.pop, rate.peek, rate.push
        window = np.array(filt.input.peek_block((n - 1) * pop + peek), copy=True)
        ref, cand = _clone(filt), _clone(filt)

        ref.input = ArrayChannel("trial.ref.in", window)
        ref.output = ArrayChannel("trial.ref.out")
        for _ in range(n):
            ref.work()
        if ref.input.popped_count != n * pop or len(ref.output) != n * push:
            return False

        cand.input = ArrayChannel("trial.cand.in", window)
        cand.output = ArrayChannel("trial.cand.out")
        run_lifted(cand, lifted, n)
        if len(cand.output) != n * push:
            return False

        expect = ref.output.peek_block(n * push)
        got = cand.output.peek_block(n * push)
        if not np.array_equal(expect, got):
            return False
        return _state_equal(ref, filt) and _state_equal(cand, filt)
    except Exception:
        return False


# -- the adaptive executor --------------------------------------------------


class BatchExecutor:
    """Per-instance batched executor for filters without a hand kernel.

    Mode resolution is lazy (first call): filters carrying a static
    vectorization proof from :mod:`repro.analysis` adopt the lifted kernel
    immediately (``trusted`` — no trial clones); everything else falls back
    to the empirical trial.  ``kind`` is ``"untried"``, ``"lifted"`` or
    ``"loop"``; a structured downgrade reason (an ``SL301`` diagnostic) is
    kept on :attr:`downgrade` whenever the static proof failed.
    """

    __slots__ = ("filt", "lifted", "mode", "trusted", "downgrade", "_allow_trusted")

    def __init__(self, filt, allow_trusted: bool = True) -> None:
        self.filt = filt
        self.trusted = False
        self.downgrade = None
        hint = getattr(filt, "stateless", None)
        has_portal = any(isinstance(v, Portal) for v in vars(filt).values())
        if hint is False or has_portal or filt.rate.pop < 1:
            self.lifted = None
            if hint is False:
                reason = "filter opts out via stateless=False"
            elif has_portal:
                reason = "holds a teleport portal (message sender)"
            else:
                reason = "sources (pop == 0) are not batch-lifted"
            self.downgrade = self._make_downgrade((reason,))
        else:
            self.lifted = lift_work(type(filt), trusted=(hint is True))
            if self.lifted is None:
                self.downgrade = self._make_downgrade(
                    ("bytecode screen: work() stores attributes or globals",)
                )
        self.mode: Optional[str] = None if self.lifted is not None else "loop"
        self._allow_trusted = bool(allow_trusted) and self.lifted is not None

    def _make_downgrade(self, reasons):
        from repro.analysis.vectorsafety import VectorProof

        return VectorProof(False, tuple(reasons)).diagnostic(self.filt)

    def _certify(self) -> bool:
        """Consult the static vectorization proof; record the outcome.

        Runs at first call — after ``init()`` — so the effects/rate passes
        see the instance's live attribute values.
        """
        from repro.analysis import analyze_filter
        from repro.analysis.rates import FOREIGN_STORE

        try:
            analysis = analyze_filter(self.filt, refresh=True)
        except Exception:
            # An analyzer crash certifies nothing: the caller falls back
            # to the stricter path, the empirical trial on clones.
            return False
        proof = analysis.proof
        if proof.certified:
            self.downgrade = None
            return True
        self.downgrade = proof.diagnostic(self.filt)
        if FOREIGN_STORE in proof.reasons:
            # State outside the instance: clones would share it, so the
            # trial itself would corrupt the run.  Straight to the loop.
            self.mode = "loop"
        return False

    @property
    def kind(self) -> str:
        return self.mode or "untried"

    def __call__(self, n: int) -> None:
        if n <= 0:
            return
        if self.mode is None:
            if self._allow_trusted and self._certify():
                # Statically proven batch-safe: adopt the lifted kernel
                # with no trial clones.  run_lifted's rate checks and the
                # demote-on-exception below remain as a runtime safety net.
                self.trusted = True
                self.mode = "lifted"
            elif self.mode is None:  # _certify() may have ruled the trial out
                ok = _trial_ok(self.filt, self.lifted, min(n, _TRIAL_FIRINGS))
                self.mode = "lifted" if ok else "loop"
        if self.mode == "lifted":
            try:
                run_lifted(self.filt, self.lifted, n)
                return
            except Exception:
                # A kernel that survived the trial (or the static proof)
                # can still trip on larger batches (e.g. data-dependent
                # branches that happened to be uniform over the trial
                # window).  Real channels are untouched on failure, so
                # demote and rerun via the loop.
                self.mode = "loop"
                self.trusted = False
                if self.downgrade is None:
                    self.downgrade = self._make_downgrade(
                        ("lifted kernel failed at runtime; demoted to the loop path",)
                    )
        run_loop(self.filt, n)
