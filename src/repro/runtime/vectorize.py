"""Generic filter vectorization: synthesize ``work_batch`` for any filter.

PR 1's batched engine only vectorized filters with a hand-written
``work_batch``.  This module lifts *arbitrary* filters onto the block path:

* **Lifting** (certified filters): the filter's own ``work()`` is re-run
  with its channels rebound to *vector shims* — ``pop()``/``peek(i)`` return
  whole columns of the :func:`~repro.runtime.kernels.firing_windows` view
  over the input tape (one row per firing, stride = pop rate), ``push()``
  collects column vectors, written straight onto the output tape once the
  declared rates are seen to hold — so one call of ``work`` computes all
  ``n`` firings at once.  ``math.*`` calls are redirected to a vector-math
  namespace that is *bit-identical* to ``math`` per element (numpy ufuncs
  where this platform's libm agrees bit-for-bit, ``np.frompyfunc``
  element-wise wrappers everywhere else; :mod:`repro.vecmath` lists both),
  preserving the scalar engine's exact floating-point results.
* **Hoisted-I/O loop** (everything else): ``work()`` still runs once per
  firing, but over a plain Python list snapshot of the input tape with all
  ArrayChannel indexing hoisted out of the loop — the items and arithmetic
  are exactly the scalar engine's.

Whether a filter is lifted is decided once per instance, after its
``init()`` (by the plan's ``run_init``, else at the executor's first
call): exactly when the static vectorization proof
(:mod:`repro.analysis.vectorsafety`) certifies it over the instance's live
attribute values.  A lifted instance still picks its form per call: a call
of fewer than :data:`LIFT_MIN_FIRINGS` firings runs the hoisted loop, where
a few Python float ops (~50 ns each) beat numpy calls on a short column
(~1 us each); a longer call runs the lifted kernel.  Both forms are
bit-identical to the scalar engine and a certified filter keeps no state,
so the choice changes time and never output.  The lifted call runs with
numpy's floating-point flags raising, so a firing the scalar engine would
fail on (``math.sqrt(-1)``, ``1.0 / 0``, an overflow) fails the lifted call
too; that failure, or any other, permanently demotes the instance to the
hoisted loop, which reruns the batch (the real channels are never touched
before a lifted call succeeds, so demotion is transparent) and raises what
scalar raises.
"""

from __future__ import annotations

import math
import types
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.runtime.channel import ChannelUnderflow, ListTape
from repro.runtime.kernels import firing_windows
from repro.runtime.messaging import Portal
from repro.vecmath import EXACT_UFUNCS, WRAPPED_FUNCS


#: Fewest firings a lifted filter's kernel runs; a shorter call runs the
#: hoisted loop.  The kernel pays ~1 us per numpy call whatever ``n`` is,
#: the loop ~50 ns per Python float op per firing, so the crossover is where
#: ``n`` firings of the loop outweigh one kernel call.  Measured on the
#: 2-CPU reference host (EXPERIMENTS.md E36, ``benchmarks/probe_one_period.py``),
#: kernel / loop, microseconds per call:
#:
#:     class             n=1     n=4     n=8    n=16    n=64
#:     SumReals        26/10   21/24   22/44   22/81  25/339
#:     BeamWeights     38/10   30/26   30/47   31/89  35/371
#:     BinMultiply    224/51 239/159 240/337 244/662 257/2572
#:     RealToComplex     8/4     8/6     7/8    9/13    9/36
#:     DFTBin         129/16   89/42   89/77  92/149   96/578
#:     RectToPolar      13/4    13/7   14/10   17/19   24/58
#:     PolarToRect      10/4    10/7   10/10   12/18   13/56
#:
#: (the other four lifted classes read like ``PolarToRect``).  Over all
#: eleven classes and n = 1, 2, 4 ... 64, 8 has the least summed regret:
#: 20 us, against 168 for 4 and 141 for 16.
LIFT_MIN_FIRINGS = 8


class _LiftError(Exception):
    """Internal: a lifted kernel violated the rate/shape contract."""


# -- vector math ------------------------------------------------------------
#
# repro.vecmath's ufuncs match this platform's libm bit for bit
# (tests/test_batched_engine.py checks every name); every other function is
# applied element-wise through the real ``math`` function via
# ``np.frompyfunc`` — vectorized dispatch, scalar libm semantics.


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
        for name, ufunc in EXACT_UFUNCS.items():
            setattr(self, name, ufunc)
        for name, nin in WRAPPED_FUNCS.items():
            setattr(self, name, _exact_elementwise(getattr(math, name), nin))

    def __getattr__(self, name: str):
        # Constants (pi, e, tau, inf, nan) and anything unwrapped fall back
        # to the real module.  The proof certifies no unwrapped *function*
        # on stream data; applied to a column anyway (on an arm a message
        # switched to) it raises TypeError, which demotes to the loop.
        return getattr(math, name)


VEC_MATH = _VecMath()


# -- lifting ---------------------------------------------------------------


#: filter class -> its ``work`` with ``math`` rebound to :data:`VEC_MATH`.
_LIFT_CACHE: Dict[type, Callable] = {}


def lift_work(cls: type) -> Callable:
    """Rebuild ``cls.work`` with ``math`` swapped for :data:`VEC_MATH`.

    The returned function still takes ``self``; vectorization happens via
    the channel shims bound by :func:`run_lifted`, not via code rewriting.
    """
    lifted = _LIFT_CACHE.get(cls)
    if lifted is None:
        fn = cls.work
        g = dict(fn.__globals__)
        if g.get("math") is math:
            g["math"] = VEC_MATH
        lifted = _LIFT_CACHE[cls] = types.FunctionType(
            fn.__code__, g, fn.__name__, fn.__defaults__, fn.__closure__
        )
    return lifted


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
        # A flag marks a firing the scalar engine raises on; the caller's
        # loop rerun raises the scalar exception.
        with np.errstate(divide="raise", invalid="raise", over="raise"):
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
        # cannot).  Columns may be views of the
        # input tape: dropped items stay in its buffer, which is not this one.
        alloc = getattr(out, "alloc_block", None)
        mat = np.empty((n, push)) if alloc is None else alloc(n * push).reshape(n, push)
        for j, col in enumerate(cols):
            mat[:, j] = col
        if alloc is None:
            out.push_block(mat)


# -- hoisted-I/O per-firing loop -------------------------------------------


def run_loop(filt, n: int) -> None:
    """``n`` scalar ``work()`` firings with channel I/O hoisted to lists.

    Values round-trip through Python floats exactly as on the scalar engine,
    so results are bit-identical for *any* filter, stateful or not.
    """
    inp, out = filt.input, filt.output
    tape = ListTape("", inp.peek_block(len(inp)).tolist()) if inp is not None else None
    sink = ListTape() if out is not None else None
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


# -- the adaptive executor --------------------------------------------------


class BatchExecutor:
    """Per-instance batched executor for filters without a hand kernel.

    :meth:`resolve` runs once, after ``init()``: a filter the static
    vectorization proof from :mod:`repro.analysis` certifies over its live
    attribute values is ``"lifted"``, and runs the lifted kernel for a call
    of at least :data:`LIFT_MIN_FIRINGS` firings and the hoisted loop below it;
    everything else runs the hoisted loop.  ``kind`` is ``"untried"``,
    ``"lifted"`` or ``"loop"``; a loop's reason (an ``SL301`` diagnostic)
    is kept on :attr:`downgrade`.
    """

    __slots__ = ("filt", "mode", "downgrade")

    def __init__(self, filt) -> None:
        self.filt = filt
        self.mode: Optional[str] = None
        self.downgrade = None
        if getattr(filt, "stateless", None) is False:
            reason = "filter opts out via stateless=False"
        elif any(isinstance(v, Portal) for v in vars(filt).values()):
            reason = "holds a teleport portal (message sender)"
        elif filt.rate.pop < 1:
            reason = "sources (pop == 0) are not batch-lifted"
        else:
            return
        self.mode = "loop"
        self.downgrade = self._make_downgrade((reason,))

    def _make_downgrade(self, reasons):
        from repro.analysis.vectorsafety import VectorProof

        return VectorProof(False, tuple(reasons)).diagnostic(self.filt)

    @property
    def kind(self) -> str:
        return self.mode or "untried"

    @property
    def trusted(self) -> bool:
        return self.mode == "lifted"

    def resolve(self) -> None:
        """Decide the mode once, after ``init()``: lifted exactly when the
        static proof certifies the filter over its live attribute values."""
        if self.mode is not None:
            return
        from repro.analysis import VectorProof, analyze_filter

        try:
            proof = analyze_filter(self.filt, refresh=True).proof
        except Exception as exc:
            proof = VectorProof(False, (f"static analysis failed: {exc}",))
        self.mode = "lifted" if proof.certified else "loop"
        if not proof.certified:
            self.downgrade = proof.diagnostic(self.filt)

    def __call__(self, n: int) -> None:
        if n <= 0:
            return
        if self.mode is None:  # no plan's run_init resolved this executor
            self.resolve()
        if self.mode == "lifted" and n >= LIFT_MIN_FIRINGS:
            try:
                run_lifted(self.filt, lift_work(type(self.filt)), n)
                return
            except Exception:
                # The proof holds at the attribute values it saw; a message
                # may since have switched work() onto another arm, or a
                # firing may raise on the scalar engine.  Real channels are
                # untouched on failure, so demote and rerun via the loop.
                self.mode = "loop"
                self.downgrade = self._make_downgrade(
                    ("lifted kernel failed at runtime; demoted to the loop path",)
                )
        run_loop(self.filt, n)
