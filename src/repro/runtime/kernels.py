"""Kernel primitives shared by the ``work_batch`` kernels, hand-written and
compiler-made alike.

* :func:`ordered_mac` — the sliding dot product every FIR-shaped filter is
  built from, computed in the scalar loop's own association order so a
  batched kernel stays bit-identical to ``work()``;
* :func:`firing_windows` — the ``(n, peek)`` view of ``n`` firings' peek
  windows over an input tape, the only way ``src/`` builds one;
* :func:`const_array` — a filter's constant tuple as an ndarray, built once.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Sequence, Tuple

import numpy as np

_F64 = np.dtype(np.float64)

#: Most firings the table form takes; above it the tap loop runs.  The loop
#: pays two numpy calls (~1 us) per tap whatever ``n`` is, the table three
#: calls in total but ~4.4 ns per product against the loop's ~0.4 ns, so
#: the crossover sits at n ~ 1 us / 4 ns ~ 200-250 whatever the tap count
#: or stride.  Measured on the reference host (EXPERIMENTS.md E21),
#: tap loop / table, microseconds per call:
#:
#:     taps    n=1     n=32    n=128     n=256     n=4096
#:       8    11/2      8/4     8/8       9/12
#:      16    21/2     16/5    16/12     17/21     42/308
#:      64    84/2    58/11    60/36     66/73   162/1167
#:     512   654/4   467/62  477/258   502/558
#:
#: 128 keeps the table at 1 KiB per tap (64 KiB for a 64-tap FIR).
TABLE_MAX_FIRINGS = 128

#: Above this many firings the tap loop runs block by block, ``_LOOP_BLOCK``
#: firings at a time (each block is a plain ``ordered_mac`` call, so the
#: operations per element and their order are those of one pass).  One pass
#: streams three n-item arrays per tap — the total, the window slice and the
#: product — and past ~48 Ki firings they no longer share the reference
#: host's 1.25 MiB L2.  Measured there (EXPERIMENTS.md E22), one pass /
#: blocked, microseconds per call at stride 1:
#:
#:     taps   n=41248    n=49153      n=57344      n=65536
#:       16     323      435/440      543/515     1215/571
#:       64    1223     1650/1625    2175/1922    3359/2154
#:      128    2625     3316/3212    4257/3818    6159/4230
#:
#: i.e. 0.50 ns per product up to ~48 Ki firings, 0.73 at 64 Ki in one pass
#: and 0.50 blocked.  Only FIR's 65 536-firing chunk gets here today.
LOOP_BLOCK_ABOVE = 49_152
_LOOP_BLOCK = 16_384

#: Arrays built from constant tuples, keyed by the *identity* of the tuple
#: (the entry holds the tuple, so its id cannot be reused).  Not by value:
#: ``0.0 == -0.0`` and they hash alike, but ``x * 0.0`` and ``x * -0.0``
#: differ in sign.  ``id`` alone keys a coefficient column, ``(id, dtype)``
#: a :func:`const_array`.
_CONSTS: Dict[object, Tuple[tuple, np.ndarray]] = {}
_CONSTS_MAX = 1024


def _remember(key: object, values: tuple, array: np.ndarray) -> np.ndarray:
    if len(_CONSTS) >= _CONSTS_MAX:
        _CONSTS.clear()
    array.flags.writeable = False  # shared by every caller
    _CONSTS[key] = (values, array)
    return array


def _column(coeffs: Sequence[float]) -> np.ndarray:
    """``coeffs`` as a ``(taps, 1)`` float64 column (cached for tuples)."""
    entry = _CONSTS.get(id(coeffs))
    if entry is not None and entry[0] is coeffs:
        return entry[1]
    column = np.array(coeffs, dtype=np.float64).reshape(-1, 1)
    if type(coeffs) is not tuple:  # mutable or foreign: never cached
        return column
    return _remember(id(coeffs), coeffs, column)


def const_array(values: Sequence, dtype) -> np.ndarray:
    """``values`` as a read-only 1-D array of ``dtype``.

    Built once per tuple object, so a kernel can ask on every call; a filter
    keeps its constants as plain tuples (a private ndarray attribute would
    count as live state to the region lowering's collapse guard).  Anything
    but a tuple is mutable or foreign and is converted afresh.
    """
    key = (id(values), dtype)
    entry = _CONSTS.get(key)
    if entry is not None and entry[0] is values:
        return entry[1]
    array = np.array(values, dtype=dtype)
    if type(values) is not tuple:
        return array
    return _remember(key, values, array)


def firing_windows(base: np.ndarray, peek: int, pop: int, n: int) -> np.ndarray:
    """Read-only ``(n, peek)`` view of ``n`` firings' peek windows.

    Row ``j`` is ``base[j * pop : j * pop + peek]`` — what firing ``j`` of a
    ``(peek, pop)`` filter sees on a tape whose live items are ``base``.
    The view is built by the ``np.ndarray`` constructor, which checks it
    against ``base``'s buffer: a window that would run past the end raises
    instead of reading beyond it.  A ``base`` that is not contiguous
    float64 is copied first.
    """
    if base.dtype != _F64 or not base.flags.c_contiguous:
        base = np.ascontiguousarray(base, dtype=np.float64)
    windows = np.ndarray((n, peek), _F64, base, 0, (8 * pop, 8))
    windows.setflags(write=False)
    return windows


@lru_cache(maxsize=None)
def unit_taps(taps: int) -> Tuple[float, ...]:
    """``taps`` ones — the coefficients of a plain ordered sum (``x * 1.0``
    is exact for every ``x``).  The same tuple object on every call, so
    :func:`ordered_mac` finds its cached column."""
    return (1.0,) * taps


def ordered_mac(
    window: np.ndarray, coeffs: Sequence[float], n: int, stride: int
) -> np.ndarray:
    """``n`` sliding dot products in the scalar loop's association order.

    ``out[j]`` is bit-identical, sign of zero included, to::

        total = 0.0
        for i in range(len(coeffs)):
            total += window[j * stride + i] * coeffs[i]

    ``window`` is a 1-D float64 array of at least ``(n - 1) * stride +
    len(coeffs)`` items.  Returns a fresh array of ``n`` items.

    Two forms, chosen by ``n`` (:data:`TABLE_MAX_FIRINGS`): a tap loop
    vectorised across firings (cache-blocked above
    :data:`LOOP_BLOCK_ABOVE`), and up to the crossover one ``(taps, n)``
    table of products accumulated down its first axis.  ``np.add.reduce``
    is *not* an equivalent of the second: it reorders axes by stride and
    sums contiguous runs pairwise.
    """
    if n > LOOP_BLOCK_ABOVE:
        total = np.empty(n)
        for start in range(0, n, _LOOP_BLOCK):
            block = total[start : start + _LOOP_BLOCK]
            block[:] = ordered_mac(window[start * stride :], coeffs, block.size, stride)
        return total
    taps = len(coeffs)
    if n > TABLE_MAX_FIRINGS or not taps:
        total = np.zeros(n)
        stop = (n - 1) * stride + 1
        for i, c in enumerate(coeffs):
            items = window[i : i + stop : stride]
            total += items if c == 1.0 else items * c  # x * 1.0 is x, bit for bit
        return total
    if window.dtype != _F64 or not window.flags.c_contiguous:
        window = np.ascontiguousarray(window, dtype=np.float64)
    # table[i, j] = window[j * stride + i] * coeffs[i], as a view the
    # constructor bounds-checks against ``window`` (see firing_windows).
    table = np.ndarray((taps, n), _F64, window, 0, (8, 8 * stride)) * _column(coeffs)
    np.add.accumulate(table, axis=0, out=table)
    # accumulate starts at p0, the scalar loop at 0.0 + p0: they differ
    # only when every product is -0.0, which the + 0.0 restores.
    return table[-1] + 0.0
