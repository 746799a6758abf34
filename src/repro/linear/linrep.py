"""The linear representation of a filter: ``y = A @ x + b``.

A filter is *linear* (affine) when every item it pushes is an affine
combination of the items it peeks.  Following the paper, a linear filter is
fully described by the tuple ``[A, b, peek, pop, push]``:

* ``x = [peek(0), …, peek(peek-1)]`` — the input window, **oldest first**
  (``peek(0)`` is the next item to be popped);
* ``y = A @ x + b`` — the pushed items, **in push order** (``y[0]`` is
  pushed first);
* ``A.shape == (push, peek)``, ``b.shape == (push,)``.

The *expansion* operation — the representation of ``k`` consecutive firings
viewed as one — underlies the combination rules: firing ``j`` (0 = earliest)
reads window columns ``[j*pop, j*pop + peek)`` and writes rows
``[j*push, (j+1)*push)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.errors import StreamItError
from repro.graph.base import Filter
from repro.runtime.kernels import firing_windows


@dataclass(frozen=True)
class LinearRep:
    """An affine filter body ``y = A @ x + b`` with static rates."""

    A: np.ndarray
    b: np.ndarray
    pop: int

    def __post_init__(self) -> None:
        A = np.asarray(self.A, dtype=np.float64)
        b = np.asarray(self.b, dtype=np.float64)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        if A.ndim != 2:
            raise StreamItError(f"A must be 2-D, got shape {A.shape}")
        if b.shape != (A.shape[0],):
            raise StreamItError(f"b shape {b.shape} must be ({A.shape[0]},)")
        if self.pop <= 0:
            raise StreamItError(f"linear reps require pop > 0, got {self.pop}")
        if self.pop > self.peek:
            raise StreamItError(f"pop ({self.pop}) exceeds peek ({self.peek})")

    # -- shape --------------------------------------------------------------

    @property
    def push(self) -> int:
        return self.A.shape[0]

    @property
    def peek(self) -> int:
        return self.A.shape[1]

    @property
    def extra_peek(self) -> int:
        return self.peek - self.pop

    # -- semantics -----------------------------------------------------------

    def apply(self, window: Sequence[float]) -> np.ndarray:
        """Compute one firing's outputs from an input window (oldest first)."""
        x = np.asarray(window, dtype=np.float64)
        if x.shape != (self.peek,):
            raise StreamItError(f"window shape {x.shape} != ({self.peek},)")
        return self.A @ x + self.b

    def apply_stream(self, items: Sequence[float]) -> np.ndarray:
        """Run the filter over a whole input stream; returns all outputs.

        Fires ``floor((len(items) - extra_peek) / pop)`` times.
        """
        x = np.asarray(items, dtype=np.float64)
        n_firings = (len(x) - self.extra_peek) // self.pop
        if n_firings <= 0:
            return np.zeros(0)
        out = np.empty(n_firings * self.push)
        for j in range(n_firings):
            out[j * self.push : (j + 1) * self.push] = self.apply(
                x[j * self.pop : j * self.pop + self.peek]
            )
        return out

    # -- algebra --------------------------------------------------------------

    def expand(self, k: int) -> "LinearRep":
        """The representation of ``k`` consecutive firings as one firing.

        Result rates: ``peek' = peek + (k-1)*pop``, ``pop' = k*pop``,
        ``push' = k*push``.
        """
        if k < 1:
            raise StreamItError(f"expansion factor must be >= 1, got {k}")
        if k == 1:
            return self
        peek_e = self.peek + (k - 1) * self.pop
        A_e = np.zeros((k * self.push, peek_e))
        for j in range(k):
            A_e[j * self.push : (j + 1) * self.push, j * self.pop : j * self.pop + self.peek] = self.A
        b_e = np.tile(self.b, k)
        return LinearRep(A_e, b_e, pop=k * self.pop)

    def nnz(self) -> int:
        """Number of nonzero coefficients in ``A`` (drives the cost model)."""
        return int(np.count_nonzero(self.A))

    def equivalent(self, other: "LinearRep", tol: float = 1e-9) -> bool:
        """True if both reps denote the same stream transformation.

        Requires identical rates and (A, b) equal within ``tol``.
        """
        return (
            self.pop == other.pop
            and self.A.shape == other.A.shape
            and bool(np.allclose(self.A, other.A, atol=tol))
            and bool(np.allclose(self.b, other.b, atol=tol))
        )

    def to_filter(self, name: Optional[str] = None) -> "LinearFilter":
        """Materialize as an executable :class:`LinearFilter`."""
        return LinearFilter(self, name=name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LinearRep(peek={self.peek}, pop={self.pop}, push={self.push})"


class LinearFilter(Filter):
    """A filter that directly executes a :class:`LinearRep` with numpy."""

    supports_work_batch = True

    def __init__(self, rep: LinearRep, name: Optional[str] = None) -> None:
        super().__init__(peek=rep.peek, pop=rep.pop, push=rep.push, name=name)
        self.rep = rep

    def work(self) -> None:
        rep = self.rep
        window = np.fromiter(
            (self.peek(i) for i in range(rep.peek)), dtype=np.float64, count=rep.peek
        )
        y = rep.A @ window + rep.b
        for _ in range(rep.pop):
            self.pop()
        for value in y:
            self.push(float(value))

    def work_batch(self, n: int) -> None:
        """``n`` firings as one matmul over the strided peek window.

        Row ``j`` of ``X @ A.T`` is ``A @ x_j`` — the same multiply/add
        pairs per firing as :meth:`work`, evaluated by a GEMM instead of
        ``n`` GEMVs (BLAS kernel selection may differ in the last ulp; the
        order-sensitive contract tests therefore use a tight ``allclose``
        for this filter, unlike the data-movement and loop-sequential
        kernels which are exactly bit-identical).
        """
        rep = self.rep
        window = self.input.peek_block((n - 1) * rep.pop + rep.peek)
        X = firing_windows(window, rep.peek, rep.pop, n)
        Y = X @ rep.A.T
        np.add(Y, rep.b, out=Y)
        self.input.drop(n * rep.pop)
        self.output.push_block(Y)


def fir_rep(coeffs: Sequence[float]) -> LinearRep:
    """The linear rep of a single-output FIR filter.

    With taps ``h[0..N-1]`` computing ``y = sum_i h[i] * peek(i)`` (so
    ``h[0]`` multiplies the *oldest* item in the window), ``A`` is the row
    vector ``h`` and ``pop`` is 1.
    """
    h = np.asarray(list(coeffs), dtype=np.float64)
    return LinearRep(h[None, :], np.zeros(1), pop=1)
