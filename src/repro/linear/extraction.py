"""Linear extraction: detecting linear filters from their ``work`` code.

The paper's *linear dataflow analysis* symbolically executes a filter's
``work`` function over a domain where every value is a *constant* or an
*affine form* ``c0 + Σ c_i · peek(i)``.  That executor is the one the rate
analysis already runs (:mod:`repro.analysis.rates`, asked for *rows*): it
unrolls constant control flow, inlines the filter's own helper methods,
reads ``__init__``-time attributes as constants, never calls foreign code
and never writes to a live object.  If every pushed item is still an affine
form at the end (and the filter keeps no state), the filter is linear and
the rows are its :class:`LinearRep`.

A write to ``self`` — direct, through an alias or in a helper — makes the
filter *stateful* (never linear; also what gates fission); a branch, index
or loop bound on stream data, or a nonlinear operator, makes it *not
linear*.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.analysis.effects import STATEFUL, classify
from repro.analysis.linearity import affine_prescreen
from repro.analysis.rates import affine_rows
from repro.errors import ExtractionError
from repro.graph.base import Filter
from repro.linear.linrep import LinearRep


@dataclass(frozen=True)
class ExtractionResult:
    """Outcome of linear extraction on one filter."""

    rep: Optional[LinearRep]
    stateful: bool
    reason: str

    @property
    def linear(self) -> bool:
        return self.rep is not None


def try_extract(filt: Filter) -> ExtractionResult:
    """Run linear extraction, reporting the rep or the reason it failed.

    The effects pre-screen answers "stateful" (and "sends messages") from
    the alias- and helper-aware write set; what passes it is executed once
    per distinct (class, values read) with rows.  A ``work()`` that breaks
    its declared rates is an :class:`ExtractionError`, not a verdict.
    """
    rate = filt.rate
    if rate.pop == 0 or rate.push == 0:
        return ExtractionResult(None, stateful=False, reason="source or sink filter")
    candidate, reason = affine_prescreen(filt)
    if not candidate:
        return ExtractionResult(None, stateful=True, reason=reason)
    report = affine_rows(filt)
    if report.peek_violations:
        raise ExtractionError(f"{filt.name}: {report.peek_violations[0]}")
    if report.rows is None:
        stateful = report.nonlinear.startswith("stateful:")
        reason = report.nonlinear if stateful else f"not linear: {report.nonlinear}"
        return ExtractionResult(None, stateful=stateful, reason=reason)
    if (report.pop.lo, len(report.rows)) != (rate.pop, rate.push):
        raise ExtractionError(
            f"{filt.name}: work popped {int(report.pop.lo)} and pushed "
            f"{len(report.rows)} items, declared pop={rate.pop} push={rate.push}"
        )
    A = np.zeros((rate.push, rate.peek))
    b = np.zeros(rate.push)
    for r, row in enumerate(report.rows):
        for index, coeff in row.coeffs.items():
            A[r, index] = coeff
        b[r] = row.const
    return ExtractionResult(LinearRep(A, b, pop=rate.pop), stateful=False, reason="linear")


def extract_linear(filt: Filter) -> Optional[LinearRep]:
    """The paper's linear extraction: the filter's rep, or None."""
    return try_extract(filt).rep


def is_stateful(filt: Filter) -> bool:
    """True if the filter's work function may mutate instance state: the
    effects pass found a write (direct, aliased or in a helper) or could not
    bound the write set (conservatively stateful).

    Stateless filters can be fissed (data-parallelized); stateful ones
    cannot.  Peeking does not make a filter stateful, but fissing a peeking
    filter requires duplication (see :mod:`repro.transforms.fission`).
    """
    return classify(filt).classification == STATEFUL
