"""Vectorization-safety proof for the batched execution engine.

:class:`~repro.runtime.vectorize.BatchExecutor` lifts a filter's ``work()``
to operate on whole batch *columns* instead of scalars, and does so
exactly when this module certifies the filter: the guarantee that the
columns are bit-identical to per-firing execution is derived *statically*
from the effects and rate passes, never tested on samples.  Unprovable
filters run the per-firing loop and carry a structured machine-readable
reason for their downgrade.

A filter is **certified** when all of the following hold:

* ``work()`` is pure: no state writes, no dynamic effects, no ``self``
  escapes, and no teleport-message sends;
* its channel counts are exact and match the declared rates, with all
  peek offsets in bounds;
* every operation applied to stream data is columnwise-exact: arithmetic,
  ``abs``, and the ``math`` functions the lifted namespace rebinds
  (:data:`repro.vecmath.VECTOR_SAFE_MATH`) — and only in ``work()``
  itself, since helper bodies keep their own (scalar) ``math`` binding;
* control flow never branches on stream data.

Everything else produces a :class:`VectorProof` with ``certified=False``
and the list of blocking reasons, which surfaces as an ``SL301``
diagnostic and as the structured downgrade reason on the executor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.effects import EffectsReport
from repro.analysis.rates import RateReport
from repro.graph.base import Filter


@dataclass(frozen=True)
class VectorProof:
    """Outcome of the static vectorization-safety analysis."""

    certified: bool
    #: Reasons certification failed (empty when certified).
    reasons: Tuple[str, ...] = ()

    def diagnostic(self, filt: Filter) -> Diagnostic:
        if self.certified:
            return Diagnostic.make(
                "SL300",
                "work() is statically proven safe for trusted batch execution",
                filt,
            )
        summary = "; ".join(self.reasons[:3])
        if len(self.reasons) > 3:
            summary += f"; and {len(self.reasons) - 3} more"
        return Diagnostic.make(
            "SL301", f"not provably batch-safe: {summary}", filt
        )


def prove_vectorizable(
    filt: Filter,
    effects: EffectsReport,
    rates: Optional[RateReport],
) -> VectorProof:
    """Statically decide whether ``filt`` may take the lifted path."""
    reasons: List[str] = []
    rate = filt.rate
    if getattr(type(filt), "stateless", None) is False:
        reasons.append("filter opts out via stateless=False")
    if rate.pop < 1:
        reasons.append("sources (pop == 0) are not batch-lifted")
    if effects.classification == "stateful" or effects.mutated:
        mutated = ", ".join(effects.mutated) or "state"
        reasons.append(f"work() mutates {mutated}")
    if effects.dynamic:
        reasons.extend(effects.dynamic)
    if effects.escapes:
        reasons.extend(effects.escapes)
    if effects.message_sends:
        sends = ", ".join(f"self.{a}.{m}()" for a, m in effects.message_sends)
        reasons.append(f"sends teleport messages ({sends})")
    if rates is None:
        reasons.append("rate analysis unavailable")
    else:
        if rates.peek_violations:
            reasons.extend(rates.peek_violations)
        if not rates.exact:
            detail = rates.dynamic[0] if rates.dynamic else (
                f"pop {rates.pop} / push {rates.push} not exact"
            )
            reasons.append(f"channel counts are not exact ({detail})")
        else:
            if rates.pop.lo != rate.pop:
                reasons.append(
                    f"inferred pop count {rates.pop} differs from declared {rate.pop}"
                )
            if rates.push.lo != rate.push:
                reasons.append(
                    f"inferred push count {rates.push} differs from declared {rate.push}"
                )
            if math.isinf(rates.max_peek):
                reasons.append("peek offsets are not statically bounded")
            elif rates.max_peek >= rate.peek:
                reasons.append(
                    f"peek offset {int(rates.max_peek)} reaches past the "
                    f"declared peek window {rate.peek}"
                )
        reasons.extend(rates.cert_blockers)
    # de-dup, preserving order
    reasons = list(dict.fromkeys(reasons))
    return VectorProof(certified=not reasons, reasons=tuple(reasons))
