"""Linearity pre-screen: what the effects facts alone say about linearity.

:func:`repro.linear.extraction.try_extract` recovers a filter's
:class:`~repro.linear.linrep.LinearRep` by running the symbolic executor
of :mod:`repro.analysis.rates` with affine rows.  The same run's
alias-aware effects facts first answer the questions whose answer is
always "not linear", each with the reason ``try_extract`` reports:

* sources and sinks (pop == 0 or push == 0) have no input-to-output map;
* any state write (including aliased and helper-reached ones) makes the
  filter stateful;
* dynamic effects (``setattr``, ``self.__dict__``) or ``self`` escaping
  mean statefulness cannot be ruled out;
* teleport-message sends are side effects a linear node cannot represent.

A filter that passes is an *affine candidate* (``SL201``); whether it is
affine is the executor's verdict.
"""

from __future__ import annotations

from typing import Tuple

from repro.analysis.effects import EffectsReport, classify
from repro.graph.base import Filter


def affine_prescreen(filt: Filter) -> Tuple[bool, str]:
    """(candidate?, reason).  ``reason`` explains a ``False`` verdict.

    The reasons for the common rejections intentionally match the wording
    :func:`repro.linear.extraction.try_extract` has always used, so callers
    that branch on ``ExtractionResult.reason`` keep working.
    """
    report = classify(filt)
    return affine_prescreen_report(filt, report)


def affine_prescreen_report(
    filt: Filter, report: EffectsReport
) -> Tuple[bool, str]:
    """Pre-screen using an already-computed effects report."""
    rate = filt.rate
    if rate.pop == 0 or rate.push == 0:
        return False, "source or sink filter"
    if report.mutated:
        return False, f"stateful: work mutates {sorted(report.mutated)}"
    if report.dynamic:
        return False, f"stateful: unanalyzable effects ({report.dynamic[0]})"
    if report.escapes:
        return False, f"stateful: self escapes work() ({report.escapes[0]})"
    if report.message_sends:
        sends = ", ".join(f"self.{a}.{m}()" for a, m in report.message_sends)
        return False, f"sends teleport messages ({sends})"
    return True, "affine candidate"
