"""``repro.analysis`` — static analysis of filter ``work()`` functions.

The pass pipeline (see DESIGN.md "Static analysis layer"):

1. :mod:`~repro.analysis.effects` — effects/purity: which ``self``
   attributes does ``work()`` read/write (through loops, branches, helper
   methods, aliases)?  Classifies stateless / peeking / stateful.
2. :mod:`~repro.analysis.rates` — the one symbolic executor of ``work()``:
   do the ``push``/``pop``/``peek`` occurrences match the declared rates,
   do peek offsets stay in bounds — and, asked for rows by
   :func:`repro.linear.extraction.try_extract`, which affine form of the
   input window is each pushed item?
3. :mod:`~repro.analysis.linearity` — the effects-only half of linearity:
   the ``SL201`` candidates and the ``stateful:`` reasons ``try_extract``
   reports.
4. :mod:`~repro.analysis.vectorsafety` — a machine-checkable proof that
   batched (column-wise) execution is bit-exact, consumed by
   :class:`repro.runtime.vectorize.BatchExecutor`.

All findings are :class:`~repro.analysis.diagnostics.Diagnostic` objects
with stable ``SLxxx`` codes; :func:`analyze_filter` bundles them (and the
raw pass results) into a cached :class:`FilterAnalysis` per instance.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Optional

from repro.analysis.diagnostics import (
    CODES,
    Diagnostic,
    DiagnosticBag,
    Severity,
    suppressed_codes,
)
from repro.analysis.effects import (
    UNRESOLVED,
    EffectsReport,
    SendSite,
    WorkEffects,
    classify,
    send_sites,
    work_effects,
)
from repro.analysis.linearity import affine_prescreen, affine_prescreen_report
from repro.analysis.rates import RateReport, analyze_rates
from repro.analysis.vectorsafety import VectorProof, prove_vectorizable
from repro.graph.base import Filter

__all__ = [
    "CODES",
    "Diagnostic",
    "DiagnosticBag",
    "EffectsReport",
    "FilterAnalysis",
    "RateReport",
    "SendSite",
    "Severity",
    "UNRESOLVED",
    "VectorProof",
    "WorkEffects",
    "affine_prescreen",
    "analyze_filter",
    "analyze_graph",
    "analyze_rates",
    "analyze_stream",
    "classify",
    "prove_vectorizable",
    "send_sites",
    "suppressed_codes",
    "work_effects",
]


@dataclass
class FilterAnalysis:
    """Everything the static passes know about one filter instance."""

    filter_name: str
    class_name: str
    effects: Optional[EffectsReport]
    rates: Optional[RateReport]
    affine_candidate: bool
    affine_reason: str
    proof: VectorProof
    diagnostics: DiagnosticBag

    @property
    def certified(self) -> bool:
        return self.proof.certified


_CACHE: "weakref.WeakKeyDictionary[Filter, FilterAnalysis]" = (
    weakref.WeakKeyDictionary()
)


def analyze_filter(filt: Filter, refresh: bool = False) -> FilterAnalysis:
    """Run (or fetch the cached) full analysis pipeline for one instance.

    Analyses are cached per live instance: attribute values read during
    rate analysis are the instance's *current* values, so callers that
    mutate configuration attributes after construction (or that analyze
    before ``init()``) can pass ``refresh=True``.

    ``refresh=True`` bypasses only this per-instance cache.  The rate pass
    underneath is memoised on the *values* it reads
    (:func:`repro.analysis.rates.analyze_rates`), so a refresh of an
    instance whose read attributes are unchanged — or equal to those of any
    instance analyzed before — re-derives the per-instance diagnostics and
    proof from the shared report without re-running the symbolic executor,
    and one whose values changed gets a fresh run.
    """
    if not refresh:
        try:
            cached = _CACHE.get(filt)
        except TypeError:  # unhashable/unweakrefable exotic subclass
            cached = None
        if cached is not None:
            return cached
    analysis = _analyze(filt)
    try:
        _CACHE[filt] = analysis
    except TypeError:
        pass
    return analysis


def _analyze(filt: Filter) -> FilterAnalysis:
    bag = DiagnosticBag()
    suppress = suppressed_codes(filt)

    def emit(code: str, message: str) -> None:
        bag.add(Diagnostic.make(code, message, filt).with_suppression(suppress))

    # Declared-rate invariants first: everything else assumes sane rates.
    rate = filt.rate
    rate_ok = _check_declared_rates(filt, emit)

    if type(filt).work is Filter.work:
        emit(
            "SL006",
            f"filter {filt.name!r} ({type(filt).__name__}) does not implement work()",
        )
        proof = VectorProof(False, ("work() is not implemented",))
        return FilterAnalysis(
            filter_name=filt.name,
            class_name=type(filt).__name__,
            effects=None,
            rates=None,
            affine_candidate=False,
            affine_reason="work() is not implemented",
            proof=proof,
            diagnostics=bag,
        )

    try:
        effects = classify(filt)
        unstable = set(effects.mutated) | {a for a, _ in effects.message_sends}
        rates = analyze_rates(filt, unstable) if rate_ok else None
    except Exception as exc:  # analyzer bug: degrade, never break the build
        emit("SL005", f"internal analysis error: {type(exc).__name__}: {exc}")
        proof = VectorProof(False, (f"internal analysis error: {exc}",))
        return FilterAnalysis(
            filter_name=filt.name,
            class_name=type(filt).__name__,
            effects=None,
            rates=None,
            affine_candidate=False,
            affine_reason=f"internal analysis error: {exc}",
            proof=proof,
            diagnostics=bag,
        )

    _emit_effects_diags(filt, effects, emit)
    if effects.message_sends or not effects.effects.bounded:
        _emit_send_diags(filt, effects, emit)
    if rates is not None:
        _emit_rate_diags(filt, rates, emit)

    affine_ok, affine_reason = affine_prescreen_report(filt, effects)
    if affine_ok:
        emit("SL201", f"filter {filt.name!r} is an affine (linear-node) candidate")

    proof = prove_vectorizable(filt, effects, rates)
    bag.add(proof.diagnostic(filt).with_suppression(suppress))

    return FilterAnalysis(
        filter_name=filt.name,
        class_name=type(filt).__name__,
        effects=effects,
        rates=rates,
        affine_candidate=affine_ok,
        affine_reason=affine_reason,
        proof=proof,
        diagnostics=bag,
    )


def _check_declared_rates(filt: Filter, emit) -> bool:
    """SL004 for tampered/inconsistent declared rates; True when sane."""
    rate = filt.rate
    ok = True
    values = {"peek": rate.peek, "pop": rate.pop, "push": rate.push}
    for field_name, value in values.items():
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            emit(
                "SL004",
                f"filter {filt.name!r} declares an illegal {field_name} rate "
                f"{value!r} (rates must be non-negative ints)",
            )
            ok = False
    if ok and rate.peek < rate.pop:
        emit(
            "SL004",
            f"filter {filt.name!r} declares peek={rate.peek} < pop={rate.pop}; "
            f"a filter must be able to inspect everything it consumes",
        )
        ok = False
    return ok


def _emit_effects_diags(filt: Filter, effects: EffectsReport, emit) -> None:
    claims_stateless = getattr(type(filt), "stateless", None) is True
    if effects.mutated:
        mutated = ", ".join(f"self.{a}" for a in effects.mutated)
        if claims_stateless:
            emit(
                "SL102",
                f"filter {filt.name!r} declares stateless=True but work() "
                f"writes {mutated}",
            )
        else:
            emit(
                "SL101",
                f"filter {filt.name!r} is stateful: work() writes {mutated}",
            )
    for reason in effects.dynamic:
        if claims_stateless:
            emit(
                "SL102",
                f"filter {filt.name!r} declares stateless=True but its state "
                f"writes cannot be bounded: {reason}",
            )
        else:
            emit(
                "SL103",
                f"state writes of filter {filt.name!r} cannot be statically "
                f"bounded: {reason}",
            )
    for reason in effects.escapes:
        emit(
            "SL104",
            f"self escapes work() of filter {filt.name!r}: {reason}; "
            f"no static effect guarantees apply",
        )


def _emit_send_diags(filt: Filter, effects: EffectsReport, emit) -> None:
    for site in dict.fromkeys(send_sites(filt, effects)):  # one per distinct send
        if isinstance(site.latency, int):
            continue
        send = f"self.{site.attr}.{site.method}()" if site.method else f"self.{site.attr}"
        what = "is best-effort" if site.latency is None else f"is unresolved ({site.reason})"
        emit(
            "SL307",
            f"filter {filt.name!r}: {send} {what} — teleport latency is not a "
            f"compile-time constant; the batched engine runs this graph one "
            f"period per pass",
        )


def _emit_rate_diags(filt: Filter, rates: RateReport, emit) -> None:
    rate = filt.rate
    name = filt.name
    for violation in rates.peek_violations:
        emit("SL003", f"filter {name!r}: {violation}")
    if rates.dynamic:
        reasons = "; ".join(rates.dynamic[:3])
        emit(
            "SL005",
            f"channel rates of filter {name!r} are not statically analyzable: "
            f"{reasons}",
        )
        return
    # Counts are bounded intervals (exact or both-branch merges).
    for kind, verb, declared, counted, code in (
        ("push", "pushes", rate.push, rates.push, "SL001"),
        ("pop", "pops", rate.pop, rates.pop, "SL002"),
    ):
        if counted.exact:
            if counted.lo != declared:
                emit(
                    code,
                    f"filter {name!r} declares {kind}={declared} but work() "
                    f"always {verb} {int(counted.lo)} item(s) per firing",
                )
        elif not (counted.lo <= declared <= counted.hi):
            emit(
                code,
                f"filter {name!r} declares {kind}={declared} but work() "
                f"{verb} {counted} item(s) per firing",
            )
        else:
            emit(
                "SL005",
                f"filter {name!r}: {kind} count {counted} is data-dependent "
                f"(declared {kind}={declared} lies inside the range)",
            )
    if rates.exact and not rates.peek_violations:
        used = max(rates.max_peek + 1, rates.pop.hi)
        if rate.peek > used and rate.peek > rate.pop:
            emit(
                "SL007",
                f"filter {name!r} declares peek={rate.peek} but work() only "
                f"inspects the first {int(used)} item(s); over-declared peek "
                f"inflates scheduling latency",
            )


def analyze_graph(graph) -> DiagnosticBag:
    """Analyze every filter node of a :class:`FlatGraph`."""
    bag = DiagnosticBag()
    for node in graph.filter_nodes():
        bag.extend(analyze_filter(node.filter).diagnostics)
    return bag


def analyze_stream(stream) -> DiagnosticBag:
    """Flatten a stream (without validating) and analyze its filters."""
    from repro.graph.flatgraph import flatten

    return analyze_graph(flatten(stream))
