"""The diagnostics engine behind ``streamlint``.

Every finding of the static-analysis passes (:mod:`repro.analysis`) is a
:class:`Diagnostic` with a *stable code* (``SL001``, ``SL102``, …), a
severity, and a human-readable message naming the offending filter
instance.  Stable codes let suppressions, CI gating, and documentation
refer to a finding independently of its message text.

Code space (see the table in DESIGN.md):

* ``SL0xx`` — rate contract violations (``work()`` vs declared rates);
* ``SL1xx`` — effects/purity findings (state writes, dynamic mutation);
* ``SL2xx`` — linearity screening;
* ``SL3xx`` — execution-engine facts (vectorization proofs, downgrades).

A filter class may opt out of specific codes by declaring::

    class Legacy(Filter):
        #: SL005: rates flow through self.fn, which is opaque by design.
        lint_suppress = ("SL005",)

Suppressed diagnostics are still produced (so ``streamlint`` can report
them) but are ignored by validation and by strict-mode exit codes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, Iterator, List, Optional, Tuple


class Severity(enum.IntEnum):
    """Severity of a diagnostic, ordered so ``max()`` picks the worst."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    def __str__(self) -> str:  # pragma: no cover - display helper
        return self.name.lower()


#: code -> (default severity, short title).  The single registry every pass
#: draws from; tests assert codes never change meaning.
CODES: Dict[str, Tuple[Severity, str]] = {
    # -- rate contract (SL0xx) --------------------------------------------
    "SL001": (Severity.ERROR, "push-rate-mismatch"),
    "SL002": (Severity.ERROR, "pop-rate-mismatch"),
    "SL003": (Severity.ERROR, "peek-out-of-bounds"),
    "SL004": (Severity.ERROR, "illegal-declared-rates"),
    "SL005": (Severity.WARNING, "unanalyzable-rates"),
    "SL006": (Severity.ERROR, "missing-work"),
    "SL007": (Severity.INFO, "over-declared-peek"),
    # -- effects / purity (SL1xx) -----------------------------------------
    "SL101": (Severity.INFO, "stateful-filter"),
    "SL102": (Severity.ERROR, "hidden-state-write"),
    "SL103": (Severity.WARNING, "dynamic-state-write"),
    "SL104": (Severity.WARNING, "opaque-self-escape"),
    # -- linearity (SL2xx) -------------------------------------------------
    "SL201": (Severity.INFO, "affine-candidate"),
    # -- execution engines (SL3xx) ----------------------------------------
    "SL300": (Severity.INFO, "vector-certified"),
    "SL301": (Severity.INFO, "not-vectorizable"),
    "SL302": (Severity.WARNING, "engine-scalar-fallback"),
    # SL303 ("superbatch-degraded") retired: a feedback core is a block of
    # the one compiled engine, not a degradation; never reused.
    "SL304": (Severity.WARNING, "engine-parallel-fallback"),
    # SL305 ("core-not-lowered") retired: every feedback core lowers, a
    # work() body the emitter cannot inline is called from the generated
    # loop; never reused.
    # SL306 ("tuned-plan-discarded") retired with repro.tune; never reused.
    "SL307": (Severity.INFO, "teleport-latency-dynamic"),
    # -- whole-graph analysis (SL4xx) --------------------------------------
    "SL401": (Severity.WARNING, "shared-mutable-state"),
    "SL402": (Severity.WARNING, "unbounded-parallel-effects"),
    "SL403": (Severity.WARNING, "portal-crosses-partition"),
    "SL404": (Severity.INFO, "ring-capacity-proved"),
    "SL405": (Severity.INFO, "fusion-region-certified"),
}

#: code -> one-line description, rendered by ``streamlint --codes``.  Keep
#: in sync with :data:`CODES`; a test asserts the key sets match.
CODE_DESCRIPTIONS: Dict[str, str] = {
    "SL001": "work() pushes a different number of items than the declared push rate",
    "SL002": "work() pops a different number of items than the declared pop rate",
    "SL003": "work() peeks beyond the declared peek window",
    "SL004": "declared rates are illegal (negative, or peek below pop)",
    "SL005": "work()'s I/O rates cannot be determined statically",
    "SL006": "filter defines no work() function",
    "SL007": "declared peek window is larger than any access work() makes",
    "SL101": "filter mutates its own state across firings (blocks fission)",
    "SL102": "work() writes filter state through an alias the declaration hides",
    "SL103": "work() mutates state behind a dynamic attribute access",
    "SL104": "self escapes into opaque code, so state writes cannot be ruled out",
    "SL201": "filter body looks affine — a candidate for the linear-dataflow path",
    "SL300": "static proof certifies the generic vector lifting of this filter",
    "SL301": "filter cannot be vectorized generically (stateful or opaque)",
    "SL302": "engine request downgraded to the scalar interpreter",
    "SL304": "engine request downgraded from parallel to single-process execution",
    "SL307": "a teleport send's latency is best-effort or no compile-time constant, so the compiled engine runs the graph one period per pass",
    "SL401": "two or more filter instances alias the same mutable object and at least one mutates it (a parallel race across forked workers)",
    "SL402": "work()'s effects cannot be bounded statically (dynamic writes or self escapes), so parallel race freedom cannot be proven",
    "SL403": "a teleport portal targets a receiver in a different worker partition than its sender",
    "SL404": "a cross-worker ring's minimal safe capacity was statically proved stall-free (graph-analysis fact)",
    "SL405": "a splitjoin region is certified safe for cross-boundary fusion (graph-analysis fact)",
}


@dataclass(frozen=True)
class Diagnostic:
    """One finding of a static-analysis pass."""

    code: str
    message: str
    #: Name of the filter instance (or graph element) the finding is about.
    subject: str = ""
    #: Class name of the subject, for grouping in reports.
    subject_type: str = ""
    severity: Severity = field(default=Severity.ERROR)
    #: True when the subject's class suppresses this code via lint_suppress.
    suppressed: bool = False

    @staticmethod
    def make(code: str, message: str, subject: object = None) -> "Diagnostic":
        """Build a diagnostic with the registered severity for ``code``."""
        if code not in CODES:
            raise KeyError(f"unknown diagnostic code {code!r}")
        severity, _title = CODES[code]
        name = getattr(subject, "name", "") if subject is not None else ""
        type_name = type(subject).__name__ if subject is not None else ""
        return Diagnostic(
            code=code,
            message=message,
            subject=name,
            subject_type=type_name,
            severity=severity,
        )

    @property
    def title(self) -> str:
        return CODES[self.code][1]

    def with_suppression(self, codes: Iterable[str]) -> "Diagnostic":
        if self.code in codes and not self.suppressed:
            return replace(self, suppressed=True)
        return self

    def format(self) -> str:
        where = f" [{self.subject} ({self.subject_type})]" if self.subject else ""
        note = " (suppressed)" if self.suppressed else ""
        return f"{self.code} {self.severity}{note}: {self.message}{where}"

    def __str__(self) -> str:  # pragma: no cover - display helper
        return self.format()


def suppressed_codes(obj: object) -> Tuple[str, ...]:
    """The ``lint_suppress`` codes declared by ``obj``'s class (or ``obj``)."""
    codes = getattr(type(obj), "lint_suppress", ()) or ()
    if isinstance(codes, str):  # a lone "SL005" instead of ("SL005",)
        codes = (codes,)
    return tuple(str(c) for c in codes)


class DiagnosticBag:
    """An ordered collection of diagnostics with severity accounting."""

    def __init__(self, items: Optional[Iterable[Diagnostic]] = None) -> None:
        self.items: List[Diagnostic] = list(items) if items else []

    def add(self, diag: Diagnostic) -> None:
        self.items.append(diag)

    def extend(self, diags: Iterable[Diagnostic]) -> None:
        self.items.extend(diags)

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.items)

    def __len__(self) -> int:
        return len(self.items)

    def active(self, min_severity: Severity = Severity.INFO) -> List[Diagnostic]:
        """Unsuppressed diagnostics at or above ``min_severity``."""
        return [
            d for d in self.items if not d.suppressed and d.severity >= min_severity
        ]

    def errors(self) -> List[Diagnostic]:
        return self.active(Severity.ERROR)

    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.active(Severity.WARNING) if d.severity == Severity.WARNING]

    def by_code(self, code: str) -> List[Diagnostic]:
        return [d for d in self.items if d.code == code]

    def summary(self) -> Dict[str, int]:
        """Counts per code over unsuppressed diagnostics."""
        counts: Dict[str, int] = {}
        for d in self.items:
            if not d.suppressed:
                counts[d.code] = counts.get(d.code, 0) + 1
        return dict(sorted(counts.items()))

    def sorted(self) -> List[Diagnostic]:
        """Worst first, then by code, then by subject for stable output."""
        return sorted(
            self.items, key=lambda d: (-int(d.severity), d.code, d.subject)
        )
