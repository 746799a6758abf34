"""Effects/purity of filter ``work()`` functions: a view over the executor.

The symbolic executor of :mod:`repro.analysis.rates` records the effects
facts on the run it makes anyway (:class:`~repro.analysis.rates.WorkFacts`):
which ``self`` attributes ``work()`` writes — through loops and
conditionals, helper methods and aliases (``buf = self.buf; buf[0] = x``
and ``row = self.rows[0]; row[0] = x`` write ``self.buf`` and
``self.rows``), on arms the run does not take too — which methods it calls
on them, and what it cannot bound: ``setattr(self, …)``, ``self.__dict__``,
``global`` declarations, stores into module-level objects, ``self``
escaping to unknown code.

This module reads them per instance.  :func:`classify` resolves attribute
method calls against the live instance (a call on a
:class:`~repro.runtime.messaging.Portal` attribute is a *message send*, not
a state write) and produces the stateless / peeking / stateful
classification the optimizers consume; :func:`send_sites` lists each send
with the teleport latency its ``interval=`` states.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Tuple

from repro.graph.base import Filter
from repro.graph.source import SourceUnavailable, function_ast

#: Attributes that are runtime wiring, not filter state.
CHANNEL_ATTRS = frozenset({"input", "output"})
#: Channel I/O methods (on ``self`` or on ``self.input``/``self.output``).
CHANNEL_METHODS = frozenset({"pop", "peek", "push", "pop_many", "push_many"})


def method_ast(cls: type, name: str = "work") -> ast.FunctionDef:
    """The shared, read-only AST of ``cls.<name>`` (raises SourceUnavailable)."""
    try:
        return function_ast(getattr(cls, name))
    except SourceUnavailable as exc:
        raise SourceUnavailable(f"{cls.__name__}.{name}: {exc}") from None


STATELESS = "stateless"
PEEKING = "peeking"
STATEFUL = "stateful"


#: :attr:`SendSite.latency` of a send whose latency is no compile-time
#: constant.
UNRESOLVED = "unresolved"


class SendSite(NamedTuple):
    """One teleport send of a filter instance, with the latency it states."""

    attr: str
    #: ``""`` for a whole portal the analysis lost track of.
    method: str
    #: Wavefront latency in sender firings (``int``), ``None`` for
    #: best-effort delivery, or :data:`UNRESOLVED`.
    latency: object
    #: Why the latency is :data:`UNRESOLVED`.
    reason: str = ""


@dataclass
class EffectsReport:
    """Instance-level effect summary consumed by the optimizers."""

    classification: str
    #: Complete mutated-attribute set (empty unless provably bounded).
    mutated: Tuple[str, ...]
    #: ``(attr, method)`` teleport sends through Portal attributes
    #: (:func:`send_sites` has them call site by call site, with latency).
    message_sends: Tuple[Tuple[str, str], ...]
    dynamic: Tuple[str, ...]
    escapes: Tuple[str, ...]
    #: The executor's facts this report reads
    #: (:class:`repro.analysis.rates.WorkFacts`).
    facts: tuple

    @property
    def bounded(self) -> bool:
        """True when the write set is provably complete."""
        return not self.dynamic and not self.escapes

    @property
    def pure(self) -> bool:
        """No state writes, no dynamic effects, no escapes, no sends."""
        return self.classification != STATEFUL and not self.message_sends and self.bounded


def classify(filt: Filter, rates=None) -> EffectsReport:
    """Classify a filter instance as stateless / peeking / stateful
    (``rates`` = ``analyze_rates(filt)``, when the caller has it)."""
    from repro.analysis.rates import analyze_rates
    from repro.runtime.messaging import Portal  # late: avoid import cycles

    facts = (analyze_rates(filt) if rates is None else rates).facts
    sends: List[Tuple[str, str]] = []
    mutated = set(facts.writes)
    for attr, method in facts.calls:
        if isinstance(getattr(filt, attr, None), Portal):
            sends.append((attr, method))
        else:
            mutated.add(attr)
    if mutated or facts.dynamic or facts.escapes:
        kind = STATEFUL
    elif filt.rate.extra_peek > 0:
        kind = PEEKING
    else:
        kind = STATELESS
    return EffectsReport(
        classification=kind,
        mutated=tuple(sorted(mutated)),
        message_sends=tuple(sends),
        dynamic=facts.dynamic,
        escapes=facts.escapes,
        facts=facts,
    )


def send_sites(filt: Filter, report: Optional[EffectsReport] = None) -> List[SendSite]:
    """Every teleport send ``work()`` can make, with the latency it states
    (``report`` = ``classify(filt)``, when the caller has it).

    A portal is lost track of — one :data:`UNRESOLVED` entry, whatever
    call sites are visible — when the write set is not bounded, when
    ``work()`` rebinds the attribute, or when the portal is used as a value
    (aliased, passed on, kept in a container beside the attribute): a send
    could then happen where this pass cannot see its ``interval=``.

    Not a field of :class:`EffectsReport`: it scans every attribute of the
    instance, which only a filter that holds a Portal should pay for.
    """
    from repro.runtime.messaging import Portal

    portals = [a for a, v in vars(filt).items() if isinstance(v, Portal)]
    if not portals:
        return []
    if report is None:
        report = classify(filt)
    facts = report.facts

    def holds_portal(value: object) -> bool:
        if isinstance(value, dict):
            value = list(value.values())
        return isinstance(value, (list, tuple, set, frozenset)) and any(
            isinstance(v, Portal) for v in value
        )

    sites: List[SendSite] = []
    lost = None
    if not report.bounded:
        lost = "work()'s effects are not statically bounded"
    elif any(holds_portal(v) for v in vars(filt).values()):
        lost = "a container attribute holds a Portal"
    for attr in portals:
        why = lost
        if why is None and attr in facts.writes:
            why = f"work() rebinds self.{attr}"
        elif why is None and attr in facts.value_reads:
            why = f"self.{attr} is used as a value, not only called"
        if why is not None:
            sites.append(SendSite(attr, "", UNRESOLVED, why))
            continue
        sites.extend(SendSite(*site) for site in facts.sites if site[0] == attr)
    return sites
