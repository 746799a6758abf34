"""Effects/purity analysis of filter ``work()`` functions.

A class-level AST pass that proves which ``self`` attributes a work
function *reads* and *writes* — including writes reached through loops and
conditionals, through helper-method calls (``self._round(x)`` is resolved
against the class and analyzed recursively), and through **aliases**
(``buf = self.buf; buf[0] = x`` is a write to ``self.buf``).  Constructs it
cannot bound — ``setattr(self, …)``, ``self.__dict__``, ``vars(self)``,
passing ``self`` to unknown code — are reported as *dynamic* effects and
treated conservatively by every consumer.

Two layers:

* :func:`work_effects` — per-class, purely syntactic, cached.  Knows
  nothing about attribute *values*.
* :func:`classify` — per-instance.  Resolves attribute method calls against
  the live instance (a call on a :class:`~repro.runtime.messaging.Portal`
  attribute is a *message send*, not a state write) and produces the
  stateless / peeking / stateful classification the optimizers consume;
  :func:`send_sites` reads each send's teleport latency off its
  ``interval=`` keyword where that is a compile-time constant.
"""

from __future__ import annotations

import ast
import inspect
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Set, Tuple

from repro.graph.base import Filter
from repro.graph.source import SourceUnavailable, function_ast

#: Attributes that are runtime wiring, not filter state.
CHANNEL_ATTRS = frozenset({"input", "output"})
#: Channel I/O methods (on ``self`` or on ``self.input``/``self.output``).
CHANNEL_METHODS = frozenset({"pop", "peek", "push", "pop_many", "push_many"})

_DYNAMIC_BUILTINS = frozenset({"setattr", "delattr", "vars"})


def method_ast(cls: type, name: str = "work") -> ast.FunctionDef:
    """The shared, read-only AST of ``cls.<name>`` (raises SourceUnavailable)."""
    try:
        return function_ast(getattr(cls, name))
    except SourceUnavailable as exc:
        raise SourceUnavailable(f"{cls.__name__}.{name}: {exc}") from None


class CallSite(NamedTuple):
    """One ``self.<attr>.<method>(…)`` call, kept for :func:`send_sites`."""

    attr: str
    method: str
    #: The ``interval=`` keyword's AST (None when the keyword is absent).
    interval: Optional[ast.expr]
    #: The call spreads ``**kwargs``, which may carry an ``interval``.
    spread: bool
    #: What a name in ``interval`` means where the call stands: the names
    #: bound to ``self``, the enclosing function (its locals shadow
    #: globals) and that function's globals.
    self_names: frozenset
    function: ast.FunctionDef
    globals: Dict[str, object]


@dataclass
class WorkEffects:
    """Class-level effect summary of ``work`` plus reachable helpers."""

    #: ``self`` attributes read (excluding channels).
    reads: Set[str] = field(default_factory=set)
    #: The subset of ``reads`` used as a *value* — aliased, passed, compared,
    #: subscripted — i.e. anywhere but as the owner in ``self.X.method(…)``.
    value_reads: Set[str] = field(default_factory=set)
    #: ``self`` attributes written directly, by subscript, or via an alias.
    writes: Set[str] = field(default_factory=set)
    #: ``(attr, method)`` calls on self attributes — possible mutations
    #: (``self.buf.append``) or message sends (``self.portal.retune``).
    attr_calls: Set[Tuple[str, str]] = field(default_factory=set)
    #: Every call behind ``attr_calls`` made directly on ``self.<attr>``.
    call_sites: List[CallSite] = field(default_factory=list)
    #: Reasons the analysis had to give up on bounding the write set.
    dynamic: List[str] = field(default_factory=list)
    #: Reasons ``self`` escapes to code the analysis cannot see.
    escapes: List[str] = field(default_factory=list)
    #: Helper methods that were resolved and analyzed.
    helpers: Set[str] = field(default_factory=set)

    @property
    def bounded(self) -> bool:
        """True when the write set is provably complete."""
        return not self.dynamic and not self.escapes


#: (class, method function) -> WorkEffects; classes are module-level, so the
#: cache can key on the type object itself for the process lifetime.  The
#: function is in the key so a re-assigned ``cls.work`` is analyzed afresh.
_EFFECTS_CACHE: Dict[Tuple[type, object], WorkEffects] = {}


def work_effects(cls: type, method: str = "work") -> WorkEffects:
    """Effects of ``cls.<method>`` including transitively-called helpers."""
    key = (cls, inspect.unwrap(getattr(cls, method)))
    if key not in _EFFECTS_CACHE:
        eff = WorkEffects()
        try:
            fn = method_ast(cls, method)
        except SourceUnavailable as exc:
            eff.dynamic.append(str(exc))
        else:
            _Scanner(cls, eff, visiting={method}).run(fn, key[1])
        _EFFECTS_CACHE[key] = eff
    return _EFFECTS_CACHE[key]


def _bound_names(fn: ast.FunctionDef) -> frozenset:
    """Every name ``fn`` binds, i.e. that does *not* mean a global in it."""
    names = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.alias):
            names.add((node.asname or node.name).split(".")[0])
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
    return frozenset(names)


class _Scanner:
    """One method's scan; helper calls recurse with a shared effect set."""

    _MAX_DEPTH = 8

    def __init__(self, cls: type, eff: WorkEffects, visiting: Set[str], depth: int = 0) -> None:
        self.cls = cls
        self.eff = eff
        self.visiting = visiting
        self.depth = depth
        #: local name -> alias: "self" or ("attr", name); absent = plain local.
        self.aliases: Dict[str, object] = {}

    # -- entry ---------------------------------------------------------------

    def run(self, fn: ast.FunctionDef, function: object) -> None:
        self_name = fn.args.args[0].arg if fn.args.args else "self"
        self.aliases[self_name] = "self"
        self.function = fn
        self.globals = getattr(function, "__globals__", {})
        self.body(fn.body)

    # -- alias helpers -------------------------------------------------------

    def _is_self(self, node: ast.expr) -> bool:
        return isinstance(node, ast.Name) and self.aliases.get(node.id) == "self"

    def _self_attr(self, node: ast.expr) -> Optional[str]:
        """``self.X`` (directly or through a self alias) -> ``X``."""
        if isinstance(node, ast.Attribute) and self._is_self(node.value):
            return node.attr
        return None

    def _aliased_attr(self, node: ast.expr) -> Optional[str]:
        """A name bound to ``self.X`` -> ``X``; also ``self.X`` itself."""
        attr = self._self_attr(node)
        if attr is not None:
            return attr
        if isinstance(node, ast.Name):
            alias = self.aliases.get(node.id)
            if isinstance(alias, tuple):
                return alias[1]
        return None

    # -- statements ----------------------------------------------------------

    def body(self, stmts: List[ast.stmt]) -> None:
        for stmt in stmts:
            self.stmt(stmt)

    def stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.Assign):
            self.expr(stmt.value)
            for target in stmt.targets:
                self.target(target, value=stmt.value)
        elif isinstance(stmt, ast.AugAssign):
            self.expr(stmt.value)
            # ``buf += …`` may mutate in place: treat like a write even when
            # the target is only an alias of a self attribute.
            attr = self._aliased_attr(stmt.target)
            if attr is not None and attr not in CHANNEL_ATTRS:
                self.eff.writes.add(attr)
            self.target(stmt.target, value=None, keep_alias=True)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self.expr(stmt.value)
                self.target(stmt.target, value=stmt.value)
        elif isinstance(stmt, (ast.If, ast.While)):
            self.expr(stmt.test)
            self.body(stmt.body)
            self.body(stmt.orelse)
        elif isinstance(stmt, ast.For):
            self.expr(stmt.iter)
            self.target(stmt.target, value=None)
            self.body(stmt.body)
            self.body(stmt.orelse)
        elif isinstance(stmt, ast.Expr):
            self.expr(stmt.value)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                if self._is_self(stmt.value):
                    self.eff.escapes.append("work returns self")
                else:
                    self.expr(stmt.value)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                attr = self._aliased_attr(target)
                if attr is not None:
                    self.eff.writes.add(attr)
                else:
                    self.expr_children(target)
        elif isinstance(stmt, (ast.Global, ast.Nonlocal)):
            self.eff.dynamic.append(
                f"declares {' '.join(stmt.names)} {type(stmt).__name__.lower()}"
            )
        elif isinstance(stmt, ast.Assert):
            self.expr(stmt.test)
            if stmt.msg is not None:
                self.expr(stmt.msg)
        elif isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self.expr(stmt.exc)
            if stmt.cause is not None:
                self.expr(stmt.cause)
        elif isinstance(stmt, (ast.Pass, ast.Break, ast.Continue)):
            pass
        elif isinstance(stmt, ast.Try):
            self.body(stmt.body)
            for handler in stmt.handlers:
                self.body(handler.body)
            self.body(stmt.orelse)
            self.body(stmt.finalbody)
        elif isinstance(stmt, ast.With):
            for item in stmt.items:
                self.expr(item.context_expr)
            self.body(stmt.body)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            # A nested function closing over self can do anything later.
            if any(
                isinstance(n, ast.Name) and self.aliases.get(n.id) == "self"
                for n in ast.walk(stmt)
            ):
                self.eff.escapes.append(f"self captured by nested {stmt.name!r}")
        else:
            self.generic(stmt)

    def target(self, node: ast.expr, value: Optional[ast.expr], keep_alias: bool = False) -> None:
        if isinstance(node, ast.Name):
            if keep_alias:
                return
            # Track aliases created by plain ``x = self`` / ``x = self.attr``.
            if value is not None and self._is_self(value):
                self.aliases[node.id] = "self"
            else:
                attr = value is not None and self._self_attr(value)
                if attr:
                    self.aliases[node.id] = ("attr", attr)
                    if attr not in CHANNEL_ATTRS:
                        self.eff.reads.add(attr)
                        self.eff.value_reads.add(attr)
                else:
                    self.aliases.pop(node.id, None)
            return
        attr = self._self_attr(node)
        if attr is not None:
            self.eff.writes.add(attr)
            return
        if isinstance(node, ast.Subscript):
            attr = self._aliased_attr(node.value)
            if attr is not None and attr not in CHANNEL_ATTRS:
                self.eff.writes.add(attr)
            else:
                self.expr_children(node.value)
            self.expr(node.slice)
            return
        if isinstance(node, ast.Attribute):
            attr = self._aliased_attr(node.value)
            if attr is not None:
                self.eff.writes.add(attr)  # buf.field = … mutates self.buf
            else:
                self.expr(node.value)
            return
        if isinstance(node, (ast.Tuple, ast.List)):
            for elt in node.elts:
                self.target(elt, value=None)
            return
        if isinstance(node, ast.Starred):
            self.target(node.value, value=None)
            return
        self.generic(node)

    # -- expressions ---------------------------------------------------------

    def expr(self, node: ast.expr) -> None:
        if isinstance(node, ast.Name):
            if self.aliases.get(node.id) == "self":
                self.eff.escapes.append("bare self used as a value")
            return
        if isinstance(node, ast.Attribute):
            attr = self._self_attr(node)
            if attr is not None:
                if attr == "__dict__":
                    self.eff.dynamic.append("touches self.__dict__")
                elif attr not in CHANNEL_ATTRS:
                    self.eff.reads.add(attr)
                    self.eff.value_reads.add(attr)
                return
            self.expr(node.value)
            return
        if isinstance(node, ast.Call):
            self.call(node)
            return
        self.expr_children(node)

    def expr_children(self, node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self.expr(child)
            elif isinstance(child, ast.comprehension):
                self.expr(child.iter)
                self.target(child.target, value=None)
                for cond in child.ifs:
                    self.expr(cond)
            else:
                self.generic(child)

    def generic(self, node: ast.AST) -> None:
        """Fallback for unmodelled nodes: flag any bare-self use inside."""
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and self.aliases.get(sub.id) == "self":
                self.eff.escapes.append(
                    f"self reachable through unmodelled {type(node).__name__}"
                )
                return

    # -- calls ---------------------------------------------------------------

    def call(self, node: ast.Call) -> None:
        func = node.func
        handled_owner = False
        if isinstance(func, ast.Attribute):
            owner, method = func.value, func.attr
            if self._is_self(owner):
                handled_owner = True
                if method not in CHANNEL_METHODS:
                    self.helper_call(method)
            else:
                attr = self._aliased_attr(owner)
                if attr is not None:
                    handled_owner = True
                    if not (attr in CHANNEL_ATTRS and method in CHANNEL_METHODS):
                        # Conservatively a mutation (or a message send —
                        # classify() decides using the instance).
                        self.eff.attr_calls.add((attr, method))
                        self.eff.reads.add(attr)
                        if self._self_attr(owner) is not None:
                            self.eff.call_sites.append(self._call_site(attr, node))
            if not handled_owner:
                self.expr(owner)
        elif isinstance(func, ast.Name) and func.id in _DYNAMIC_BUILTINS:
            if any(self._is_self(arg) for arg in node.args):
                self.eff.dynamic.append(f"calls {func.id}() on self")
        else:
            self.expr(func)
        for arg in node.args:
            if self._is_self(arg):
                self.eff.escapes.append("self passed as a call argument")
            else:
                self.expr(arg)
        for kw in node.keywords:
            if kw.value is not None and self._is_self(kw.value):
                self.eff.escapes.append("self passed as a call argument")
            elif kw.value is not None:
                self.expr(kw.value)

    def _call_site(self, attr: str, node: ast.Call) -> CallSite:
        interval = None
        for kw in node.keywords:
            if kw.arg == "interval":
                interval = kw.value
        return CallSite(
            attr=attr,
            method=node.func.attr,
            interval=interval,
            spread=any(kw.arg is None for kw in node.keywords),
            self_names=frozenset(
                name for name, alias in self.aliases.items() if alias == "self"
            ),
            function=self.function,
            globals=self.globals,
        )

    def helper_call(self, method: str) -> None:
        """Resolve and recurse into a ``self.<method>(…)`` helper."""
        if method in self.visiting or self.depth >= self._MAX_DEPTH:
            self.eff.dynamic.append(f"recursive helper call self.{method}()")
            return
        fn = getattr(self.cls, method, None)
        if fn is None:
            # A callable stored as an instance attribute (e.g. self.fn);
            # it cannot reach the filter unless self was passed to it.
            self.eff.attr_calls.add((method, "__call__"))
            self.eff.reads.add(method)
            return
        if isinstance(inspect.unwrap(fn), property):
            self.eff.reads.add(method)
            return
        if not inspect.isfunction(inspect.unwrap(fn)):
            self.eff.dynamic.append(f"unresolvable self.{method}() (not a plain method)")
            return
        try:
            helper = method_ast(self.cls, method)
        except SourceUnavailable as exc:
            self.eff.dynamic.append(str(exc))
            return
        self.eff.helpers.add(method)
        sub = _Scanner(
            self.cls, self.eff, visiting=self.visiting | {method}, depth=self.depth + 1
        )
        sub.run(helper, inspect.unwrap(fn))


# ---------------------------------------------------------------------------
# Instance-level classification
# ---------------------------------------------------------------------------

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
    effects: WorkEffects

    @property
    def pure(self) -> bool:
        """No state writes, no dynamic effects, no escapes, no sends."""
        return (
            self.classification != STATEFUL
            and not self.message_sends
            and not self.dynamic
            and not self.escapes
        )


def classify(filt: Filter) -> EffectsReport:
    """Classify a filter instance as stateless / peeking / stateful."""
    eff = work_effects(type(filt))
    from repro.runtime.messaging import Portal  # late: avoid import cycles

    sends: List[Tuple[str, str]] = []
    mutated = set(eff.writes)
    for attr, method in sorted(eff.attr_calls):
        if isinstance(getattr(filt, attr, None), Portal):
            sends.append((attr, method))
        else:
            mutated.add(attr)
    if mutated or eff.dynamic or eff.escapes:
        kind = STATEFUL
    elif filt.rate.extra_peek > 0:
        kind = PEEKING
    else:
        kind = STATELESS
    return EffectsReport(
        classification=kind,
        mutated=tuple(sorted(mutated)),
        message_sends=tuple(sends),
        dynamic=tuple(eff.dynamic),
        escapes=tuple(dict.fromkeys(eff.escapes)),
        effects=eff,
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
    eff = report.effects
    mutated = set(report.mutated)

    def holds_portal(value: object) -> bool:
        if isinstance(value, dict):
            value = list(value.values())
        return isinstance(value, (list, tuple, set, frozenset)) and any(
            isinstance(v, Portal) for v in value
        )

    sites: List[SendSite] = []
    lost = None
    if not eff.bounded:
        lost = "work()'s effects are not statically bounded"
    elif any(holds_portal(v) for v in vars(filt).values()):
        lost = "a container attribute holds a Portal"
    for attr in portals:
        why = lost
        if why is None and attr in eff.writes:
            why = f"work() rebinds self.{attr}"
        elif why is None and attr in eff.value_reads:
            why = f"self.{attr} is used as a value, not only called"
        if why is not None:
            sites.append(SendSite(attr, "", UNRESOLVED, why))
            continue
        for site in eff.call_sites:
            if site.attr == attr:
                latency, reason = _site_latency(filt, site, mutated)
                sites.append(SendSite(attr, site.method, latency, reason))
    return sites


def _site_latency(filt: Filter, site: CallSite, mutated: Set[str]) -> Tuple[object, str]:
    """``(latency, reason)`` of one send: what its ``interval=`` states."""
    from repro.runtime.messaging import TimeInterval

    def constant(node: ast.expr) -> Tuple[bool, object]:
        """``(known, value)`` of a literal, a module global, or a
        ``self.<attr>`` that ``work()`` provably never writes."""
        if isinstance(node, ast.Constant):
            return True, node.value
        if isinstance(node, ast.Name):
            if node.id in site.globals and node.id not in shadowed:
                return True, site.globals[node.id]
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in site.self_names
            and node.attr not in mutated
            and node.attr in vars(filt)
        ):
            return True, vars(filt)[node.attr]
        return False, None

    node = site.interval
    if site.spread:
        return UNRESOLVED, "the call spreads **kwargs"
    if node is None:
        return None, ""
    shadowed = _bound_names(site.function)
    known, value = constant(node)
    if known and value is None:
        return None, ""
    if known and isinstance(value, TimeInterval):
        return value.max_time, ""
    if (
        isinstance(node, ast.Call)
        and constant(node.func)[1] is TimeInterval
        and not any(isinstance(a, ast.Starred) for a in node.args)
        and not any(kw.arg is None for kw in node.keywords)
    ):
        stated = [kw.value for kw in node.keywords if kw.arg == "max_time"]
        stated = stated or list(node.args[:1])
        if stated:
            known, value = constant(stated[0])
            if known and isinstance(value, int) and not isinstance(value, bool):
                return value, ""
    return UNRESOLVED, f"interval={ast.unparse(node)} is not a compile-time constant"
