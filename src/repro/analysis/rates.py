"""Rate reports of ``work()``: their types, the read-set memo and its store.

A :class:`RateReport` is what one run of the symbolic executor
(:mod:`repro.analysis.executor`) decides about a filter's ``work()``: its
channel counts, the findings, the affine rows, the effects facts and the
work estimate the static cost table charges (``work``).
:func:`analyze_rates` and :func:`affine_rows` answer from the read-set memo
or from the cache directory's ``.rates`` entry, and import and run the
executor only on a miss: a process whose reports are all stored never
loads it.
"""

from __future__ import annotations

import builtins
import functools
import hashlib
import marshal
import math
import os
import sys
import types
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, NamedTuple, Optional, Set, Tuple

from repro.diskcache import cache_dir, codegen_cache_stats, evict, read_entry, write_entry
from repro.graph.base import Filter, Rate

try:  # numpy is an optional acceleration dependency elsewhere in the repo
    import numpy as _np
except Exception:  # pragma: no cover - environment without numpy
    _np = None

#: The cost table's trip count for a loop without a static bound.
DEFAULT_TRIP = 8

#: The cost table's charge for a transcendental call (sin, exp, sqrt, ...).
TRANSCENDENTAL_COST = 16


class _Data:
    """A value derived from the input channel (the executor's ``DATA``)."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return "DATA"


class Affine(_Data):
    """Stream data that is still an affine form over the input window:
    ``const + Σ coeffs[i]·peek(i)``."""

    __slots__ = ("coeffs", "const")

    def __init__(self, coeffs: Optional[Dict[int, float]] = None, const: float = 0.0) -> None:
        self.coeffs: Dict[int, float] = coeffs if coeffs is not None else {}
        self.const = float(const)

    @staticmethod
    def of_peek(index: int) -> "Affine":
        return Affine({index: 1.0}, 0.0)

    def add(self, other: "Affine") -> "Affine":
        coeffs = dict(self.coeffs)
        for k, v in other.coeffs.items():
            coeffs[k] = coeffs.get(k, 0.0) + v
        return Affine(coeffs, self.const + other.const)

    def neg(self) -> "Affine":
        return Affine({k: -v for k, v in self.coeffs.items()}, -self.const)

    def scale(self, factor: float) -> "Affine":
        factor = float(factor)
        return Affine({k: v * factor for k, v in self.coeffs.items()}, self.const * factor)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Affine({self.coeffs}, {self.const})"


#: The blocker (and, behind ``stateful:``, the extraction reason) for a
#: store into an object ``work()`` does not own.  The batched engine reads
#: it too: such a filter may not even be *tried* on clones.
FOREIGN_STORE = "work() stores into a non-local object"

#: The dynamic finding of a run that gave up at the step budget: its counts
#: widen to infinity and its ``work`` is what it charged before, a lower bound.
BUDGET_EXCEEDED = "analysis budget exceeded"


@dataclass
class Interval:
    lo: float
    hi: float

    @staticmethod
    def exactly(n: float) -> "Interval":
        return Interval(n, n)

    def bump(self, n: float = 1) -> None:
        self.lo += n
        self.hi += n

    def merged(self, other: "Interval") -> "Interval":
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def copy(self) -> "Interval":
        return Interval(self.lo, self.hi)

    @property
    def exact(self) -> bool:
        return self.lo == self.hi and math.isfinite(self.lo)

    def __str__(self) -> str:
        if self.exact:
            return str(int(self.lo))
        hi = "inf" if math.isinf(self.hi) else str(int(self.hi))
        return f"[{int(self.lo)}, {hi}]"


class WorkFacts(NamedTuple):
    """What one ``work()`` does besides counting: the effects facts."""

    #: ``self`` attributes stored to, directly or into a copy rooted there.
    writes: Tuple[str, ...]
    #: ``self`` attributes used as a value: anywhere but as the owner of a
    #: ``self.X.m(…)`` call.
    value_reads: Tuple[str, ...]
    #: ``(attr, method)`` calls on a ``self`` attribute or a copy rooted
    #: there: a mutation, or a message send when the attribute is a Portal.
    calls: Tuple[Tuple[str, str], ...]
    #: ``(attr, method, latency, reason)`` of each ``self.X.m(…)`` call:
    #: the latency its ``interval=`` states (see
    #: :class:`repro.analysis.effects.SendSite`).
    sites: Tuple[Tuple[str, str, Any, str], ...]
    #: Reasons the write set cannot be bounded.
    dynamic: Tuple[str, ...]
    #: Reasons ``self`` escapes to code the analysis cannot see.
    escapes: Tuple[str, ...]


@dataclass
class RateReport:
    """Result of symbolically executing one ``work()``."""

    pop: Interval
    push: Interval
    #: Largest peek offset (relative to the pre-firing window) that can be
    #: reached; -1 when work never peeks.
    max_peek: float
    #: Reasons exact counting was impossible (→ SL005).
    dynamic: Tuple[str, ...]
    #: Definite peek-out-of-bounds findings (→ SL003).
    peek_violations: Tuple[str, ...]
    #: Reasons batch (column-wise) execution is not provably safe.
    cert_blockers: Tuple[str, ...]
    #: The affine form of each pushed item, in push order; None when rows
    #: were not asked for or ``work()`` is not affine — ``nonlinear`` says
    #: which, naming the first construct that lost the form.
    rows: Optional[Tuple[Affine, ...]]
    nonlinear: Optional[str]
    facts: WorkFacts
    #: Estimated cycles per firing, charged by the static cost table as the
    #: run went (see :mod:`repro.analysis.executor`); None when the source
    #: is unavailable, a lower bound when the run gave up.
    work: Optional[float]

    @property
    def exact(self) -> bool:
        return not self.dynamic and self.pop.exact and self.push.exact


def _is_time_interval(value: Any) -> bool:
    """Is ``value`` the teleport latency class (a pure value constructor)?"""
    messaging = sys.modules.get("repro.runtime.messaging")
    return messaging is not None and value is messaging.TimeInterval


def inspect_unwrap(fn: Any) -> Any:
    import inspect

    try:
        return inspect.unwrap(fn)
    except Exception:
        return fn


def _builtins_of(globs: Dict[str, Any]) -> Dict[str, Any]:
    found = globs.get("__builtins__", builtins)
    return found if isinstance(found, dict) else vars(found)


# -- the read-set memo --------------------------------------------------------

_SCALAR_TYPES = frozenset({int, float, complex, bool, str, bytes, type(None)})
_NUMBER_TYPES = frozenset({int, float, complex, bool, type(None)})
_ABSENT = ("absent",)


def _digest(data: bytes) -> bytes:
    return hashlib.blake2b(data, digest_size=16).digest()


def _fingerprint(value: Any) -> Any:
    """A hashable stand-in for ``value`` that is equal only for values the
    analysis cannot tell apart, or None when there is none (opaque).

    Exact builtin scalars are tagged with their type (``1``, ``1.0`` and
    ``True`` differ; so do ``0.0`` and ``-0.0``, whose reprs differ); a
    flat list or tuple of them is one digested repr under a tag of its own
    (no two of those types share a repr, so it separates exactly what one
    tag per item would) — of numbers alone, the digest of their marshal
    bytes, which hold each one's type and bits and take a thirtieth of
    the time; other lists and tuples recurse (then digest);
    ndarrays are dtype + shape + a digest of the bytes; a :class:`Rate` is
    its three (validated int) fields.  Everything else — a Portal, a dict,
    a user object — is opaque.
    """
    kind = type(value)
    if kind in _SCALAR_TYPES:
        return (kind.__name__, repr(value))
    if kind is list or kind is tuple:
        # Digested, so a 256-tap coefficient list costs the memo 16 bytes.
        # Version 2 writes no back-references, so equal values give equal
        # bytes; strings stay on repr (marshal marks the interned ones).
        item_types = set(map(type, value))
        if _NUMBER_TYPES.issuperset(item_types):
            return (kind.__name__ + " of numbers", len(value), _digest(marshal.dumps(value, 2)))
        if _SCALAR_TYPES.issuperset(item_types):
            return (kind.__name__ + " of scalars", len(value), _digest(repr(value).encode()))
        items = tuple(map(_fingerprint, value))
        if None in items:
            return None
        return (kind.__name__, len(items), _digest(repr(items).encode()))
    if _np is not None and kind is _np.ndarray and not value.dtype.hasobject:
        return ("ndarray", value.dtype.str, value.shape, _digest(value.tobytes()))
    if kind is Rate:  # ``self.rate.peek`` as a loop bound is a common idiom
        return ("Rate", _fingerprint((value.peek, value.pop, value.push)))
    return None


#: Public name: the runtime compares live filter state with the same
#: fingerprints the memo is keyed on (region lowering's collapse tier).
value_fingerprint = _fingerprint


#: Modules whose contents the stored key's Python and numpy versions fix:
#: ``work()`` reading ``math.pi`` or ``np.float64`` records no read.
_VERSIONED_MODULES = frozenset(sys.stdlib_module_names) | {"numpy"}


def _resolved(value: Any) -> Any:
    """A value ``work()`` reaches by name: a module by its name (what it
    reads through the module is a read of its own), data by its
    fingerprint, anything else (a function, a class, an object) opaque."""
    if isinstance(value, types.ModuleType):
        return ("module", value.__name__)
    if _is_time_interval(value):  # a value constructor of fixed meaning
        return ("TimeInterval",)
    return _fingerprint(value)


def _global_fingerprint(globs: Dict[str, Any], name: str) -> Any:
    """What ``work()`` resolves the free name ``name`` to: a global by
    :func:`_resolved`, a builtin by its own name."""
    if name in globs:
        return _resolved(globs[name])
    return ("builtin", name) if name in _builtins_of(globs) else _ABSENT


def _attr_fingerprint(module_name: str, attr: str) -> Any:
    """What ``work()`` reads as ``attr`` of the module imported as
    ``module_name``; opaque when no module is."""
    module = sys.modules.get(module_name)
    if module is None:
        return None
    try:
        return _resolved(getattr(module, attr))
    except Exception:
        return _ABSENT


def _read_fingerprint(filt: Filter, globs: Dict[str, Any], name: Any) -> Any:
    """The current fingerprint of one read (a key of ``RateAnalyzer.reads``)."""
    if type(name) is tuple:
        if name[0] == "global":
            return _global_fingerprint(globs, name[1])
        return _attr_fingerprint(name[1], name[2])
    try:
        return _fingerprint(getattr(filt, name))
    except AttributeError:
        return _ABSENT


class _ReadSetMemo:
    """``key -> names read -> fingerprints of those names -> report``.

    Holds fingerprints and reports only: no filter instance and no live
    attribute value.  Bounded by dropping (nearly) everything when full — a
    process that keeps building *distinct* filters (a fuzzer) must not grow
    it without limit, and a refill costs one analysis per distinct filter.

    The cache directory (:func:`repro.diskcache.cache_dir`) keeps a copy
    for the next process: one ``<stem>.rates`` entry per key, whose stem
    names the class by module, qualified name and source digest instead of
    by object (:func:`_store_stem`).  The first miss on a key reads its
    entry (:meth:`load`); :meth:`flush` writes the keys that gained
    entries, and only a compiled session calls it, at its first steady
    pass — ``validate()`` and streamlint read and never write.
    """

    MAX_ENTRIES = 4096

    def __init__(self) -> None:
        self._by_key: Dict[tuple, Dict[tuple, Dict[tuple, RateReport]]] = {}
        self._entries = 0
        #: key -> its entry's stem (None: not storable), once it was read.
        self._stems: Dict[tuple, Optional[str]] = {}
        #: storable keys with entries the directory does not have yet.
        self._dirty: Set[tuple] = set()

    def __len__(self) -> int:
        return self._entries

    def clear(self) -> None:
        self._by_key.clear()
        self._entries = 0
        self._stems.clear()
        self._dirty.clear()

    def recall(self, key: tuple, filt: Filter) -> Optional[RateReport]:
        globs = getattr(key[1], "__globals__", {})
        for names, by_values in self._by_key.get(key, {}).items():
            values = tuple(_read_fingerprint(filt, globs, name) for name in names)
            report = by_values.get(values)
            if report is not None:
                return report
        return None

    def _put(self, key: tuple, names: tuple, values: tuple, report: RateReport) -> bool:
        if self._entries >= self.MAX_ENTRIES:
            self._make_room(key)
        by_values = self._by_key.setdefault(key, {}).setdefault(names, {})
        new = values not in by_values
        self._entries += new
        by_values[values] = report
        return new

    def _make_room(self, key: tuple) -> None:
        """Drop the entries of every key but ``key`` and those with entries
        not written yet — or theirs too, when they alone fill half the memo
        (a process that never writes).  ``key`` keeps its stem, so what is
        put next is still written."""
        kept = {k: self._by_key[k] for k in self._dirty | {key} if k in self._by_key}
        count = sum(len(by_values) for k in kept for by_values in kept[k].values())
        if count > self.MAX_ENTRIES // 2:
            kept, count = {}, 0
        self._by_key, self._entries = kept, count
        self._stems = {k: s for k, s in self._stems.items() if k in kept or k == key}
        self._dirty &= set(kept)

    def remember(self, key: tuple, reads: Dict[Any, Any], report: RateReport) -> None:
        values = tuple(reads.values())
        if None in values:  # an opaque read: nothing sound to key on
            return
        if self._put(key, tuple(reads), values, report) and self._stems.get(key):
            self._dirty.add(key)

    def load(self, key: tuple, filt: Filter) -> Optional[RateReport]:
        """On the first miss of ``key``: read its stored entries, then
        recall ``filt`` again.  One analysis hit or miss per storable key;
        an entry that is absent, damaged or from another Python is a miss."""
        if key in self._stems:
            return None
        stem = self._stems[key] = _store_stem(key)
        if stem is None:
            return None
        body = read_entry(cache_dir() / f"{stem}.rates", _STORE_TAG)
        if body is not None:
            try:
                version, stored, entries = marshal.loads(body)
                if (version, stored) == (sys.version_info[:2], stem):
                    for names, values, data in entries:
                        self._put(key, names, values, _report_of(data))
            except (EOFError, ValueError, TypeError):  # verified bytes of another shape
                pass
        report = self.recall(key, filt)
        codegen_cache_stats["disk_misses" if report is None else "disk_hits"] += 1
        return report

    def flush(self) -> None:
        """Write every key that gained entries since it was read, with all
        of its entries (those read included), then bound the directory."""
        directory = cache_dir()
        for key in self._dirty:
            stem = self._stems[key]
            entries = tuple(
                (names, values, _report_data(report))
                for names, by_values in self._by_key.get(key, {}).items()
                for values, report in by_values.items()
            )
            try:
                body = marshal.dumps((sys.version_info[:2], stem, entries))
            except ValueError:  # a numpy scalar in a report: keep it in-process
                continue
            write_entry(directory / f"{stem}.rates", _STORE_TAG, body)
        if self._dirty:
            self._dirty.clear()
            evict(directory, ".rates", STORE_MAX)


# -- the store ----------------------------------------------------------------

#: Rate entries a cache directory keeps (the oldest written go first).
STORE_MAX = 1024
_STORE_TAG = "repro-rates"


def _file_digest(path: str) -> Optional[str]:
    """The digest of the file as it is now: a module rewritten and reloaded
    in this process is named by its new source."""
    try:
        stat = os.stat(path)
        return _read_digest(path, stat.st_mtime_ns, stat.st_size)
    except OSError:
        return None


@functools.lru_cache(maxsize=None)
def _read_digest(path: str, mtime_ns: int, size: int) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@functools.lru_cache(maxsize=None)
def _analysis_digest() -> str:
    """This package's own source: a stored report is its executor's output."""
    files = sorted(Path(__file__).parent.glob("*.py"))
    return "".join(_file_digest(str(path)) or "?" for path in files)


def _class_origin(k: type) -> Optional[tuple]:
    """``(module, qualname, source digest)`` of one class of a filter's MRO;
    None when another process could not name it so: defined inside a
    function, no source file, or a function in its namespace that was
    defined elsewhere (a ``work`` assigned at run time)."""
    qualname = k.__qualname__
    path = getattr(sys.modules.get(k.__module__), "__file__", None)
    if "<locals>" in qualname or not path:
        return None
    for value in vars(k).values():
        fn = getattr(value, "__func__", value)  # staticmethod, classmethod
        if isinstance(fn, types.FunctionType) and not (
            fn.__module__ == k.__module__ and fn.__qualname__.startswith(qualname + ".")
        ):
            return None
    digest = _file_digest(path)
    return None if digest is None else (k.__module__, qualname, digest)


def _store_stem(key: tuple) -> Optional[str]:
    """The name ``key``'s entries are stored under, the same in every
    process: its class by :func:`_class_origin` of each class of the MRO,
    the declared rate, the rows flag, this package's source, the Python
    version and numpy's; None when the class has no such name."""
    cls, _work, rate, rows = key
    origins = [_class_origin(k) for k in cls.__mro__ if k is not object]
    if None in origins:
        return None
    parts = (
        origins, (rate.peek, rate.pop, rate.push), rows,
        _analysis_digest(), sys.version_info[:2], getattr(_np, "__version__", None),
    )
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:32]


def _report_data(report: RateReport) -> tuple:
    """``report`` as plain tuples, strings and numbers (what marshal takes)."""
    rows = report.rows and tuple((tuple(row.coeffs.items()), row.const) for row in report.rows)
    return (
        report.pop.lo, report.pop.hi, report.push.lo, report.push.hi, report.max_peek,
        report.dynamic, report.peek_violations, report.cert_blockers, rows, report.nonlinear,
        tuple(report.facts), report.work,
    )


def _report_of(data: tuple) -> RateReport:
    pop_lo, pop_hi, push_lo, push_hi, *findings, rows, nonlinear, facts, work = data
    rows = rows and tuple(Affine(dict(coeffs), const) for coeffs, const in rows)
    return RateReport(
        Interval(pop_lo, pop_hi), Interval(push_lo, push_hi), *findings, rows, nonlinear,
        WorkFacts(*facts), work,
    )


MEMO = _ReadSetMemo()


def analyze_rates(filt: Filter) -> RateReport:
    """Symbolically execute ``filt.work()``: channel counts and effects facts.

    Attributes the run writes or calls on are unstable — their reads
    evaluate to :data:`UNKNOWN`, so the analysis never trusts a stale
    build-time value (:meth:`repro.analysis.executor.RateAnalyzer.run`).

    The report is a deterministic function of the class (its ``work()`` and
    helper ASTs), the declared rates and the values of the ``self.<attr>``,
    module globals and module attributes the run reads, so it is memoised
    on exactly those: an instance whose current values fingerprint like an
    earlier run's shares that run's (read-only) report — in this process
    or, through the cache directory, in a later one.  A run that read an
    opaque value is not memoised.
    """
    return _memoised(filt, rows=False)


def affine_rows(filt: Filter) -> RateReport:
    """:func:`analyze_rates` with the affine form of every pushed item in
    ``report.rows`` — or the reason there is none in ``report.nonlinear``.
    A second memo entry beside the rate report's: ``validate()`` and
    streamlint never ask for rows and never pay for them."""
    return _memoised(filt, rows=True)


def _memoised(filt: Filter, rows: bool) -> RateReport:
    cls = type(filt)
    key = (cls, inspect_unwrap(cls.work), filt.rate, rows)
    report = MEMO.recall(key, filt)
    if report is None:
        report = MEMO.load(key, filt)
    if report is None:
        from repro.analysis.executor import RateAnalyzer

        analyzer = RateAnalyzer(filt, rows)
        report = analyzer.run()
        MEMO.remember(key, analyzer.reads, report)
    return report
