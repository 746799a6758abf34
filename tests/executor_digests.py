"""Pin the rate executor's output: one digest per ``ALL_APPS`` instance.

Each digest covers every :class:`repro.analysis.rates.RateReport` field
but the cost estimate ``work`` (counts, ``max_peek``, ``dynamic``,
violations, blockers, ``rows``, ``nonlinear``, ``facts``) and the run's
``steps``, for an unmemoised :class:`~repro.analysis.executor.RateAnalyzer`
run in both ``rows`` modes.
Instances are listed app by app in ``ALL_APPS`` order, each app's in
``filters()`` order.

A second file pins the same digest for a corpus of crafted filters
(:data:`CRAFTED`), one per construct no app uses: ``try`` with and without
handlers, ``with``, ``del``, a lambda, an f-string, ``match``, the walrus
and a ``**kwargs`` helper call.  :mod:`tests.work_estimates` pins the
``work`` field, for the apps and this corpus, through ``work_per_firing``.

``tests/test_analysis.py::test_executor_output_matches_the_pinned_digests``
and ``::test_crafted_constructs_match_their_pinned_digests`` recompute the
digests and name every instance that differs.  After a change that is
*meant* to move the executor's output, regenerate the files and review the
diff::

    PYTHONPATH=src python -m tests.executor_digests
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import List, Tuple

from repro.graph.base import Filter

DIGEST_FILE = Path(__file__).resolve().parent / "data" / "executor_digests.json"
CRAFTED_FILE = Path(__file__).resolve().parent / "data" / "crafted_digests.json"


class TryExcept(Filter):
    def __init__(self):
        super().__init__(pop=2, push=1)

    def work(self):
        x = self.pop()
        try:
            y = x / self.pop()
        except ZeroDivisionError:
            y = 0.0
        self.push(y)


class TryFinally(Filter):
    def __init__(self):
        super().__init__(pop=1, push=2)
        self.n = 3

    def work(self):
        x = self.pop()
        try:
            for i in range(self.n):
                x = x + i
        finally:
            self.push(x)
        self.push(x * 2.0)


class With(Filter):
    def __init__(self):
        super().__init__(pop=1, push=1)
        self.guard = None

    def work(self):
        x = self.pop()
        with self.guard as g:
            self.total = g
        self.push(x)


class Del(Filter):
    def __init__(self):
        super().__init__(pop=1, push=1)
        self.memo = {0: 1.0}

    def work(self):
        x = self.pop()
        tmp = [x, x]
        del tmp[0]
        del self.memo[0]
        self.push(tmp[0])


class Lambda(Filter):
    def __init__(self):
        super().__init__(pop=1, push=1)
        self.k = 2.0

    def work(self):
        scale = lambda v: v * self.k  # noqa: E731
        self.push(scale(self.pop()))


class FString(Filter):
    def __init__(self):
        super().__init__(pop=1, push=1)
        self.label = "x"

    def work(self):
        x = self.pop()
        self.name_seen = f"{self.label}={x:.3f}"
        self.push(x)


class Match(Filter):
    def __init__(self):
        super().__init__(pop=1, push=1)
        self.mode = 1

    def work(self):
        x = self.pop()
        match self.mode:
            case 1:
                x = x * 2.0
            case _:
                x = -x
        self.push(x)


class Walrus(Filter):
    def __init__(self):
        super().__init__(peek=2, pop=1, push=1)

    def work(self):
        if (ahead := self.peek(1)) > 0:
            self.push(self.pop() + ahead)
        else:
            self.push(self.pop())


class KwargsHelper(Filter):
    def __init__(self):
        super().__init__(pop=1, push=1)
        self.opts = {"gain": 3.0}

    def scaled(self, x, gain=1.0):
        return x * gain

    def work(self):
        self.push(self.scaled(self.pop(), **self.opts))


#: The crafted corpus, one filter per construct.
CRAFTED = (TryExcept, TryFinally, With, Del, Lambda, FString, Match, Walrus, KwargsHelper)


def _run_data(filt, rows: bool) -> tuple:
    from repro.analysis.executor import RateAnalyzer

    analyzer = RateAnalyzer(filt, rows)
    report = analyzer.run()
    report_rows = report.rows and tuple(
        (tuple(row.coeffs.items()), row.const) for row in report.rows
    )
    return (
        (report.pop.lo, report.pop.hi), (report.push.lo, report.push.hi),
        report.max_peek, report.dynamic, report.peek_violations, report.cert_blockers,
        report_rows, report.nonlinear, tuple(report.facts), analyzer.steps,
    )


def _digest(filt) -> str:
    data = repr((_run_data(filt, False), _run_data(filt, True)))
    return hashlib.blake2b(data.encode(), digest_size=8).hexdigest()


def digests() -> List[Tuple[str, str]]:
    """``(app/index:Class, digest)`` for every instance of every app."""
    import repro.runtime.messaging  # noqa: F401  (TimeInterval resolves as a value)
    from repro.apps import ALL_APPS

    return [
        (f"{app}/{i}:{type(filt).__name__}", _digest(filt))
        for app, build in ALL_APPS.items()
        for i, filt in enumerate(build().filters())
    ]


def crafted_digests() -> List[Tuple[str, str]]:
    """``(Class, digest)`` for every filter of :data:`CRAFTED`."""
    return [(cls.__name__, _digest(cls())) for cls in CRAFTED]


def main() -> None:
    DIGEST_FILE.parent.mkdir(exist_ok=True)
    for path, rows in ((DIGEST_FILE, digests()), (CRAFTED_FILE, crafted_digests())):
        path.write_text("[\n" + ",\n".join(json.dumps(row) for row in rows) + "\n]\n")
        print(f"{len(rows)} digests written to {path}")


if __name__ == "__main__":
    main()
