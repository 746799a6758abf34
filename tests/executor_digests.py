"""Pin the rate executor's output: one digest per ``ALL_APPS`` instance.

Each digest covers every :class:`repro.analysis.rates.RateReport` field
(counts, ``max_peek``, ``dynamic``, violations, blockers, ``rows``,
``nonlinear``, ``facts``) and the run's ``steps``, for an unmemoised
:class:`~repro.analysis.rates.RateAnalyzer` run in both ``rows`` modes.
Instances are listed app by app in ``ALL_APPS`` order, each app's in
``filters()`` order.

``tests/test_analysis.py::test_executor_output_matches_the_pinned_digests``
recomputes the digests and names every instance that differs.  After a
change that is *meant* to move the executor's output, regenerate the file
and review the diff::

    PYTHONPATH=src python -m tests.executor_digests
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import List, Tuple

DIGEST_FILE = Path(__file__).resolve().parent / "data" / "executor_digests.json"


def _run_data(filt, rows: bool) -> tuple:
    from repro.analysis.rates import RateAnalyzer

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


def digests() -> List[Tuple[str, str]]:
    """``(app/index:Class, digest)`` for every instance of every app."""
    import repro.runtime.messaging  # noqa: F401  (TimeInterval resolves as a value)
    from repro.apps import ALL_APPS

    out = []
    for app, build in ALL_APPS.items():
        for i, filt in enumerate(build().filters()):
            data = repr((_run_data(filt, False), _run_data(filt, True)))
            digest = hashlib.blake2b(data.encode(), digest_size=8).hexdigest()
            out.append((f"{app}/{i}:{type(filt).__name__}", digest))
    return out


def main() -> None:
    DIGEST_FILE.parent.mkdir(exist_ok=True)
    rows = digests()
    DIGEST_FILE.write_text("[\n" + ",\n".join(json.dumps(row) for row in rows) + "\n]\n")
    print(f"{len(rows)} digests written to {DIGEST_FILE}")


if __name__ == "__main__":
    main()
