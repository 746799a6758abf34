"""Pin the static work estimate: one ``work_per_firing`` value per
``ALL_APPS`` instance and per crafted filter.

Instances are listed app by app in ``ALL_APPS`` order, each app's in
``filters()`` order, like :mod:`tests.executor_digests`; then one row per
filter of its crafted corpus (:data:`tests.executor_digests.CRAFTED`: the
constructs no app uses, which the cost table charges 1 with their parts
free).

``tests/test_estimate.py::test_estimates_match_the_pinned_table`` recomputes
the values and names every instance that differs.  After a change that is
*meant* to move an estimate, regenerate the file and review the diff::

    PYTHONPATH=src python -m tests.work_estimates
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List, Tuple

ESTIMATE_FILE = Path(__file__).resolve().parent / "data" / "work_estimates.json"


def estimates() -> List[Tuple[str, float]]:
    """``(app/index:Class, work_per_firing)`` for every instance of every
    app, then ``(crafted:Class, work_per_firing)`` for the crafted corpus."""
    import repro.runtime.messaging  # noqa: F401  (TimeInterval resolves as a value)
    from repro.apps import ALL_APPS
    from repro.estimate import work_per_firing
    from tests.executor_digests import CRAFTED

    return [
        (f"{app}/{i}:{type(filt).__name__}", work_per_firing(filt))
        for app, build in ALL_APPS.items()
        for i, filt in enumerate(build().filters())
    ] + [(f"crafted:{cls.__name__}", work_per_firing(cls())) for cls in CRAFTED]


def main() -> None:
    ESTIMATE_FILE.parent.mkdir(exist_ok=True)
    rows = estimates()
    ESTIMATE_FILE.write_text("[\n" + ",\n".join(json.dumps(row) for row in rows) + "\n]\n")
    print(f"{len(rows)} estimates written to {ESTIMATE_FILE}")


if __name__ == "__main__":
    main()
