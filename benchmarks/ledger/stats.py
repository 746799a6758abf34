"""Summary statistics for the ledger: medians, quartiles, geometric means."""

from __future__ import annotations

import math
import statistics
from typing import Dict, Iterable, List, Sequence


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def quartiles(values: Sequence[float]):
    """``(q1, q3)`` as ``statistics.quantiles(n=4)`` gives them (the driver's
    spread); a single sample is its own quartiles."""
    if len(values) < 2:
        return float(values[0]), float(values[0])
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q3)


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile, ``p`` in [0, 100]."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, math.ceil(p / 100.0 * len(ordered)) - 1))
    return float(ordered[rank])


def geomean(values: Iterable[float]) -> float:
    values = [v for v in values]
    if not values or any(v <= 0 for v in values):
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and sample count of one metric's samples."""
    q1, q3 = quartiles(values)
    return {"median": median(values), "q1": q1, "q3": q3, "n": len(values)}


def geomean_of_medians(per_app: Dict[str, List[float]]) -> Dict[str, float]:
    """Geomean across apps of per-app medians, with the same reduction of
    the per-app quartiles (so a reader sees the within-run band too)."""
    rows = {app: summarize(v) for app, v in per_app.items() if v}
    return {
        "median": geomean(r["median"] for r in rows.values()),
        "q1": geomean(r["q1"] for r in rows.values()),
        "q3": geomean(r["q3"] for r in rows.values()),
        "n": min((r["n"] for r in rows.values()), default=0),
    }
