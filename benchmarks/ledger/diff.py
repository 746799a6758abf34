"""Compare two ledger results: ``python benchmarks/ledger/diff.py A.json B.json``.

One row per (end-to-end metric, workload): B's median beside its base (A's),
the ratio, and a verdict against the metric's bound —

* ``worse`` / ``better``: the median moved by more than the bound;
* ``within bound``: it did not;
* ``unresolved``: a run's own quartile band on its median (the distance
  between its quartiles over the square root of its sample count, as a share
  of the median) is wider than the bound, so the runs cannot tell.

Exit status 1 on any ``worse`` row or any rise in ``failed_ops_ratio``.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import END_TO_END  # noqa: E402


def band(row: dict) -> float:
    """Quartile band of a run's median, as a share of that median."""
    if not row["median"] or row["n"] < 2:
        return 0.0
    return (row["q3"] - row["q1"]) / abs(row["median"]) / math.sqrt(row["n"])


def verdict(name: str, a: dict, b: dict) -> str:
    _unit, better, bound, _workloads, _driver = END_TO_END[name]
    if name == "failed_ops_ratio":
        return "worse" if b["median"] > a["median"] else "within bound"
    if not a["median"]:
        return "unresolved"
    change = (b["median"] - a["median"]) / a["median"]
    worsening = -change if better == "higher" else change
    if max(band(a), band(b)) > bound:
        return "unresolved"
    if worsening > bound:
        return "worse"
    if worsening < -bound:
        return "better"
    return "within bound"


def rows(doc_a: dict, doc_b: dict):
    for workload, entry_a in doc_a["workloads"].items():
        entry_b = doc_b["workloads"].get(workload)
        if entry_b is None or "timed" not in entry_a or "timed" not in entry_b:
            continue
        for name, a in entry_a["timed"]["end_to_end"].items():
            b = entry_b["timed"]["end_to_end"].get(name)
            if b is not None:
                yield workload, name, a, b, verdict(name, a, b)


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__.splitlines()[0], file=sys.stderr)
        return 2
    doc_a, doc_b = (json.loads(Path(p).read_text()) for p in argv[1:])
    for doc, path in ((doc_a, argv[1]), (doc_b, argv[2])):
        for workload, entry in doc["workloads"].items():
            if not entry.get("timed", {}).get("comparable", True):
                print(f"{path}: {workload} is a fixed-round pass, not comparable", file=sys.stderr)
                return 2
    worse = 0
    print(f"{'workload':16s} {'metric':17s} {'B':>12s} {'base A':>12s} {'B/A':>7s} {'bound':>6s}  verdict")
    for workload, name, a, b, result in rows(doc_a, doc_b):
        ratio = b["median"] / a["median"] if a["median"] else float("nan")
        bound = END_TO_END[name][2]
        print(
            f"{workload:16s} {name:17s} {b['median']:12.5g} {a['median']:12.5g} "
            f"{ratio:7.3f} {bound:6.0%}  {result} [{a['unit']}]"
        )
        worse += result == "worse"
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
