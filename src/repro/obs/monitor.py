"""Rendering for ``python -m repro.obs monitor`` / ``flight``.

Running sessions :func:`~repro.obs.metrics.MetricsRegistry.publish` atomic
``obs-<pid>.json`` snapshots (metrics + flight-recorder ring) into
:func:`~repro.obs.metrics.obs_dir`.  This module finds the newest snapshot
(or a specific ``--pid``) and renders it as a top-style text page — live
processes refresh theirs every ``metrics.PUBLISH_S`` seconds, crashed
ones leave their final atexit snapshot behind for post-mortems.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Dict, List, Optional

from repro.obs.metrics import obs_dir
from repro.obs.recorder import format_flight_event


def list_snapshots(directory: Optional[str] = None) -> List[str]:
    """Snapshot paths in the obs dir, newest first."""
    directory = directory or obs_dir()
    try:
        names = [
            n
            for n in os.listdir(directory)
            if n.startswith("obs-") and n.endswith(".json")
        ]
    except OSError:
        return []
    paths = [os.path.join(directory, n) for n in names]
    paths.sort(key=lambda p: _mtime(p), reverse=True)
    return paths


def _mtime(path: str) -> float:
    try:
        return os.path.getmtime(path)
    except OSError:
        return 0.0


def latest_snapshot(
    directory: Optional[str] = None, pid: Optional[int] = None
) -> Optional[Dict[str, Any]]:
    """Load the newest (or the given pid's) snapshot, or None."""
    for path in list_snapshots(directory):
        if pid is not None and not path.endswith(f"obs-{pid}.json"):
            continue
        try:
            with open(path) as fh:
                return json.load(fh)
        except (OSError, ValueError):
            continue
    return None


def _fmt_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.6g}"


def _fmt_labels(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    return "{" + ",".join(f"{k}={v}" for k, v in sorted(labels.items())) + "}"


def render_monitor(snap: Dict[str, Any], flight_tail: int = 6) -> str:
    """One top-style page: header, counters/gauges, histograms, flight tail."""
    lines: List[str] = []
    age = time.time() - snap.get("ts", 0.0)
    argv = " ".join(snap.get("argv", []))
    if len(argv) > 70:
        argv = argv[:67] + "..."
    lines.append(
        f"repro.obs monitor — pid {snap.get('pid', '?')} — "
        f"snapshot {age:.1f}s old"
    )
    if argv:
        lines.append(f"  cmd: {argv}")
    lines.append("")

    metrics = snap.get("metrics", {})
    plain: List[str] = []
    histograms: List[str] = []
    for name in sorted(metrics):
        family = metrics[name]
        for sample in family.get("samples", []):
            label_text = _fmt_labels(sample.get("labels", {}))
            if family.get("type") == "histogram":
                count = sample.get("count", 0)
                total = sample.get("sum", 0.0)
                mean = total / count if count else 0.0
                histograms.append(
                    f"  {name}{label_text}  count={count} "
                    f"sum={_fmt_value(total)} mean={mean:.6g}"
                )
            else:
                plain.append(
                    f"  {name}{label_text}  {_fmt_value(sample.get('value', 0))}"
                )
    if plain:
        lines.append("counters / gauges:")
        lines.extend(plain)
    if histograms:
        lines.append("histograms:")
        lines.extend(histograms)
    if not plain and not histograms:
        lines.append("(no metric samples recorded yet)")

    events = snap.get("flight", {}).get("events", [])
    if events:
        lines.append("")
        lines.append(f"flight recorder (last {min(flight_tail, len(events))}):")
        lines.extend(f"  {format_flight_event(e)}" for e in events[-flight_tail:])
    return "\n".join(lines)


def render_flight(snap: Dict[str, Any], n: Optional[int] = None) -> str:
    """The flight-recorder ring of one snapshot, one line per event."""
    flight = snap.get("flight", {})
    events = flight.get("events", [])
    if n is not None:
        events = events[-n:]
    header = (
        f"flight recorder — pid {snap.get('pid', '?')} — "
        f"{len(events)} event(s), {flight.get('dropped', 0)} dropped, "
        f"capacity {flight.get('capacity', '?')}"
    )
    return "\n".join([header] + [f"  {format_flight_event(e)}" for e in events])
