"""``python -m repro.obs report`` — render a per-filter table from a trace.

Aggregates the span events of a ``streamscope`` Chrome trace into the
attribution table the paper's evaluation reasons about: per filter (or
fused chain / cyclic core), how many spans and firings ran, how many items
moved, how much wall-clock self-time was spent, and — for parallel traces
— what fraction of that time was ring-buffer stall, attributed to the
producer/consumer filters of each cross-worker edge.  Engine downgrades
(SL302/SL303/SL304) recorded in the trace metadata are printed below the
table, so a "why is this slow" question and a "why did my engine change"
question have the same entry point.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.obs.chrome import track_names, trace_summary
from repro.obs.tracer import SELF_TIME_CATS


def _meta(payload: Dict[str, Any]) -> Dict[str, Any]:
    """The ``repro.meta`` section, or ``{}`` — partial traces (other
    producers, truncated files, pre-metadata crashes) may miss any level."""
    repro = payload.get("repro")
    if not isinstance(repro, dict):
        return {}
    meta = repro.get("meta")
    return meta if isinstance(meta, dict) else {}


def _num(value: Any, default: float = 0.0) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        return default


def aggregate_filters(payload: Dict[str, Any]) -> Dict[str, Dict[str, float]]:
    """name -> {self_time_us, spans, firings, items, tids} over span events."""
    rows: Dict[str, Dict[str, Any]] = {}
    for event in payload.get("traceEvents", []):
        if event.get("ph") != "X" or event.get("cat") not in SELF_TIME_CATS:
            continue
        row = rows.setdefault(
            event.get("name", "?"),
            {"self_time_us": 0.0, "spans": 0, "firings": 0, "items": 0, "tids": set()},
        )
        row["self_time_us"] += _num(event.get("dur", 0.0))
        row["spans"] += 1
        args = event.get("args") or {}
        row["firings"] += int(_num(args.get("firings", 0)))
        row["items"] += int(_num(args.get("items", 0)))
        row["tids"].add(event.get("tid", 0))
    return rows


def ring_stalls(payload: Dict[str, Any]) -> Dict[str, Dict[str, float]]:
    """Ring name -> last stall-counter sample (counters are cumulative).

    Degrades gracefully on partial traces: counter events without names or
    dict args are skipped, and a missing/odd-shaped ``meta.channels``
    section simply contributes nothing.
    """
    rings: Dict[str, Dict[str, float]] = {}
    for event in payload.get("traceEvents", []):
        name = event.get("name", "")
        if (
            event.get("ph") == "C"
            and isinstance(name, str)
            and name.startswith("ring:")
        ):
            args = event.get("args")
            rings[name[len("ring:"):]] = dict(args) if isinstance(args, dict) else {}
    # Channel snapshots in the metadata cover rings the counters missed.
    channels = _meta(payload).get("channels")
    if isinstance(channels, dict):
        for name, row in channels.items():
            if (
                isinstance(row, dict)
                and row.get("kind") == "ring"
                and name not in rings
            ):
                rings[name] = row
    return rings


def _attribute_stalls(
    rows: Dict[str, Dict[str, Any]], rings: Dict[str, Dict[str, float]]
) -> None:
    """Fold ring stall time into the producer/consumer filters' rows.

    A ring is named ``src->dst``; producer-side stall (waiting for space —
    backpressure) belongs to ``src``, consumer-side stall (waiting for
    items — starvation) to ``dst``.
    """
    for row in rows.values():
        row.setdefault("stall_us", 0.0)
    for name, stats in rings.items():
        src, _, dst = name.partition("->")
        if src in rows:
            rows[src]["stall_us"] += 1e6 * _num(stats.get("producer_stall_s", 0.0))
        if dst in rows:
            rows[dst]["stall_us"] += 1e6 * _num(stats.get("consumer_stall_s", 0.0))


def report_payload(payload: Dict[str, Any], top: Optional[int] = None) -> Dict[str, Any]:
    """The report as a JSON-serializable document (``report --json``).

    Same aggregation as :func:`render_report`, but machine-readable so
    external dashboards can consume a trace without re-parsing the
    rendered table.
    """
    summary = trace_summary(payload)
    meta = _meta(payload)
    rows = aggregate_filters(payload)
    rings = ring_stalls(payload)
    _attribute_stalls(rows, rings)

    total_self = sum(r["self_time_us"] for r in rows.values()) or 1.0
    ordered = sorted(rows.items(), key=lambda kv: -kv[1]["self_time_us"])
    if top:
        ordered = ordered[:top]
    filters = [
        {
            "name": name,
            "spans": row["spans"],
            "firings": row["firings"],
            "items": row["items"],
            "self_time_us": row["self_time_us"],
            "self_pct": 100.0 * row["self_time_us"] / total_self,
            "stall_us": row["stall_us"],
            "tids": sorted(row["tids"]),
        }
        for name, row in ordered
    ]
    doc: Dict[str, Any] = {
        "summary": {
            "spans": summary["spans"],
            "tracks": sorted(summary["tracks"]),
            "wall_us": summary["wall_us"],
            "dropped_events": summary["dropped_events"],
        },
        "filters": filters,
        "rings": {name: dict(stats) for name, stats in sorted(rings.items())},
    }
    for key in ("engine_report", "teleports", "plan_cache", "codegen_cache"):
        if key in meta:
            doc[key] = meta[key]
    return doc


def render_report(payload: Dict[str, Any], top: Optional[int] = None) -> str:
    """The full textual report for one loaded trace."""
    summary = trace_summary(payload)
    names = track_names(payload)
    meta = _meta(payload)
    rows = aggregate_filters(payload)
    rings = ring_stalls(payload)
    _attribute_stalls(rows, rings)

    lines: List[str] = []
    track_list = ", ".join(
        f"{tid}:{names.get(tid) or 'track'}" for tid in summary["tracks"]
    )
    lines.append(
        f"== streamscope report: {summary['spans']} spans on "
        f"{len(summary['tracks'])} track(s) [{track_list}], "
        f"{summary['wall_us'] / 1e3:.1f} ms wall =="
    )
    if summary["dropped_events"]:
        lines.append(
            f"   (ring recorder dropped {summary['dropped_events']} oldest events)"
        )

    total_self = sum(r["self_time_us"] for r in rows.values()) or 1.0
    width = max([len(n) for n in rows] + [6]) + 2
    lines.append("")
    lines.append(
        f"{'filter':{width}s}{'spans':>7s}{'firings':>10s}{'items':>12s}"
        f"{'self ms':>10s}{'self%':>7s}{'stall%':>7s}"
    )
    ordered = sorted(rows.items(), key=lambda kv: -kv[1]["self_time_us"])
    if top:
        ordered = ordered[:top]
    for name, row in ordered:
        self_us = row["self_time_us"]
        stall_pct = 100.0 * row["stall_us"] / self_us if self_us else 0.0
        lines.append(
            f"{name:{width}s}{row['spans']:>7d}{row['firings']:>10d}"
            f"{row['items']:>12d}{self_us / 1e3:>10.2f}"
            f"{100.0 * self_us / total_self:>6.1f}%"
            f"{min(stall_pct, 100.0):>6.1f}%"
        )

    if rings:
        lines.append("")
        lines.append("cross-worker rings (cumulative stalls):")
        for name, stats in sorted(rings.items()):
            lines.append(
                f"  {name}: backpressure {int(_num(stats.get('producer_stalls', 0)))}x/"
                f"{_num(stats.get('producer_stall_s', 0.0)) * 1e3:.1f} ms, "
                f"starvation {int(_num(stats.get('consumer_stalls', 0)))}x/"
                f"{_num(stats.get('consumer_stall_s', 0.0)) * 1e3:.1f} ms"
            )

    teleports = meta.get("teleports", [])
    if isinstance(teleports, list) and teleports:
        records = [t for t in teleports if isinstance(t, dict)]
        delivered = [t for t in records if t.get("delivered_n") is not None]
        ok = sum(1 for t in delivered if t.get("sdep_ok"))
        lines.append("")
        lines.append(
            f"teleport messages: {len(records)} sent, {len(delivered)} "
            f"delivered, {ok}/{len(delivered)} at the exact SDEP boundary"
        )
        for t in delivered[:8]:
            lines.append(
                f"  {t.get('sender', '?')} -> {t.get('receiver', '?')}"
                f".{t.get('method', '?')} "
                f"latency={t.get('latency', '?')} "
                f"threshold={t.get('threshold', '?')} "
                f"delivered_at={t.get('delivered_n')} "
                f"(+{t.get('latency_iterations', '?')} firings)"
            )

    report = meta.get("engine_report", {})
    if not isinstance(report, dict):
        report = {}
    downgrades = report.get("downgrades", [])
    if report:
        lines.append("")
        lines.append(
            f"engine: requested {report.get('requested')!r}, "
            f"ran {report.get('used')!r}"
        )
    if isinstance(downgrades, list):
        for d in downgrades:
            if isinstance(d, dict):
                lines.append(f"  downgrade [{d.get('code')}]: {d.get('message')}")

    codegen = report.get("codegen")
    blocks = codegen.get("blocks") if isinstance(codegen, dict) else None
    for block in blocks or []:
        if isinstance(block, dict) and "forwarded" in block:
            taped = block.get("taped", {})
            lines.append(
                f"  codegen core ({block.get('mode')}): "
                f"{len(block['forwarded'])} tape(s) in locals, {len(taped)} on lists"
            )
            for name in block["forwarded"]:
                lines.append(f"    forwarded {name}")
            for name, why in taped.items():
                lines.append(f"    taped {name}: {why}")
            if block.get("hoisted"):
                lines.append(f"    hoisted {', '.join(block['hoisted'])}")

    cache = meta.get("plan_cache")
    if isinstance(cache, dict) and cache:
        lines.append(
            f"plan cache: {cache.get('hits', 0)} hit(s), "
            f"{cache.get('misses', 0)} miss(es)"
        )
    cg = meta.get("codegen_cache")
    if isinstance(cg, dict) and cg:
        lines.append(
            f"codegen cache: memory {cg.get('mem_hits', 0)} hit(s) / "
            f"{cg.get('mem_misses', 0)} miss(es) "
            f"({cg.get('mem_size', 0)}/{cg.get('mem_max', 0)} modules), "
            f"disk {cg.get('disk_hits', 0)} hit(s) / "
            f"{cg.get('disk_misses', 0)} miss(es) "
            f"({cg.get('disk_size', 0)} files in {cg.get('disk_dir', '?')})"
        )
        evictions = cg.get("mem_evictions", 0) + cg.get("disk_evictions", 0)
        if evictions:
            lines.append(f"  codegen cache evictions: {evictions}")
    return "\n".join(lines)
