"""Trace loading, schema validation, and the Table-I-style breakdown report.

``repro report <trace.json>`` reads a Chrome trace written by
:mod:`repro.obs.export`, validates it against the trace-event schema subset
the exporters emit, and prints a per-subsystem breakdown — where the run's
virtual time went, by span category — in the spirit of the paper's Table I
service overview.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, Optional

#: phases a valid exported trace may contain
_VALID_PHASES = ("X", "i", "M")


def load_trace(path: str) -> dict[str, Any]:
    with open(path, "r", encoding="utf-8") as handle:
        trace = json.load(handle)
    if not isinstance(trace, dict):
        raise ValueError(f"{path}: a Chrome trace must be a JSON object")
    return trace


def validate_chrome_trace(trace: Any) -> list[str]:
    """Validate the trace-event schema subset we emit; returns problem strings.

    An empty list means the trace is loadable by ``chrome://tracing`` and
    Perfetto: ``traceEvents`` is a list of events with the phase-appropriate
    required fields, numeric non-negative timestamps/durations, and integer
    pid/tid.
    """
    problems: list[str] = []
    if not isinstance(trace, dict):
        return [f"trace must be a JSON object, got {type(trace).__name__}"]
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        return ["trace.traceEvents must be a list"]
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        phase = event.get("ph")
        if phase not in _VALID_PHASES:
            problems.append(f"{where}: invalid phase {phase!r}")
            continue
        if not isinstance(event.get("name"), str) or not event["name"]:
            problems.append(f"{where}: missing or empty name")
        for key in ("pid", "tid"):
            if not isinstance(event.get(key), int):
                problems.append(f"{where}: {key} must be an integer")
        if phase == "M":
            if not isinstance(event.get("args"), dict):
                problems.append(f"{where}: metadata event without args")
            continue
        if not isinstance(event.get("cat"), str) or not event["cat"]:
            problems.append(f"{where}: missing category")
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or isinstance(ts, bool) or not math.isfinite(ts) or ts < 0:
            problems.append(f"{where}: ts must be a finite non-negative number")
        if phase == "X":
            dur = event.get("dur")
            if (
                not isinstance(dur, (int, float))
                or isinstance(dur, bool)
                or not math.isfinite(dur)
                or dur < 0
            ):
                problems.append(f"{where}: dur must be a finite non-negative number")
        elif phase == "i":
            if event.get("s") not in ("t", "p", "g"):
                problems.append(f"{where}: instant event scope must be t/p/g")
    return problems


@dataclass(frozen=True)
class CategoryBreakdown:
    """Aggregated spans of one category (one subsystem row of the report)."""

    category: str
    count: int
    total_ms: float
    mean_ms: float
    max_ms: float
    p95_ms: float
    #: this category's fraction of all span time in the trace
    share: float


def _p95(sorted_values: list[float]) -> float:
    # Nearest-rank p95 — self-contained so the report needs no numpy.
    rank = max(0, math.ceil(0.95 * len(sorted_values)) - 1)
    return sorted_values[rank]


def trace_breakdown(
    trace: dict[str, Any],
) -> tuple[list[CategoryBreakdown], dict[str, int]]:
    """Aggregate a validated trace into per-category span stats + instant counts.

    Returns ``(span_rows, instant_counts)``: one row per span category sorted
    by descending total virtual time, and a ``{category: count}`` map of the
    instant events (faults, fallbacks).  Durations come back in virtual ms
    (the export stores microseconds).
    """
    durations: dict[str, list[float]] = {}
    instants: dict[str, int] = {}
    for event in trace.get("traceEvents", []):
        phase = event.get("ph")
        if phase == "X":
            durations.setdefault(event["cat"], []).append(event["dur"] / 1000.0)
        elif phase == "i":
            instants[event["cat"]] = instants.get(event["cat"], 0) + 1
    grand_total = sum(sum(values) for values in durations.values())
    rows = []
    for category in sorted(durations):
        values = sorted(durations[category])
        total = sum(values)
        rows.append(
            CategoryBreakdown(
                category=category,
                count=len(values),
                total_ms=total,
                mean_ms=total / len(values),
                max_ms=values[-1],
                p95_ms=_p95(values),
                share=(total / grand_total) if grand_total > 0 else 0.0,
            )
        )
    rows.sort(key=lambda row: (-row.total_ms, row.category))
    return rows, instants


def format_table(headers: list[str], rows: list[list[str]]) -> str:
    """Render a fixed-width text table (this report and every experiment's)."""
    widths = [len(header) for header in headers]
    for row in rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [
        "  ".join(header.ljust(widths[index]) for index, header in enumerate(headers)),
        "  ".join("-" * width for width in widths),
    ]
    for row in rows:
        lines.append("  ".join(cell.ljust(widths[index]) for index, cell in enumerate(row)))
    return "\n".join(lines)


def format_trace_report(trace: dict[str, Any], source: Optional[str] = None) -> str:
    """The printable per-subsystem report for one loaded trace."""
    spans, instants = trace_breakdown(trace)
    out: list[str] = []
    if source:
        out.append(f"trace: {source}")
    event_total = len(trace.get("traceEvents", []))
    out.append(f"events: {event_total} (virtual-time clock)")
    out.append("")
    out.append("per-subsystem span breakdown (virtual ms):")
    rows = [
        [
            row.category,
            str(row.count),
            f"{row.total_ms:.1f}",
            f"{row.mean_ms:.3f}",
            f"{row.p95_ms:.3f}",
            f"{row.max_ms:.3f}",
            f"{100.0 * row.share:.1f}%",
        ]
        for row in spans
    ]
    out.append(
        format_table(
            ["category", "count", "total", "mean", "p95", "max", "share"], rows
        )
    )
    if instants:
        out.append("")
        out.append("instant events:")
        out.append(
            format_table(
                ["category", "count"],
                [[category, str(count)] for category, count in sorted(instants.items())],
            )
        )
    profile = trace.get("wallProfile")
    if profile:
        out.append("")
        out.append("wall-clock profile (opt-in, NOT part of virtual results):")
        out.append(
            format_table(
                ["section", "calls", "wall_s"],
                [
                    [name, str(int(stats["calls"])), f"{stats['wall_s']:.4f}"]
                    for name, stats in sorted(profile.items())
                ],
            )
        )
    return "\n".join(out)
