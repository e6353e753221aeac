"""Trace and metric exporters: Chrome trace-event JSON, JSONL, Prometheus text.

All exported *timestamps and durations are virtual* — the trace a run writes
is a function of the seed, so two same-seed runs export byte-identical files.
The only wall-clock data an export may carry is the opt-in profiler summary,
emitted under a single top-level ``wallProfile`` key that
:func:`strip_wall_clock` removes before any determinism comparison.

The Chrome format targets ``chrome://tracing`` and https://ui.perfetto.dev:
an object with a ``traceEvents`` list of ``"X"`` (complete span), ``"i"``
(instant) and ``"M"`` (metadata) events, timestamps in microseconds.  Each
telemetry track becomes one named thread, in first-seen order.
"""

from __future__ import annotations

import json
import re
from typing import TYPE_CHECKING, Any, Optional

from repro.obs.telemetry import INSTANT_PHASE, SPAN_PHASE, Telemetry

if TYPE_CHECKING:
    from repro.sim.metrics import MetricRegistry

#: the trace's single virtual "process"
TRACE_PID = 1


def chrome_trace(
    telemetry: Telemetry, metrics: Optional[Any] = None
) -> dict[str, Any]:
    """Render a telemetry record as a Chrome trace-event JSON object.

    ``metrics`` (a :class:`~repro.sim.metrics.MetricRegistry`) adds its
    deterministic snapshot under a ``metrics`` key; the opt-in wall-clock
    profiler, when present, is emitted under ``wallProfile`` (and only
    there — trace events never carry wall-clock data).
    """
    tids: dict[str, int] = {}
    events: list[dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": TRACE_PID,
            "tid": 0,
            "args": {"name": "repro (virtual time)"},
        }
    ]
    body: list[dict[str, Any]] = []
    for event in telemetry.events:
        tid = tids.get(event.track)
        if tid is None:
            tid = tids[event.track] = len(tids) + 1
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": TRACE_PID,
                    "tid": tid,
                    "args": {"name": event.track},
                }
            )
        entry: dict[str, Any] = {
            "name": event.name,
            "cat": event.category,
            "ph": event.phase,
            # Chrome trace timestamps are microseconds; ours are virtual ms.
            "ts": event.ts_ms * 1000.0,
            "pid": TRACE_PID,
            "tid": tid,
        }
        if event.phase == SPAN_PHASE:
            entry["dur"] = event.dur_ms * 1000.0
        elif event.phase == INSTANT_PHASE:
            entry["s"] = "t"  # thread-scoped instant
        if event.args:
            entry["args"] = {key: event.args[key] for key in sorted(event.args)}
        body.append(entry)

    trace: dict[str, Any] = {
        "traceEvents": events + body,
        "displayTimeUnit": "ms",
        "otherData": {"clock": "virtual", "unit_note": "ts/dur are virtual ms x1000"},
    }
    if metrics is not None:
        trace["metrics"] = metrics.to_dict()
    if telemetry.profiler is not None:
        trace["wallProfile"] = telemetry.profiler.to_dict()
    return trace


def strip_wall_clock(trace: dict[str, Any]) -> dict[str, Any]:
    """The trace without its (only) wall-clock field, for determinism diffs."""
    return {key: value for key, value in trace.items() if key != "wallProfile"}


def trace_json(
    telemetry: Telemetry, metrics: Optional[Any] = None, indent: Optional[int] = None
) -> str:
    """The Chrome trace serialized canonically (sorted keys, stable floats)."""
    return json.dumps(
        chrome_trace(telemetry, metrics), indent=indent, sort_keys=True
    )


def write_chrome_trace(
    path: str, telemetry: Telemetry, metrics: Optional[Any] = None
) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(trace_json(telemetry, metrics, indent=1))
        handle.write("\n")


def events_jsonl(telemetry: Telemetry) -> str:
    """One canonical JSON object per recorded event, in recording order."""
    return "".join(
        json.dumps(event.to_dict(), sort_keys=True) + "\n"
        for event in telemetry.events
    )


def write_jsonl(path: str, telemetry: Telemetry) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(events_jsonl(telemetry))


# -- Prometheus-style text dump ---------------------------------------------------------

_PROM_SANITIZE = re.compile(r"[^a-zA-Z0-9_]")


def _prom_name(base: str) -> str:
    return "repro_" + _PROM_SANITIZE.sub("_", base)


def _prom_value(value: float) -> str:
    return repr(float(value))


def prometheus_text(metrics: MetricRegistry) -> str:
    """A Prometheus exposition-style dump of a :class:`MetricRegistry`.

    Per-shard histogram variants (``base:shard``, see
    :func:`~repro.sim.metrics.metric_name`) fold into the base metric with a
    ``shard`` label; counters export as ``counter``, histograms as ``summary``
    (quantiles + ``_sum``/``_count``), series as a ``gauge`` of the last value
    plus a sample-count counter.  Output order is deterministic (sorted).
    """
    from repro.sim.metrics import split_metric_name

    lines: list[str] = []

    for name in metrics.counter_names:
        base, shard = split_metric_name(name)
        prom = _prom_name(base)
        label = f'{{shard="{shard}"}}' if shard is not None else ""
        lines.append(f"# TYPE {prom} counter")
        lines.append(f"{prom}{label} {_prom_value(metrics.counter(name))}")

    # Group per-shard variants under their base so TYPE is emitted once.
    histogram_groups: dict[str, list[tuple[Optional[str], str]]] = {}
    for name in metrics.histogram_names:
        base, shard = split_metric_name(name)
        histogram_groups.setdefault(base, []).append((shard, name))
    for base in sorted(histogram_groups):
        prom = _prom_name(base)
        lines.append(f"# TYPE {prom} summary")
        for shard, name in histogram_groups[base]:
            histogram = metrics.histogram(name)
            if len(histogram) == 0:
                continue
            stats = histogram.boxplot()
            shard_label = f',shard="{shard}"' if shard is not None else ""
            for quantile, value in (
                ("0.05", stats.p5),
                ("0.25", stats.p25),
                ("0.5", stats.median),
                ("0.75", stats.p75),
                ("0.95", stats.p95),
            ):
                lines.append(
                    f'{prom}{{quantile="{quantile}"{shard_label}}} {_prom_value(value)}'
                )
            suffix = f'{{shard="{shard}"}}' if shard is not None else ""
            lines.append(
                f"{prom}_sum{suffix} {_prom_value(stats.mean * stats.count)}"
            )
            lines.append(f"{prom}_count{suffix} {_prom_value(stats.count)}")

    for name in metrics.series_names:
        series = metrics.series(name)
        base, shard = split_metric_name(name)
        prom = _prom_name(base)
        label = f'{{shard="{shard}"}}' if shard is not None else ""
        lines.append(f"# TYPE {prom} gauge")
        if len(series):
            lines.append(f"{prom}{label} {_prom_value(series.values[-1])}")
        lines.append(f"{prom}_samples{label} {_prom_value(len(series))}")

    return "\n".join(lines) + "\n"


def write_prometheus(path: str, metrics: Any) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(prometheus_text(metrics))
