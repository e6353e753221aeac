"""Unified observability: virtual-time tracing, metric export, profiling.

The paper's evaluation is an argument about *where time goes* — Table I's
service overview, fig07's scalability, fig09's invocation latencies.  This
layer gives the repro the same visibility: a run-scoped
:class:`~repro.obs.telemetry.Telemetry` hub records structured spans and
events stamped with the simulation's **virtual** clock (ticks, cluster
rounds, FaaS invocation attempts, migrations, faults, terrain requests), and
the exporters render them as Chrome trace-event JSON (Perfetto-loadable),
JSONL streams, and Prometheus-style metric dumps.

Determinism is the design constraint: every recorded value is virtual-time
data, so same-seed runs produce byte-identical traces; disabled telemetry is
a shared null object behind a single attribute check, bit-identical to an
uninstrumented run; and the opt-in wall-clock profiler is quarantined in its
own export key so it can never contaminate a determinism hash.

The re-exports resolve lazily (PEP 562): :mod:`repro.sim.engine` imports
:mod:`repro.obs.telemetry` for its default null hub, so eagerly importing the
exporters here (which import :mod:`repro.sim.metrics`) would risk closing an
import cycle through the sim layer.
"""

_EXPORTS = {
    "TraceEvent": "repro.obs.telemetry",
    "Telemetry": "repro.obs.telemetry",
    "NullTelemetry": "repro.obs.telemetry",
    "NULL_TELEMETRY": "repro.obs.telemetry",
    "TelemetryConfig": "repro.obs.telemetry",
    "install_telemetry": "repro.obs.telemetry",
    "WallClockProfiler": "repro.obs.profiling",
    "chrome_trace": "repro.obs.export",
    "trace_json": "repro.obs.export",
    "strip_wall_clock": "repro.obs.export",
    "write_chrome_trace": "repro.obs.export",
    "events_jsonl": "repro.obs.export",
    "write_jsonl": "repro.obs.export",
    "prometheus_text": "repro.obs.export",
    "write_prometheus": "repro.obs.export",
    "load_trace": "repro.obs.report",
    "validate_chrome_trace": "repro.obs.report",
    "trace_breakdown": "repro.obs.report",
    "format_trace_report": "repro.obs.report",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
