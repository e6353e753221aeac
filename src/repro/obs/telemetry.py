"""The run-scoped telemetry hub: structured spans and events in virtual time.

One :class:`Telemetry` instance per run collects *causal* observability data
— tick and cluster-round spans, FaaS invocations (per attempt), player
migrations, shard kills and recoveries, degradation sheds, terrain requests —
each stamped with the simulation's **virtual** clock.  Because every value a
span carries is virtual-time data, two same-seed runs record byte-identical
traces; wall-clock profiling (see :mod:`repro.obs.profiling`) is opt-in and
kept strictly separate so it can never leak into the deterministic record.

The hub is designed to cost ~nothing when disabled: the engine carries a
shared :data:`NULL_TELEMETRY` null object whose ``enabled`` attribute is
``False``, and every instrumentation site is gated on exactly that one
attribute check::

    tel = self.engine.telemetry
    if tel.enabled:
        tel.span("tick", "tick", start_ms=..., duration_ms=..., track=...)

so a run without telemetry executes the same instruction stream it did before
the hooks existed (one attribute load and a failed branch per site).

This module deliberately imports nothing from the rest of the package so the
simulation engine can depend on it without cycles.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Mapping, Optional

from repro.obs.profiling import WallClockProfiler

#: the Chrome trace-event phases the hub records ("X" = complete span,
#: "i" = instant event); exporters add "M" metadata events on top
SPAN_PHASE = "X"
INSTANT_PHASE = "i"


@dataclass(frozen=True)
class TraceEvent:
    """One recorded span or instant event, entirely in virtual time."""

    #: Chrome trace-event phase: "X" (complete span) or "i" (instant)
    phase: str
    #: subsystem category; the built-in ones are tick, round (a cluster
    #: round), faas (one attempt), migration, fault and terrain (one request)
    category: str
    #: event name (e.g. "tick", the FaaS function name, the fault kind)
    name: str
    #: logical track the event renders on (shard name, "faas", "terrain", ...)
    track: str
    #: virtual start time, ms
    ts_ms: float
    #: virtual duration, ms (0 for instants)
    dur_ms: float = 0.0
    #: structured payload; values must be virtual-time data (no wall clock)
    args: Optional[Mapping[str, Any]] = None

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "ph": self.phase,
            "cat": self.category,
            "name": self.name,
            "track": self.track,
            "ts_ms": self.ts_ms,
        }
        if self.phase == SPAN_PHASE:
            out["dur_ms"] = self.dur_ms
        if self.args:
            out["args"] = {key: self.args[key] for key in sorted(self.args)}
        return out


class NullTelemetry:
    """The disabled hub: every operation is a no-op.

    Shared as :data:`NULL_TELEMETRY` and attached to every
    :class:`~repro.sim.engine.SimulationEngine` by default, so
    instrumentation sites never need a None check — only the single
    ``enabled`` attribute test.
    """

    enabled: bool = False
    #: wall-clock profiler, None unless profiling was opted into
    profiler: Optional[WallClockProfiler] = None

    def span(
        self,
        category: str,
        name: str,
        *,
        start_ms: float,
        duration_ms: float,
        track: str = "run",
        args: Optional[Mapping[str, Any]] = None,
    ) -> None:
        """Record a completed virtual-time span (no-op when disabled)."""

    def instant(
        self,
        category: str,
        name: str,
        *,
        track: str = "run",
        ts_ms: Optional[float] = None,
        args: Optional[Mapping[str, Any]] = None,
    ) -> None:
        """Record an instant event (no-op when disabled)."""

    def profile(self, section: str):
        """A wall-clock profiling context for ``section`` (no-op without one)."""
        return nullcontext()


#: the process-wide disabled hub (stateless, so sharing one instance is safe)
NULL_TELEMETRY = NullTelemetry()


class Telemetry(NullTelemetry):
    """The enabled hub: appends events to an in-memory, ordered record.

    Recording order is the simulation's execution order, which is itself
    deterministic, so the full event list — and any serialization of it — is
    reproducible from the seed.
    """

    enabled = True

    def __init__(self, engine: Any = None, profile: bool = False) -> None:
        #: the engine whose virtual clock stamps instants recorded without an
        #: explicit timestamp (duck-typed: anything with ``now_ms``)
        self.engine = engine
        self.events: list[TraceEvent] = []
        self.profiler = WallClockProfiler() if profile else None

    # -- recording ------------------------------------------------------------------

    def span(
        self,
        category: str,
        name: str,
        *,
        start_ms: float,
        duration_ms: float,
        track: str = "run",
        args: Optional[Mapping[str, Any]] = None,
    ) -> None:
        self.events.append(
            TraceEvent(
                phase=SPAN_PHASE,
                category=category,
                name=name,
                track=track,
                ts_ms=float(start_ms),
                dur_ms=float(duration_ms),
                args=args,
            )
        )

    def instant(
        self,
        category: str,
        name: str,
        *,
        track: str = "run",
        ts_ms: Optional[float] = None,
        args: Optional[Mapping[str, Any]] = None,
    ) -> None:
        if ts_ms is None:
            if self.engine is None:
                raise ValueError("instant() without ts_ms requires an engine")
            ts_ms = self.engine.now_ms
        self.events.append(
            TraceEvent(
                phase=INSTANT_PHASE,
                category=category,
                name=name,
                track=track,
                ts_ms=float(ts_ms),
                args=args,
            )
        )

    def profile(self, section: str):
        if self.profiler is None:
            return nullcontext()
        return self.profiler.section(section)

    def __len__(self) -> int:
        return len(self.events)


@dataclass(frozen=True)
class TelemetryConfig:
    """The validated, losslessly round-tripping ``telemetry`` spec section."""

    KEYS = frozenset({"enabled", "profile", "trace_path", "metrics_path"})

    #: record spans/events (the section being present defaults this to True)
    enabled: bool = True
    #: also accumulate opt-in wall-clock profiling counters
    profile: bool = False
    #: write a Chrome trace-event JSON (Perfetto-loadable) here after the run
    trace_path: Optional[str] = None
    #: write a Prometheus-style text dump of the metric registry here
    metrics_path: Optional[str] = None

    def __post_init__(self) -> None:
        for flag, value in (("enabled", self.enabled), ("profile", self.profile)):
            if not isinstance(value, bool):
                raise ValueError(f"telemetry.{flag} must be a boolean, got {value!r}")
        for key, value in (
            ("trace_path", self.trace_path),
            ("metrics_path", self.metrics_path),
        ):
            if value is not None and (not isinstance(value, str) or not value):
                raise ValueError(
                    f"telemetry.{key} must be a non-empty string path, got {value!r}"
                )

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TelemetryConfig":
        if not isinstance(data, Mapping):
            raise ValueError(
                f"telemetry must be a mapping, got {type(data).__name__}"
            )
        unknown = sorted(set(data) - cls.KEYS)
        if unknown:
            raise ValueError(
                f"unknown telemetry key(s) {unknown}; allowed keys: {sorted(cls.KEYS)}"
            )
        return cls(
            enabled=data.get("enabled", True),
            profile=data.get("profile", False),
            trace_path=data.get("trace_path"),
            metrics_path=data.get("metrics_path"),
        )

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"enabled": self.enabled}
        if self.profile:
            out["profile"] = True
        if self.trace_path is not None:
            out["trace_path"] = self.trace_path
        if self.metrics_path is not None:
            out["metrics_path"] = self.metrics_path
        return out


def install_telemetry(engine: Any, config: Optional[TelemetryConfig] = None):
    """Attach a telemetry hub to ``engine`` per ``config``.

    Returns the installed :class:`Telemetry`, or :data:`NULL_TELEMETRY` when
    the config is absent or disabled — in which case the engine is left with
    the null hub and the run is bit-identical to an uninstrumented one.
    """
    if config is None or not config.enabled:
        engine.telemetry = NULL_TELEMETRY
        return NULL_TELEMETRY
    hub = Telemetry(engine, profile=config.profile)
    engine.telemetry = hub
    return hub
