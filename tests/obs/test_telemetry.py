"""Unit tests for the telemetry hub, its null object, and its config."""

from __future__ import annotations

import pytest

from repro.obs.telemetry import (
    NULL_TELEMETRY,
    NullTelemetry,
    Telemetry,
    TelemetryConfig,
    TraceEvent,
    install_telemetry,
)
from repro.sim import SimulationEngine

from telemetry_helpers import instants, spans, virtual_digest


class TestNullTelemetry:
    def test_disabled_and_noop(self):
        hub = NullTelemetry()
        assert hub.enabled is False
        assert hub.profiler is None
        hub.span("tick", "tick", start_ms=0.0, duration_ms=1.0)
        hub.instant("fault", "kind")
        with hub.profile("anything"):
            pass  # the context must be a working no-op

    def test_engine_default_is_the_shared_null_hub(self):
        assert SimulationEngine(seed=1).telemetry is NULL_TELEMETRY
        assert SimulationEngine(seed=2).telemetry is NULL_TELEMETRY


class TestTelemetry:
    def test_span_recording(self, engine):
        hub = Telemetry(engine)
        assert hub.enabled is True
        hub.span("tick", "tick", start_ms=50.0, duration_ms=4.5, track="server",
                 args={"index": 0})
        assert len(hub) == 1
        event = hub.events[0]
        assert event == TraceEvent(
            phase="X", category="tick", name="tick", track="server",
            ts_ms=50.0, dur_ms=4.5, args={"index": 0},
        )

    def test_instant_defaults_to_engine_clock(self, engine):
        hub = Telemetry(engine)
        engine.advance_to(123.0)
        hub.instant("fault", "faas.failure", track="faults")
        assert hub.events[0].ts_ms == 123.0
        assert hub.events[0].dur_ms == 0.0

    def test_instant_without_engine_requires_timestamp(self):
        hub = Telemetry()
        with pytest.raises(ValueError, match="requires an engine"):
            hub.instant("fault", "kind")
        hub.instant("fault", "kind", ts_ms=5.0)
        assert hub.events[0].ts_ms == 5.0

    def test_filtering_and_categories(self, engine):
        hub = Telemetry(engine)
        hub.span("tick", "tick", start_ms=0.0, duration_ms=1.0)
        hub.span("faas", "fn", start_ms=0.0, duration_ms=2.0)
        hub.instant("fault", "net.drop", ts_ms=1.0)
        assert [e.category for e in spans(hub)] == ["tick", "faas"]
        assert [e.name for e in spans(hub, "faas")] == ["fn"]
        assert [e.name for e in instants(hub)] == ["net.drop"]
        assert sorted({event.category for event in hub.events}) == ["faas", "fault", "tick"]

    def test_virtual_digest_is_stable_and_order_sensitive(self, engine):
        first, second = Telemetry(engine), Telemetry(engine)
        for hub in (first, second):
            hub.span("tick", "tick", start_ms=0.0, duration_ms=1.0)
            hub.instant("fault", "kind", ts_ms=2.0)
        assert virtual_digest(first) == virtual_digest(second)
        third = Telemetry(engine)
        third.instant("fault", "kind", ts_ms=2.0)
        third.span("tick", "tick", start_ms=0.0, duration_ms=1.0)
        assert virtual_digest(third) != virtual_digest(first)

    def test_profiling_accumulates_but_never_touches_the_digest(self, engine):
        hub = Telemetry(engine, profile=True)
        with hub.profile("server.tick"):
            hub.span("tick", "tick", start_ms=0.0, duration_ms=1.0)
        with hub.profile("server.tick"):
            pass
        stats = hub.profiler.to_dict()
        assert stats["server.tick"]["calls"] == 2
        assert stats["server.tick"]["wall_s"] >= 0.0
        plain = Telemetry(engine)
        plain.span("tick", "tick", start_ms=0.0, duration_ms=1.0)
        assert virtual_digest(hub) == virtual_digest(plain)

    def test_profile_is_noop_without_opt_in(self, engine):
        hub = Telemetry(engine)
        assert hub.profiler is None
        with hub.profile("section"):
            pass


class TestTelemetryConfig:
    def test_defaults_and_round_trip(self):
        config = TelemetryConfig.from_dict({})
        assert config == TelemetryConfig(enabled=True, profile=False)
        full = TelemetryConfig.from_dict(
            {"enabled": True, "profile": True,
             "trace_path": "t.json", "metrics_path": "m.prom"}
        )
        assert TelemetryConfig.from_dict(full.to_dict()) == full
        # The minimal dict stays minimal through the round trip.
        assert config.to_dict() == {"enabled": True}

    @pytest.mark.parametrize(
        "bad, match",
        [
            ({"bogus": 1}, "unknown telemetry key"),
            ({"enabled": "yes"}, "must be a boolean"),
            ({"profile": 1}, "must be a boolean"),
            ({"trace_path": ""}, "non-empty string"),
            ({"metrics_path": 3}, "non-empty string"),
            ([], "must be a mapping"),
        ],
    )
    def test_validation_rejects(self, bad, match):
        with pytest.raises(ValueError, match=match):
            TelemetryConfig.from_dict(bad)


class TestInstallTelemetry:
    def test_enabled_config_installs_a_hub(self, engine):
        hub = install_telemetry(engine, TelemetryConfig())
        assert engine.telemetry is hub
        assert isinstance(hub, Telemetry) and hub.enabled
        assert hub.profiler is None

    def test_profile_flag_creates_the_profiler(self, engine):
        hub = install_telemetry(engine, TelemetryConfig(profile=True))
        assert hub.profiler is not None

    @pytest.mark.parametrize("config", [None, TelemetryConfig(enabled=False)])
    def test_disabled_leaves_the_null_hub(self, engine, config):
        hub = install_telemetry(engine, config)
        assert hub is NULL_TELEMETRY
        assert engine.telemetry is NULL_TELEMETRY
