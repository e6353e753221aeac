"""Per-subsystem instrumentation hooks record the expected virtual-time spans."""

from __future__ import annotations

import pytest

from repro.core.terrain_service import (
    TERRAIN_GENERATION_FUNCTION,
    ServerlessTerrainProvider,
    TerrainRequest,
    make_terrain_handler,
)
from repro.faas.function import FunctionDefinition
from repro.faas.platform import FaasPlatform
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.obs.telemetry import Telemetry, TelemetryConfig, install_telemetry
from repro.server.config import GameConfig
from repro.world.coords import ChunkPos


@pytest.fixture
def hub(engine) -> Telemetry:
    return install_telemetry(engine, TelemetryConfig())


def terrain_platform(engine) -> FaasPlatform:
    platform = FaasPlatform(engine)
    platform.register(
        FunctionDefinition(
            name=TERRAIN_GENERATION_FUNCTION,
            handler=make_terrain_handler(),
            memory_mb=1024,
        )
    )
    return platform


class TestTickSpans:
    def test_every_tick_records_one_span(self, engine, hub):
        from repro.experiments.harness import build_game_server

        server = build_game_server("opencraft", engine, GameConfig(world_type="flat"))
        server.connect_player()
        server.run_ticks(5)
        spans = hub.spans("tick")
        assert len(spans) == 5
        assert [span.args["index"] for span in spans] == list(range(5))
        assert all(span.track == server.name for span in spans)
        assert [span.ts_ms for span in spans] == [
            record.start_ms for record in server.tick_records
        ]
        assert [span.dur_ms for span in spans] == [
            record.duration_ms for record in server.tick_records
        ]


class TestFaasSpans:
    def test_invocation_span_matches_the_record(self, engine, hub):
        platform = terrain_platform(engine)
        invocation = platform.invoke(
            TERRAIN_GENERATION_FUNCTION,
            TerrainRequest(world_type="flat", seed=3, cx=0, cz=0),
        )
        (span,) = hub.spans("faas")
        assert span.name == TERRAIN_GENERATION_FUNCTION
        assert span.ts_ms == invocation.submitted_ms
        assert span.dur_ms == invocation.latency_ms
        assert span.args["status"] == "ok"
        assert span.args["request_id"] == invocation.request_id

    def test_throttled_attempt_also_traced(self, engine, hub):
        platform = terrain_platform(engine)
        platform.fault_injector = FaultInjector(
            engine, FaultPlan.from_dict({"faas": {"throttle_rate": 1.0}})
        )
        platform.invoke(
            TERRAIN_GENERATION_FUNCTION,
            TerrainRequest(world_type="flat", seed=3, cx=0, cz=0),
        )
        (span,) = hub.spans("faas")
        assert span.args["status"] == "throttled"
        # ... and the injected fault shows as a fault-category instant.
        assert [e.name for e in hub.instants("fault")] == ["faas.throttled"]


class TestTerrainSpans:
    def test_request_reply_span_and_fallback_instant(self, engine, hub):
        platform = terrain_platform(engine)
        platform.fault_injector = FaultInjector(
            engine,
            FaultPlan.from_dict({"faas": {"failure_rate": 1.0, "retry": {"max_attempts": 2}}}),
        )
        provider = ServerlessTerrainProvider(engine, platform, world_type="flat", seed=3)
        delivered = []
        provider.request(ChunkPos(1, 2), lambda chunk, result: delivered.append(result))
        engine.advance_to(engine.now_ms + 60_000.0)  # every attempt has replied
        assert len(delivered) == 1
        assert delivered[0].source == "local-fallback"
        # One span per request, covering every attempt; one faas span each.
        (span,) = hub.spans("terrain")
        assert span.args == {"cx": 1, "cz": 2, "status": "failure", "attempts": 2}
        assert span.dur_ms == delivered[0].latency_ms
        assert len(hub.spans("faas")) == 2
        fallbacks = [e for e in hub.instants("terrain") if e.name == "local-fallback"]
        assert len(fallbacks) == 1


class TestFaultFoldIn:
    def test_record_hits_timeline_and_telemetry(self, engine, hub):
        injector = FaultInjector(
            engine, FaultPlan.from_dict({"faas": {"failure_rate": 0.5}})
        )
        engine.advance_to(42.0)
        injector.record("shard.kill", "shard=1")
        assert injector.timeline.events[-1].kind == "shard.kill"
        (instant,) = hub.instants("fault")
        assert instant.name == "shard.kill"
        assert instant.ts_ms == 42.0
        assert instant.args == {"detail": "shard=1"}
        assert instant.track == "faults"

    def test_timeline_digest_unchanged_by_telemetry(self):
        from repro.sim import SimulationEngine

        def digest(with_telemetry: bool) -> str:
            engine = SimulationEngine(seed=5)
            if with_telemetry:
                install_telemetry(engine, TelemetryConfig())
            injector = FaultInjector(
                engine, FaultPlan.from_dict({"faas": {"failure_rate": 1.0}})
            )
            for _ in range(10):
                injector.faas_outcome("fn")
            return injector.timeline.digest()

        assert digest(True) == digest(False)
