"""Per-subsystem instrumentation hooks record the expected virtual-time spans."""

from __future__ import annotations

import pytest

from repro.core.terrain_service import (
    TERRAIN_GENERATION_FUNCTION,
    ServerlessTerrainProvider,
    TerrainHandler,
    TerrainRequest,
)
from repro.faas.function import FunctionDefinition
from repro.faas.platform import FaasPlatform
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.obs.telemetry import Telemetry, TelemetryConfig, install_telemetry
from repro.server.config import GameConfig
from repro.server.costmodel import TickWork
from repro.world.coords import ChunkPos

from telemetry_helpers import instants, spans


@pytest.fixture
def hub(engine) -> Telemetry:
    return install_telemetry(engine, TelemetryConfig())


def terrain_platform(engine) -> FaasPlatform:
    platform = FaasPlatform(engine)
    platform.register(
        FunctionDefinition(
            name=TERRAIN_GENERATION_FUNCTION,
            handler=TerrainHandler(),
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
        ticks = spans(hub, "tick")
        assert len(ticks) == 5
        assert [span.args["index"] for span in ticks] == list(range(5))
        assert all(span.track == server.name for span in ticks)
        assert [span.ts_ms for span in ticks] == [
            record.start_ms for record in server.tick_records
        ]
        assert [span.dur_ms for span in ticks] == [
            record.duration_ms for record in server.tick_records
        ]

    def test_an_overlong_tick_names_constructs_local_as_its_largest_cost(self, engine, hub):
        """Opencraft with 150 constructs blows the 50 ms budget on construct ticks.

        The constructs sit inside the preloaded area, so no chunk work
        competes, and each span's ``cost_ms`` blames the construct engine.
        """
        from repro.constructs.library import standard_construct
        from repro.experiments.harness import build_game_server
        from repro.world.coords import BlockPos

        server = build_game_server("opencraft", engine, GameConfig(world_type="flat"))
        server.chunks.preload_area(server.config.spawn_position, 200.0)
        for _ in range(10):
            server.connect_player()
        for index in range(150):
            origin = BlockPos(-40 + (index % 12) * 8, 64, -40 + (index // 12) * 6)
            server.place_construct(standard_construct(index, origin=origin))
        server.run_ticks(60)
        ticks = spans(hub, "tick")
        overlong = [span for span in ticks if span.dur_ms > 50.0]
        assert len(overlong) == 30  # every other tick simulates the constructs
        for span in overlong:
            cost = span.args["cost_ms"]
            assert max(cost, key=cost.get) == "constructs.local", span.args
        assert list(ticks[0].args["cost_ms"]) == list(
            server.cost_model.breakdown(TickWork())
        )


class TestRoundSpans:
    def test_bounding_shard_is_the_shard_with_the_longest_tick(self, engine, hub):
        from repro.experiments.harness import build_game_server

        cluster = build_game_server(
            "servo-cluster", engine, GameConfig(world_type="flat"), shards=4
        )
        for _ in range(40):
            cluster.connect_player()
        for _ in range(30):
            cluster.tick()
        ticks = spans(hub, "tick")
        bounding = []
        for round_span in spans(hub, "round"):
            shard_ticks = [span for span in ticks if span.ts_ms == round_span.ts_ms]
            assert len(shard_ticks) == 4
            slowest = max(shard_ticks, key=lambda span: span.dur_ms)
            assert round_span.args["bounding_shard"] == slowest.track
            assert round_span.dur_ms == slowest.dur_ms
            bounding.append(slowest.track)
        assert len(bounding) == 30
        assert len(set(bounding)) > 1


class TestFaasSpans:
    def test_invocation_span_matches_the_record(self, engine, hub):
        platform = terrain_platform(engine)
        invocation = platform.invoke(
            TERRAIN_GENERATION_FUNCTION,
            TerrainRequest(world_type="flat", seed=3, cx=0, cz=0),
        )
        (span,) = spans(hub, "faas")
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
        (span,) = spans(hub, "faas")
        assert span.args["status"] == "throttled"
        # ... and the injected fault shows as a fault-category instant.
        assert [e.name for e in instants(hub, "fault")] == ["faas.throttled"]


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
        (span,) = spans(hub, "terrain")
        assert span.args == {"cx": 1, "cz": 2, "status": "failure", "attempts": 2}
        assert span.dur_ms == delivered[0].latency_ms
        assert len(spans(hub, "faas")) == 2
        fallbacks = [e for e in instants(hub, "terrain") if e.name == "local-fallback"]
        assert len(fallbacks) == 1


class TestFaultFoldIn:
    def test_record_hits_timeline_and_telemetry(self, engine, hub):
        injector = FaultInjector(
            engine, FaultPlan.from_dict({"faas": {"failure_rate": 0.5}})
        )
        engine.advance_to(42.0)
        injector.record("shard.kill", "shard=1")
        assert injector.timeline.events[-1].kind == "shard.kill"
        (instant,) = instants(hub, "fault")
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
