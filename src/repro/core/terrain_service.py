"""Serverless terrain generation (Section III-D).

Servo moves procedural content generation off the game server: every chunk
that needs generating becomes one FaaS invocation, and all invocations run
concurrently, so generation throughput scales with demand instead of being
capped by the server's local worker threads.  The payload carries only the
world seed, the world type and the chunk coordinates; generation is
deterministic, so the produced chunk is identical to a locally generated one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.faas.function import FunctionOutput
from repro.faas.platform import FaasPlatform
from repro.server.chunkmanager import GenerationResult, TerrainProvider
from repro.sim.engine import SimulationEngine
from repro.world.chunk import Chunk
from repro.world.coords import ChunkPos
from repro.world.terrain import TerrainGenerator, make_terrain_generator

#: name under which the terrain-generation function is deployed
TERRAIN_GENERATION_FUNCTION = "servo-generate-terrain"

# Calibration: generating one default-world chunk is ~1.15 s of single-vCPU
# work inside the function (Figure 11: ~3.5 s mean at 320 MB, under 1 s at
# 10240 MB).  The flat world is an order of magnitude cheaper.
_CHUNK_WORK_MS_SINGLE_VCPU = 1150.0


def terrain_generation_work_ms(generator: TerrainGenerator) -> float:
    """Single-vCPU work (ms) of generating one chunk with ``generator``."""
    return _CHUNK_WORK_MS_SINGLE_VCPU * generator.generation_work_units()


@dataclass(frozen=True)
class TerrainRequest:
    """Payload of one terrain-generation invocation."""

    world_type: str
    seed: int
    cx: int
    cz: int


def make_terrain_handler() -> Callable[[TerrainRequest], FunctionOutput]:
    """Create the FaaS handler that generates terrain chunks.

    Generators are cached per (world type, seed) inside the handler, mirroring
    a warm function container reusing its initialised generator.
    """
    generators: dict[tuple[str, int], TerrainGenerator] = {}

    def handler(payload: TerrainRequest) -> FunctionOutput:
        if not isinstance(payload, TerrainRequest):
            raise TypeError(f"expected TerrainRequest, got {type(payload)!r}")
        key = (payload.world_type, payload.seed)
        if key not in generators:
            generators[key] = make_terrain_generator(payload.world_type, seed=payload.seed)
        generator = generators[key]
        work_ms = terrain_generation_work_ms(generator)
        position = ChunkPos(payload.cx, payload.cz)
        return FunctionOutput(
            value=generator.generate_chunk(position), work_ms_single_vcpu=work_ms
        )

    return handler


class ServerlessTerrainProvider(TerrainProvider):
    """Terrain provider that generates every chunk in its own FaaS invocation."""

    name = "serverless"

    def __init__(
        self,
        engine: SimulationEngine,
        platform: FaasPlatform,
        world_type: str,
        seed: int,
        function_name: str = TERRAIN_GENERATION_FUNCTION,
    ) -> None:
        self.engine = engine
        self.platform = platform
        self.world_type = world_type
        self.seed = int(seed)
        self.function_name = function_name
        self._pending = 0
        self._local_generator: Optional[TerrainGenerator] = None

    def _generate_locally(self, position: ChunkPos) -> Chunk:
        """Last-resort local generation: pure, so the chunk is identical."""
        if self._local_generator is None:
            self._local_generator = make_terrain_generator(self.world_type, seed=self.seed)
        return self._local_generator.generate_chunk(position)

    def request(
        self, position: ChunkPos, callback: Callable[[Chunk, GenerationResult], None]
    ) -> None:
        """Generate ``position`` in one FaaS call; ``callback`` fires on its reply.

        The platform retries a failed call under the fault plan's retry
        policy; the reply lands when the last attempt completes.
        """
        payload = TerrainRequest(
            world_type=self.world_type, seed=self.seed, cx=position.cx, cz=position.cz
        )
        self._pending += 1
        invocation = self.platform.invoke_with_retry(self.function_name, payload)

        def on_reply() -> None:
            self._pending -= 1
            chunk = invocation.result
            telemetry = self.engine.telemetry
            if telemetry.enabled:
                telemetry.span(
                    "terrain",
                    f"chunk:{position.cx},{position.cz}",
                    start_ms=invocation.submitted_ms,
                    duration_ms=invocation.latency_ms,
                    track="terrain",
                    args={
                        "cx": position.cx,
                        "cz": position.cz,
                        "status": invocation.status,
                        "attempts": invocation.attempts,
                    },
                )
            fallback = invocation.status != "ok" or not isinstance(chunk, Chunk)
            if fallback:
                # Every attempt failed (or timed out, or was throttled): fall
                # back to local generation — terrain must eventually arrive,
                # but never by retrying forever.
                self.engine.metrics.increment("terrain_local_fallbacks")
                if telemetry.enabled:
                    telemetry.instant(
                        "terrain",
                        "local-fallback",
                        track="terrain",
                        args={"cx": position.cx, "cz": position.cz},
                    )
                chunk = self._generate_locally(position)
            callback(
                chunk,
                GenerationResult(
                    position=position,
                    latency_ms=invocation.latency_ms,
                    source="local-fallback" if fallback else "faas-generation",
                    consumed_local_cpu=fallback,
                ),
            )

        self.engine.schedule_at(
            invocation.completed_ms,
            on_reply,
            name=f"faas-reply:{self.function_name}:{invocation.request_id}",
        )

    def pending_count(self) -> int:
        return self._pending
