"""Serverless terrain generation (Section III-D).

Servo moves procedural content generation off the game server: every chunk
that needs generating becomes one FaaS invocation, and all invocations run
concurrently, so generation throughput scales with demand instead of being
capped by the server's local worker threads.  The payload carries only the
world seed, the world type and the chunk coordinates; generation is
deterministic, so the produced chunk is identical to a locally generated one.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

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


class TerrainHandler:
    """The FaaS handler that generates terrain chunks.

    Generators are cached per (world type, seed) inside the handler, mirroring
    a warm function container reusing its initialised generator.  A caller
    about to invoke the function once per chunk may first :meth:`prepare` the
    whole batch: it is generated in one stacked call per (world type, seed),
    and each invocation then takes its own chunk instead of generating it.
    The chunk bytes and the reported work are the same either way.
    """

    def __init__(self) -> None:
        self._generators: dict[tuple[str, int], TerrainGenerator] = {}
        self._prepared: dict[TerrainRequest, Chunk] = {}

    def _generator(self, world_type: str, seed: int) -> TerrainGenerator:
        key = (world_type, seed)
        if key not in self._generators:
            self._generators[key] = make_terrain_generator(world_type, seed=seed)
        return self._generators[key]

    def prepare(self, requests: Sequence[TerrainRequest]) -> None:
        """Generate the chunks ``requests`` will ask for, stacked."""
        batches: dict[tuple[str, int], list[TerrainRequest]] = {}
        for request in requests:
            batches.setdefault((request.world_type, request.seed), []).append(request)
        for (world_type, seed), batch in batches.items():
            chunks = self._generator(world_type, seed).generate_chunks(
                [ChunkPos(request.cx, request.cz) for request in batch]
            )
            self._prepared.update(zip(batch, chunks))

    def discard_prepared(self) -> None:
        """Drop prepared chunks no invocation took (a throttled request, say)."""
        self._prepared.clear()

    def prepared_count(self) -> int:
        return len(self._prepared)

    def __call__(self, payload: TerrainRequest) -> FunctionOutput:
        if not isinstance(payload, TerrainRequest):
            raise TypeError(f"expected TerrainRequest, got {type(payload)!r}")
        generator = self._generator(payload.world_type, payload.seed)
        chunk = self._prepared.pop(payload, None)
        if chunk is None:
            chunk = generator.generate_chunk(ChunkPos(payload.cx, payload.cz))
        work_ms = terrain_generation_work_ms(generator)
        return FunctionOutput(value=chunk, work_ms_single_vcpu=work_ms)


def make_terrain_handler() -> TerrainHandler:
    """Create the FaaS handler that generates terrain chunks."""
    return TerrainHandler()


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

    @contextmanager
    def prepare(self, positions: Sequence[ChunkPos]) -> Iterator[None]:
        """Generate ``positions`` in one stacked call for the requests made inside.

        The deployed handler serves each following invocation for one of
        ``positions`` from the batch; every request is still its own FaaS
        call, billed and timed as before.  Prepared chunks no invocation took
        are dropped on exit, so nothing carries across ticks.
        """
        handler = self.platform.require(self.function_name).handler
        handler.prepare([
            TerrainRequest(world_type=self.world_type, seed=self.seed, cx=p.cx, cz=p.cz)
            for p in positions
        ])
        try:
            yield
        finally:
            handler.discard_prepared()

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
