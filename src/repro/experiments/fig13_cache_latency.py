"""Figure 13: terrain retrieval latency for local, serverless and cached storage.

The experiment replays a terrain access trace (eight players walking away from
spawn) against three storage configurations: the game server's local disk,
raw serverless blob storage, and blob storage behind Servo's cache with
distance-based prefetching.  It reports the inverse CDF of the retrieval
latency observed by the game loop, whose 99.9th percentile must stay below one
simulation step (50 ms) for good QoS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.experiments.harness import ExperimentSettings, format_table
from repro.sim import SimulationEngine
from repro.sim.metrics import percentile
from repro.storage.base import StorageBackend
from repro.storage.blob import AZURE_BLOB_STANDARD, BlobStorage
from repro.storage.cache import CachedStorage
from repro.storage.local import LocalDiskStorage
from repro.storage.prefetch import (
    PREFETCH_MARGIN_BLOCKS,
    DistancePrefetcher,
    DistancePrefetchPolicy,
)
from repro.world.chunk import Chunk
from repro.world.coords import BlockPos, ChunkPos, block_to_chunk
from repro.world.serialization import chunk_to_bytes
from repro.world.terrain import make_terrain_generator

CONFIGURATIONS = ("local", "serverless", "serverless+cache")


@dataclass
class TerrainAccessTrace:
    """The chunk keys each player requests as they move, tick by tick."""

    #: per step: (player positions, newly required chunk positions)
    steps: list[tuple[list[BlockPos], list[ChunkPos]]] = field(default_factory=list)
    all_chunks: set[ChunkPos] = field(default_factory=set)


def build_access_trace(
    players: int = 8,
    speed_blocks_per_s: float = 3.0,
    duration_s: float = 120.0,
    view_distance_blocks: float = 128.0,
) -> TerrainAccessTrace:
    """Synthesise the Figure 13 access pattern: star-walking players loading terrain."""
    trace = TerrainAccessTrace()
    view_radius_chunks = int(math.ceil(view_distance_blocks / 16))
    seen: set[ChunkPos] = set()
    step_s = 1.0
    for step in range(int(duration_s / step_s)):
        positions = []
        new_chunks: list[ChunkPos] = []
        for player in range(players):
            angle = 2.0 * math.pi * player / players
            distance = speed_blocks_per_s * step * step_s
            position = BlockPos(int(distance * math.cos(angle)), 65, int(distance * math.sin(angle)))
            positions.append(position)
            center = block_to_chunk(position)
            for dx in range(-view_radius_chunks, view_radius_chunks + 1):
                for dz in range(-view_radius_chunks, view_radius_chunks + 1):
                    if math.hypot(dx, dz) > view_radius_chunks + 0.5:
                        continue
                    chunk_pos = ChunkPos(center.cx + dx, center.cz + dz)
                    if chunk_pos not in seen:
                        seen.add(chunk_pos)
                        new_chunks.append(chunk_pos)
        trace.steps.append((positions, new_chunks))
    trace.all_chunks = seen
    return trace


def _populate(storage: StorageBackend, chunks: set[ChunkPos]) -> None:
    """Persist every chunk of the trace so reads never miss the store.

    A small flat-world chunk payload keeps the experiment fast; the latency
    models do not depend on the exact contents.
    """
    generator = make_terrain_generator("flat", seed=3)
    template: Chunk = generator.generate_chunk(ChunkPos(0, 0))
    payload = chunk_to_bytes(template)
    for position in sorted(chunks):
        storage.write(position.key(), payload)


@dataclass
class Fig13Result:
    """Terrain retrieval latencies per storage configuration."""

    latencies_ms: dict[str, list[float]] = field(default_factory=dict)

    def percentile(self, configuration: str, q: float) -> float:
        return percentile(self.latencies_ms[configuration], q)


def run_fig13(
    settings: ExperimentSettings | None = None,
    players: int = 8,
    duration_s: float | None = None,
) -> Fig13Result:
    """Reproduce Figure 13."""
    settings = settings or ExperimentSettings()
    if duration_s is None:
        duration_s = max(60.0, settings.duration_s * 4)
    trace = build_access_trace(players=players, duration_s=duration_s)
    result = Fig13Result()

    for configuration in CONFIGURATIONS:
        engine = SimulationEngine(seed=settings.seed)
        if configuration == "local":
            storage: StorageBackend = LocalDiskStorage(rng=engine.rng("local-disk"))
            reader: StorageBackend = storage
            prefetcher = None
        elif configuration == "serverless":
            storage = BlobStorage(rng=engine.rng("blob"), profile=AZURE_BLOB_STANDARD)
            reader = storage
            prefetcher = None
        else:
            blob = BlobStorage(rng=engine.rng("blob"), profile=AZURE_BLOB_STANDARD)
            storage = blob
            reader = CachedStorage(remote=blob, rng=engine.rng("cache"), capacity_objects=8192)
            prefetcher = DistancePrefetcher(
                DistancePrefetchPolicy(prefetch_margin_blocks=PREFETCH_MARGIN_BLOCKS), reader, blob
            )

        _populate(storage, trace.all_chunks)
        latencies: list[float] = []
        for positions, new_chunks in trace.steps:
            if prefetcher is not None:
                prefetcher.prefetch(positions)
            for chunk_pos in new_chunks:
                operation = reader.read(chunk_pos.key())
                latencies.append(operation.latency_ms)
        result.latencies_ms[configuration] = latencies
    return result


def format_fig13(result: Fig13Result) -> str:
    rows = []
    for configuration in CONFIGURATIONS:
        rows.append(
            [
                configuration,
                f"{result.percentile(configuration, 99):.1f}",
                f"{result.percentile(configuration, 99.9):.1f}",
                f"{max(result.latencies_ms[configuration]):.1f}",
                str(len(result.latencies_ms[configuration])),
            ]
        )
    return format_table(["configuration", "p99 ms", "p99.9 ms", "max ms", "samples"], rows)
