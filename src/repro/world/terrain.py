"""Procedural terrain generation (PCG).

Two world types from the paper's experimental setup (Section IV-A):

* ``default`` — procedurally generated terrain with mountains, water and
  different surface materials, built from layered value noise.
* ``flat`` — an infinite plain, used for simulated-construct experiments.

Generation is deterministic in (seed, chunk position), so a chunk generated
inside a serverless function is bit-identical to one generated locally — the
property Servo relies on when it offloads generation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.world.block import BlockType
from repro.world.chunk import CHUNK_HEIGHT, Chunk
from repro.world.coords import CHUNK_SIZE, ChunkPos, chunk_origin
from repro.world.noise import LayeredNoise, sample_fields

SEA_LEVEL = 62
FLAT_SURFACE_LEVEL = 64


class TerrainGenerator:
    """Interface for terrain generators."""

    #: name used in scenario configuration ("default" or "flat")
    world_type: str = "abstract"

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)

    def generate_chunk(self, position: ChunkPos) -> Chunk:
        raise NotImplementedError

    def generation_work_units(self) -> float:
        """Relative computational weight of generating one chunk.

        Used by the FaaS resource model and the local tick cost model to turn
        chunk generation into virtual milliseconds.  The flat world is much
        cheaper to produce than the default world.
        """
        raise NotImplementedError


class FlatTerrainGenerator(TerrainGenerator):
    """An infinite plain: bedrock, stone, dirt and a grass surface."""

    world_type = "flat"

    def __init__(self, seed: int = 0) -> None:
        super().__init__(seed)
        self._template: np.ndarray | None = None

    def generate_chunk(self, position: ChunkPos) -> Chunk:
        # Every flat chunk has identical contents, so the column layout is
        # built once and copied — far cheaper than refilling the strata.
        if self._template is None:
            template = np.zeros_like(Chunk(position=position).blocks)
            template[:, 0, :] = int(BlockType.BEDROCK)
            template[:, 1:FLAT_SURFACE_LEVEL - 3, :] = int(BlockType.STONE)
            template[:, FLAT_SURFACE_LEVEL - 3:FLAT_SURFACE_LEVEL, :] = int(BlockType.DIRT)
            template[:, FLAT_SURFACE_LEVEL, :] = int(BlockType.GRASS)
            self._template = template
        return Chunk(
            position=position,
            blocks=self._template.copy(),
            generated_by=f"flat:{self.seed}",
            dirty=False,
        )

    def generation_work_units(self) -> float:
        return 0.1


def _strata_columns() -> np.ndarray:
    """The column under and over every possible surface height: ``[height, y]``.

    Bedrock floor, stone, three blocks of dirt, then water up to sea level
    over low terrain; the surface block itself depends on moisture too and is
    left for the generator to write.
    """
    y = np.arange(CHUNK_HEIGHT, dtype=np.int16)
    height = y.reshape(CHUNK_HEIGHT, 1)
    blocks = [BlockType.DIRT, BlockType.STONE, BlockType.BEDROCK, BlockType.WATER]
    return np.select(
        [(y >= height - 3) & (y < height), (y >= 1) & (y < height - 3), y == 0,
         (y > height) & (y <= SEA_LEVEL)],
        [np.uint8(block) for block in blocks],
        default=np.uint8(BlockType.AIR),
    )


_STRATA_COLUMNS = _strata_columns()
_COLUMN_X, _COLUMN_Z = np.indices((CHUNK_SIZE, CHUNK_SIZE))


class DefaultTerrainGenerator(TerrainGenerator):
    """Noise-based terrain with mountains, beaches, water and snow caps."""

    world_type = "default"

    def __init__(self, seed: int = 0) -> None:
        super().__init__(seed)
        #: base height, roughness (plains vs mountains) and moisture
        self._fields = (
            LayeredNoise(seed=self.seed, octaves=5, base_scale=96.0),
            LayeredNoise(seed=self.seed + 7919, octaves=3, base_scale=256.0),
            LayeredNoise(seed=self.seed + 104729, octaves=3, base_scale=160.0),
        )

    def generate_chunk(self, position: ChunkPos) -> Chunk:
        origin = chunk_origin(position)
        xs = np.arange(origin.x, origin.x + CHUNK_SIZE).reshape(CHUNK_SIZE, 1)
        zs = np.arange(origin.z, origin.z + CHUNK_SIZE).reshape(1, CHUNK_SIZE)
        base, roughness, moisture = sample_fields(self._fields, xs, zs)
        # Roughness modulates the terrain amplitude: plains vs mountains.
        height = SEA_LEVEL - 10.0 + (20.0 + 70.0 * roughness) * base
        heights = np.clip(np.round(height), 1, CHUNK_HEIGHT - 2).astype(np.intp)

        # Surface material depends on altitude and moisture.
        surface = np.where(
            heights <= SEA_LEVEL,
            np.where(moisture < 0.6, int(BlockType.SAND), int(BlockType.GRAVEL)),
            np.where(
                heights >= SEA_LEVEL + 55,
                int(BlockType.SNOW),
                np.where(moisture < 0.25, int(BlockType.SAND), int(BlockType.GRASS)),
            ),
        )
        columns = _STRATA_COLUMNS[heights]  # [x, z, y]
        columns[_COLUMN_X, _COLUMN_Z, heights] = surface
        return Chunk(
            position=position,
            blocks=np.ascontiguousarray(columns.transpose(0, 2, 1)),
            generated_by=f"default:{self.seed}",
            dirty=False,
        )

    def generation_work_units(self) -> float:
        return 1.0


def make_terrain_generator(world_type: str, seed: int = 0) -> TerrainGenerator:
    """Create a terrain generator by name ("default" or "flat")."""
    if world_type == "default":
        return DefaultTerrainGenerator(seed=seed)
    if world_type == "flat":
        return FlatTerrainGenerator(seed=seed)
    raise ValueError(f"unknown world type {world_type!r} (expected 'default' or 'flat')")
