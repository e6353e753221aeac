"""Procedural terrain generation (PCG).

Two world types from the paper's experimental setup (Section IV-A):

* ``default`` — procedurally generated terrain with mountains, water and
  different surface materials, built from layered value noise.
* ``flat`` — an infinite plain, used for simulated-construct experiments.

Generation is deterministic in (seed, chunk position), so a chunk generated
inside a serverless function is bit-identical to one generated locally — the
property Servo relies on when it offloads generation.  It is also independent
of batching: :meth:`TerrainGenerator.generate_chunks` may stack many chunks
into one array program, and each chunk comes out as if generated alone.

Every chunk comes out in the sections of :mod:`repro.world.chunk`.  The flat
generator hands every chunk its template's sections, shared.  The default
generator gathers whole ``[x, z, y]`` columns from a strata table, reads which
sections hold one block from the surface heights alone, and gives each chunk
its own copy of just its other sections.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.world.block import BlockType
from repro.world.chunk import (
    CHUNK_HEIGHT,
    SECTION_HEIGHT,
    SECTION_SHAPE,
    SECTIONS,
    Chunk,
    Section,
)
from repro.world.coords import CHUNK_SIZE, ChunkPos
from repro.world.noise import LayeredNoise, sample_fields

SEA_LEVEL = 62
FLAT_SURFACE_LEVEL = 64


class TerrainGenerator:
    """Interface for terrain generators."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)

    def generate_chunk(self, position: ChunkPos) -> Chunk:
        raise NotImplementedError

    def generate_chunks(self, positions: Sequence[ChunkPos]) -> list[Chunk]:
        """``[generate_chunk(p) for p in positions]``; generators that stack override it."""
        return [self.generate_chunk(position) for position in positions]

    def generation_work_units(self) -> float:
        """Relative computational weight of generating one chunk.

        Used by the FaaS resource model and the local tick cost model to turn
        chunk generation into virtual milliseconds.  The flat world is much
        cheaper to produce than the default world.
        """
        raise NotImplementedError


class FlatTerrainGenerator(TerrainGenerator):
    """An infinite plain: bedrock, stone, dirt and a grass surface."""

    def __init__(self, seed: int = 0) -> None:
        super().__init__(seed)
        self._template: list[Section] | None = None

    def generate_chunk(self, position: ChunkPos) -> Chunk:
        # Every flat chunk has identical contents, so every chunk shares the
        # template's sections and copies one only when it is written.
        if self._template is None:
            self._template = _flat_sections()
        return Chunk(
            position=position,
            generated_by=f"flat:{self.seed}",
            dirty=False,
            sections=self._template[:],
        )

    def generation_work_units(self) -> float:
        return 0.1


def _flat_sections() -> list[Section]:
    """The flat world's sections: its one column, broadcast read-only over each section."""
    column = np.full(CHUNK_HEIGHT, int(BlockType.AIR), dtype=np.uint8)
    column[0] = int(BlockType.BEDROCK)
    column[1:FLAT_SURFACE_LEVEL - 3] = int(BlockType.STONE)
    column[FLAT_SURFACE_LEVEL - 3:FLAT_SURFACE_LEVEL] = int(BlockType.DIRT)
    column[FLAT_SURFACE_LEVEL] = int(BlockType.GRASS)
    return [
        int(piece[0]) if (piece == piece[0]).all() else np.broadcast_to(piece, SECTION_SHAPE)
        for piece in column.reshape(SECTIONS, SECTION_HEIGHT)
    ]


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


def _section_blocks() -> np.ndarray:
    """``[height, s]``: the block filling section ``s`` of the column of that surface height.

    ``-1`` marks a section of more than one block type; the section the
    surface block is written into is always one.  For every section, the
    heights that fill it with one block type form one contiguous range per
    type (the column is the same above its surface, and stone far below), so
    a chunk's section holds one block exactly when its lowest and highest
    columns fill it with the same block.
    """
    pieces = _STRATA_COLUMNS.reshape(CHUNK_HEIGHT, SECTIONS, SECTION_HEIGHT)
    first = pieces[:, :, 0]
    one_block = (pieces == first[:, :, None]).all(axis=2)
    heights = np.arange(CHUNK_HEIGHT)
    one_block[heights, heights // SECTION_HEIGHT] = False
    return np.where(one_block, first, np.int16(-1))


_STRATA_COLUMNS = _strata_columns()
_SECTION_BLOCKS = _section_blocks()
#: chunks per pass of the stacked kernel: bounds a pass's arrays (peak memory)
#: and keeps them in cache
CHUNKS_PER_PASS = 16
_COLUMN_OFFSETS = np.arange(CHUNK_SIZE)
#: flat index of the bottom of every column of a pass: ``[chunk, x, z]``
_COLUMN_STARTS = np.arange(CHUNKS_PER_PASS * CHUNK_SIZE * CHUNK_SIZE).reshape(
    CHUNKS_PER_PASS, CHUNK_SIZE, CHUNK_SIZE) * CHUNK_HEIGHT


class DefaultTerrainGenerator(TerrainGenerator):
    """Noise-based terrain with mountains, beaches, water and snow caps."""

    def __init__(self, seed: int = 0) -> None:
        super().__init__(seed)
        #: base height, roughness (plains vs mountains) and moisture
        self._fields = (
            LayeredNoise(seed=self.seed, octaves=5, base_scale=96.0),
            LayeredNoise(seed=self.seed + 7919, octaves=3, base_scale=256.0),
            LayeredNoise(seed=self.seed + 104729, octaves=3, base_scale=160.0),
        )

    def generate_chunk(self, position: ChunkPos) -> Chunk:
        return self.generate_chunks([position])[0]

    def generate_chunks(self, positions: Sequence[ChunkPos]) -> list[Chunk]:
        """Generate ``positions`` stacked, up to :data:`CHUNKS_PER_PASS` per kernel pass."""
        chunks: list[Chunk] = []
        for start in range(0, len(positions), CHUNKS_PER_PASS):
            chunks.extend(self._generate_pass(positions[start:start + CHUNKS_PER_PASS]))
        return chunks

    def _generate_pass(self, positions: Sequence[ChunkPos]) -> list[Chunk]:
        count = len(positions)
        origins = np.array([(p.cx, p.cz) for p in positions], dtype=np.int64) * CHUNK_SIZE
        xs = origins[:, :1] + _COLUMN_OFFSETS
        zs = origins[:, 1:] + _COLUMN_OFFSETS
        base, roughness, moisture = sample_fields(self._fields, xs, zs)  # [chunk, x, z]
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
        columns = _STRATA_COLUMNS[heights]  # [chunk, x, z, y]
        columns.put(_COLUMN_STARTS[:count] + heights, surface)
        one_block = _SECTION_BLOCKS[heights.min(axis=(1, 2))]  # [chunk, s]
        one_block[one_block != _SECTION_BLOCKS[heights.max(axis=(1, 2))]] = -1
        mixed = one_block < 0
        # [chunk, s, x, z, y - 16 s]; a boolean index copies a chunk's mixed
        # sections out into one array that chunk owns.
        sections = columns.reshape(
            count, CHUNK_SIZE, CHUNK_SIZE, SECTIONS, SECTION_HEIGHT).transpose(0, 3, 1, 2, 4)
        generated_by = f"default:{self.seed}"
        return [
            Chunk(position=position, generated_by=generated_by, dirty=False,
                  sections=table, stack=sections[index][mixed[index]])
            for index, (position, table) in enumerate(zip(positions, one_block.tolist()))
        ]

    def generation_work_units(self) -> float:
        return 1.0


def make_terrain_generator(world_type: str, seed: int = 0) -> TerrainGenerator:
    """Create a terrain generator by name ("default" or "flat")."""
    if world_type == "default":
        return DefaultTerrainGenerator(seed=seed)
    if world_type == "flat":
        return FlatTerrainGenerator(seed=seed)
    raise ValueError(f"unknown world type {world_type!r} (expected 'default' or 'flat')")
