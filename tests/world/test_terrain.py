"""Tests for noise and terrain generation."""

import numpy as np
import pytest

from repro.world.block import BlockType
from repro.world.chunk import CHUNK_HEIGHT
from repro.world.coords import ChunkPos
from repro.world.noise import LayeredNoise, sample_fields
from repro.world.serialization import (
    ChunkFormatError,
    chunk_from_bytes,
    chunk_to_bytes,
)
from repro.world.terrain import (
    DefaultTerrainGenerator,
    FlatTerrainGenerator,
    make_terrain_generator,
)

#: two 50 x 50 grids, one at the origin and one far out on both axes
GRID_XS = np.stack([np.arange(50.0), np.arange(50.0) + 3e6])
GRID_ZS = np.stack([np.arange(50.0), np.arange(50.0) - 7e5])


def test_value_noise_is_deterministic_and_bounded():
    noise = LayeredNoise(seed=5, octaves=1, base_scale=16.0)
    (first,) = sample_fields([noise], GRID_XS, GRID_ZS)
    (second,) = sample_fields([noise], GRID_XS, GRID_ZS)
    assert first.shape == (2, 50, 50)
    assert np.array_equal(first, second)
    assert float(first.min()) >= 0.0
    assert float(first.max()) < 1.0


def test_layered_noise_changes_with_seed():
    a, b = sample_fields([LayeredNoise(seed=1), LayeredNoise(seed=2)], GRID_XS, GRID_ZS)
    assert not np.array_equal(a, b)


def test_layered_noise_rejects_zero_octaves():
    with pytest.raises(ValueError):
        LayeredNoise(seed=1, octaves=0).sample(1.0, 1.0)


def test_flat_generator_produces_plain_surface():
    chunk = FlatTerrainGenerator(seed=0).generate_chunk(ChunkPos(3, -2))
    assert chunk.get_block(chunk_pos_block(chunk, 0, 64, 0)) == BlockType.GRASS
    assert chunk.get_block(chunk_pos_block(chunk, 5, 0, 5)) == BlockType.BEDROCK
    assert chunk.get_block(chunk_pos_block(chunk, 5, 200, 5)) == BlockType.AIR


def chunk_pos_block(chunk, lx, y, lz):
    from repro.world.coords import chunk_origin

    origin = chunk_origin(chunk.position)
    return origin.offset(dx=lx, dy=y, dz=lz)


def test_default_generator_is_deterministic_per_seed():
    generator_a = DefaultTerrainGenerator(seed=42)
    generator_b = DefaultTerrainGenerator(seed=42)
    chunk_a = generator_a.generate_chunk(ChunkPos(2, 2))
    chunk_b = generator_b.generate_chunk(ChunkPos(2, 2))
    assert np.array_equal(chunk_a.blocks, chunk_b.blocks)


def test_default_generator_differs_across_seeds():
    chunk_a = DefaultTerrainGenerator(seed=1).generate_chunk(ChunkPos(0, 0))
    chunk_b = DefaultTerrainGenerator(seed=2).generate_chunk(ChunkPos(0, 0))
    assert not np.array_equal(chunk_a.blocks, chunk_b.blocks)


def test_default_generator_has_bedrock_floor_and_bounded_heights():
    chunk = DefaultTerrainGenerator(seed=7).generate_chunk(ChunkPos(5, 5))
    assert chunk.block_count(BlockType.BEDROCK) == 256
    for lx in range(0, 16, 5):
        for lz in range(0, 16, 5):
            origin_x = chunk.position.cx * 16 + lx
            origin_z = chunk.position.cz * 16 + lz
            assert 1 <= chunk.surface_height(origin_x, origin_z) < CHUNK_HEIGHT


def test_make_terrain_generator_dispatch():
    assert isinstance(make_terrain_generator("flat"), FlatTerrainGenerator)
    assert isinstance(make_terrain_generator("default"), DefaultTerrainGenerator)
    with pytest.raises(ValueError):
        make_terrain_generator("moon")


def test_generation_work_units_ordering():
    assert FlatTerrainGenerator(0).generation_work_units() < DefaultTerrainGenerator(0).generation_work_units()


def test_chunk_serialization_round_trip():
    chunk = DefaultTerrainGenerator(seed=9).generate_chunk(ChunkPos(-3, 4))
    data = chunk_to_bytes(chunk)
    restored = chunk_from_bytes(data)
    assert restored.position == chunk.position
    assert np.array_equal(restored.blocks, chunk.blocks)


def test_chunk_deserialization_rejects_garbage():
    with pytest.raises(ChunkFormatError):
        chunk_from_bytes(b"not a chunk")
    chunk = FlatTerrainGenerator(0).generate_chunk(ChunkPos(0, 0))
    data = chunk_to_bytes(chunk)
    with pytest.raises(ChunkFormatError):
        chunk_from_bytes(data[: len(data) // 2])
