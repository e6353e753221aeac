"""Tests for chunks and the in-memory world."""

import numpy as np
import pytest

from repro.world.block import BlockType
from repro.world.chunk import CHUNK_HEIGHT, Chunk
from repro.world.coords import BlockPos, ChunkPos
from repro.world.world import ChunkNotLoadedError, VoxelWorld


def test_chunk_get_set_block_round_trip():
    chunk = Chunk(position=ChunkPos(0, 0))
    pos = BlockPos(5, 70, 9)
    assert chunk.get_block(pos) == BlockType.AIR
    chunk.set_block(pos, BlockType.LAMP)
    assert chunk.get_block(pos) == BlockType.LAMP
    assert chunk.dirty is True


def test_chunk_rejects_out_of_bounds_access():
    chunk = Chunk(position=ChunkPos(0, 0))
    with pytest.raises(KeyError):
        chunk.get_block(BlockPos(16, 70, 0))
    with pytest.raises(KeyError):
        chunk.get_block(BlockPos(0, CHUNK_HEIGHT, 0))


def test_chunk_block_counts():
    chunk = Chunk(position=ChunkPos(0, 0))
    chunk.set_block(BlockPos(3, 10, 3), BlockType.STONE)
    chunk.set_block(BlockPos(3, 20, 3), BlockType.GRASS)
    assert np.count_nonzero(chunk.blocks == BlockType.STONE) == 1


def test_chunk_copy_is_independent():
    chunk = Chunk(position=ChunkPos(0, 0))
    clone = chunk.copy()
    clone.set_block(BlockPos(0, 1, 0), BlockType.STONE)
    assert chunk.get_block(BlockPos(0, 1, 0)) == BlockType.AIR


def test_chunk_validates_array_shape():
    with pytest.raises(ValueError):
        Chunk(position=ChunkPos(0, 0), blocks=np.zeros((2, 2, 2), dtype=np.uint8))


def test_world_add_get_remove_chunk():
    world = VoxelWorld()
    chunk = Chunk(position=ChunkPos(0, 0))
    world.add_chunk(chunk)
    assert world.is_loaded(ChunkPos(0, 0))
    assert list(world) == [chunk]
    assert world.loaded_chunk_count == 1
    removed = world.remove_chunk(ChunkPos(0, 0))
    assert removed is chunk
    assert not world.is_loaded(ChunkPos(0, 0))


def test_world_block_access_requires_loaded_chunk():
    world = VoxelWorld()
    with pytest.raises(ChunkNotLoadedError):
        world.get_block(BlockPos(0, 64, 0))
    with pytest.raises(ChunkNotLoadedError):
        world.set_block(BlockPos(0, 64, 0), BlockType.STONE)
    world.add_chunk(Chunk(position=ChunkPos(0, 0)))
    world.set_block(BlockPos(0, 64, 0), BlockType.STONE)
    assert world.get_block(BlockPos(0, 64, 0)) == BlockType.STONE


def test_world_dirty_chunks_and_missing_chunks():
    world = VoxelWorld()
    world.add_chunk(Chunk(position=ChunkPos(0, 0)))
    world.add_chunk(Chunk(position=ChunkPos(1, 0)))
    world.set_block(BlockPos(0, 64, 0), BlockType.STONE)
    assert [chunk.position for chunk in world.dirty_chunks()] == [ChunkPos(0, 0)]
    assert not world.is_loaded(ChunkPos(5, 5))
