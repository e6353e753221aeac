"""Voxel world substrate.

Provides the Minecraft-like world model the game server and Servo operate on:
block types, block/chunk coordinates, 16x16x256 chunks, the world container,
deterministic procedural terrain generation (default and flat world types) and
chunk serialization used by the storage layer.
"""

from repro.world.block import BlockType, is_stateful
from repro.world.chunk import CHUNK_HEIGHT, CHUNK_SIZE, Chunk
from repro.world.coords import BlockPos, ChunkPos, block_to_chunk, chunk_origin
from repro.world.noise import LayeredNoise
from repro.world.serialization import chunk_from_bytes, chunk_to_bytes
from repro.world.terrain import (
    DefaultTerrainGenerator,
    FlatTerrainGenerator,
    TerrainGenerator,
    make_terrain_generator,
)
from repro.world.world import VoxelWorld

__all__ = [
    "BlockType",
    "is_stateful",
    "Chunk",
    "CHUNK_SIZE",
    "CHUNK_HEIGHT",
    "BlockPos",
    "ChunkPos",
    "block_to_chunk",
    "chunk_origin",
    "LayeredNoise",
    "TerrainGenerator",
    "DefaultTerrainGenerator",
    "FlatTerrainGenerator",
    "make_terrain_generator",
    "VoxelWorld",
    "chunk_to_bytes",
    "chunk_from_bytes",
]
