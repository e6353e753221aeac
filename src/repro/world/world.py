"""The in-memory world: a collection of loaded chunks.

The :class:`VoxelWorld` holds the chunks that are currently resident in the
game server's memory.  Loading, generation and eviction policy live in the
chunk manager (:mod:`repro.server.chunkmanager`); this class only provides
block- and chunk-level access plus bookkeeping about which chunks exist.
"""

from __future__ import annotations

from typing import Iterator

from repro.world.block import BlockType
from repro.world.chunk import Chunk
from repro.world.coords import BlockPos, ChunkPos, block_to_chunk


class ChunkNotLoadedError(KeyError):
    """Raised when accessing a block whose chunk is not resident in memory."""


class VoxelWorld:
    """The set of chunks currently loaded in memory."""

    def __init__(self) -> None:
        self._chunks: dict[ChunkPos, Chunk] = {}

    # -- chunk management ---------------------------------------------------------

    def add_chunk(self, chunk: Chunk) -> None:
        self._chunks[chunk.position] = chunk

    def remove_chunk(self, position: ChunkPos) -> Chunk:
        if position not in self._chunks:
            raise ChunkNotLoadedError(f"chunk {position} is not loaded")
        return self._chunks.pop(position)

    def is_loaded(self, position: ChunkPos) -> bool:
        return position in self._chunks

    @property
    def loaded_chunk_positions(self) -> list[ChunkPos]:
        return sorted(self._chunks)

    @property
    def loaded_chunk_count(self) -> int:
        return len(self._chunks)

    def __iter__(self) -> Iterator[Chunk]:
        return iter(self._chunks.values())

    def __len__(self) -> int:
        return len(self._chunks)

    # -- block access -------------------------------------------------------------

    def get_block(self, pos: BlockPos) -> BlockType:
        chunk_pos = block_to_chunk(pos)
        if chunk_pos not in self._chunks:
            raise ChunkNotLoadedError(f"block {pos} belongs to unloaded chunk {chunk_pos}")
        return self._chunks[chunk_pos].get_block(pos)

    def set_block(self, pos: BlockPos, block_type: BlockType) -> None:
        chunk_pos = block_to_chunk(pos)
        if chunk_pos not in self._chunks:
            raise ChunkNotLoadedError(f"block {pos} belongs to unloaded chunk {chunk_pos}")
        self._chunks[chunk_pos].set_block(pos, block_type)

    def block_loaded(self, pos: BlockPos) -> bool:
        return block_to_chunk(pos) in self._chunks

    # -- aggregate queries ----------------------------------------------------------

    def dirty_chunks(self) -> list[Chunk]:
        """Chunks modified since they were loaded (candidates for persistence)."""
        return [chunk for chunk in self._chunks.values() if chunk.dirty]
