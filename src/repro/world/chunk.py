"""Chunks: 16x16x256 columns of blocks.

Chunks are the unit of terrain generation, loading, caching and storage, just
as in the paper (a "chunk" there is an area of 16x16x256 blocks, Figure 11).
Block data is a dense ``uint8`` numpy array so chunks are cheap to copy,
serialize and hash.

The layout rule: ``Chunk.blocks`` is indexed ``[x, y, z]``, but its memory
is column-major, ``[x, z, y]``, with strides ``(CHUNK_SIZE * CHUNK_HEIGHT, 1,
CHUNK_HEIGHT)``: the 256 blocks of one column are adjacent.  That is the
order terrain generation writes a column in, so a generated chunk takes its
memory with one in-order copy instead of a transpose.  Every producer gives
its chunk owned memory in this layout: it copies a column-major array with
``copy(order="K")`` (a bare ``copy()`` is C order, a transpose) and anything
else with :func:`column_major`.  Readers index logically and never see the
difference; ``tobytes()`` is C order, so hashes and stored bytes are those
of the logical ``[x, y, z]`` array.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from repro.world.block import BlockType
from repro.world.coords import CHUNK_SIZE, BlockPos, ChunkPos, chunk_origin

CHUNK_HEIGHT = 256
#: a column-major array whose layout ``empty_like``/``zeros_like`` copy
_LAYOUT = np.empty((CHUNK_SIZE, CHUNK_SIZE, CHUNK_HEIGHT), dtype=np.uint8).transpose(0, 2, 1)


def column_major(blocks: np.ndarray) -> np.ndarray:
    """An owned ``uint8`` copy of the logical ``[x, y, z]`` array ``blocks``, column-major."""
    out = np.empty_like(_LAYOUT)
    out[...] = blocks
    return out


@dataclass
class Chunk:
    """One 16x16x256 column of blocks."""

    position: ChunkPos
    blocks: np.ndarray = field(default_factory=lambda: np.zeros_like(_LAYOUT))
    generated_by: str = "unknown"
    dirty: bool = False

    def __post_init__(self) -> None:
        expected = (CHUNK_SIZE, CHUNK_HEIGHT, CHUNK_SIZE)
        if self.blocks.shape != expected:
            raise ValueError(
                f"chunk block array must have shape {expected}, got {self.blocks.shape}"
            )
        if self.blocks.dtype != np.uint8:
            self.blocks = self.blocks.astype(np.uint8)

    def __setstate__(self, state: dict) -> None:
        # An unpickled array lies on the pickle's buffer, in C order below
        # protocol 5: give the chunk its own column-major memory again.
        self.__dict__.update(state)
        self.blocks = column_major(self.blocks)

    # -- local (in-chunk) coordinates -------------------------------------------------

    def _local(self, pos: BlockPos) -> tuple[int, int, int]:
        origin = chunk_origin(self.position)
        lx = pos.x - origin.x
        lz = pos.z - origin.z
        if not (0 <= lx < CHUNK_SIZE and 0 <= lz < CHUNK_SIZE):
            raise KeyError(f"block {pos} is not inside chunk {self.position}")
        if not (0 <= pos.y < CHUNK_HEIGHT):
            raise KeyError(f"block {pos} is outside the world height range")
        return lx, pos.y, lz

    # -- block access ------------------------------------------------------------------

    def get_block(self, pos: BlockPos) -> BlockType:
        lx, ly, lz = self._local(pos)
        return BlockType(int(self.blocks[lx, ly, lz]))

    def set_block(self, pos: BlockPos, block_type: BlockType) -> None:
        lx, ly, lz = self._local(pos)
        self.blocks[lx, ly, lz] = int(block_type)
        self.dirty = True

    # -- summary helpers ----------------------------------------------------------------

    def copy(self) -> "Chunk":
        return Chunk(
            position=self.position,
            blocks=self.blocks.copy(order="K"),
            generated_by=self.generated_by,
            dirty=self.dirty,
        )

    def content_hash(self) -> int:
        """A stable hash of the block contents (used in tests and caching).

        Derived with :mod:`hashlib` rather than builtin ``hash()``: Python
        salts ``str``/``bytes`` hashes per process (PYTHONHASHSEED), so the
        old tuple hash silently differed between processes while claiming
        stability.  This digest is a pure function of the chunk's position
        and block bytes — equal content always hashes equally, anywhere.
        """
        digest = hashlib.sha256()
        digest.update(f"{self.position.cx}:{self.position.cz}:".encode("ascii"))
        digest.update(self.blocks.tobytes())
        return int.from_bytes(digest.digest()[:8], "little")
