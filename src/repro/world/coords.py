"""Block and chunk coordinates.

The world uses Minecraft's conventions: blocks are addressed by integer
``(x, y, z)`` positions where ``y`` is the vertical axis; chunks are 16x16
columns addressed by ``(cx, cz)``.

:class:`BlockPos` and :class:`ChunkPos` are named tuples: building, hashing,
comparing and ordering them runs in C, which is what lets sets of thousands
of chunks be differenced on the tick path.  They hash and order exactly like
the plain tuple of their fields — and therefore *equal* it, and ``+``
concatenates rather than adds; use :meth:`BlockPos.offset` to translate.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

CHUNK_SIZE = 16
#: every chunk's storage key starts with this (:meth:`ChunkPos.key`)
CHUNK_KEY_PREFIX = "chunk_"


class BlockPos(NamedTuple):
    """An integer block position."""

    x: int
    y: int
    z: int

    def offset(self, dx: int = 0, dy: int = 0, dz: int = 0) -> "BlockPos":
        return BlockPos(self.x + dx, self.y + dy, self.z + dz)

    def neighbours(self) -> list["BlockPos"]:
        """The six axis-aligned neighbours."""
        return [
            self.offset(dx=1),
            self.offset(dx=-1),
            self.offset(dy=1),
            self.offset(dy=-1),
            self.offset(dz=1),
            self.offset(dz=-1),
        ]


class ChunkPos(NamedTuple):
    """A chunk column position (16x16 blocks horizontally)."""

    cx: int
    cz: int

    def key(self) -> str:
        """A stable string key used as a storage object name."""
        return f"{CHUNK_KEY_PREFIX}{self.cx}_{self.cz}"


def block_to_chunk(pos: BlockPos) -> ChunkPos:
    """The chunk containing a block position."""
    return ChunkPos(pos.x // CHUNK_SIZE, pos.z // CHUNK_SIZE)


def chunk_origin(pos: ChunkPos) -> BlockPos:
    """The minimum-corner block position of a chunk."""
    return BlockPos(pos.cx * CHUNK_SIZE, 0, pos.cz * CHUNK_SIZE)


#: A chunk packs into one int64 as ``cx * 2**21 + cz + 2**20``, so packed
#: order *is* ``(cx, cz)`` order and a ring of chunks is a flat array numpy
#: can translate, union and sort.  ``cz`` has 21 bits: centres are held to
#: ``|cz| < 2**20 - 2**10`` and rings to a reach of ``2**10`` chunks, which
#: keeps every ``cz + dz`` inside its field instead of aliasing a neighbour.
_PACK_BITS = 21
_PACK_HALF = 1 << 20
_PACK_REACH = 1 << 10


def pack_chunk(cx: int, cz: int) -> int:
    """The packed form of chunk ``(cx, cz)``; add a :func:`packed_chunk_ring` to it."""
    if not -_PACK_HALF + _PACK_REACH <= cz < _PACK_HALF - _PACK_REACH:
        raise ValueError(f"chunk z {cz} is outside the packable range")
    return (cx << _PACK_BITS) + cz + _PACK_HALF


def unpack_chunks(packed: np.ndarray) -> tuple[list[int], list[int]]:
    """The ``cx`` and ``cz`` lists of a packed chunk array."""
    return (
        (packed >> _PACK_BITS).tolist(),
        ((packed & ((1 << _PACK_BITS) - 1)) - _PACK_HALF).tolist(),
    )


def packed_chunk_keys(packed: np.ndarray) -> list[str]:
    """``ChunkPos(cx, cz).key()`` for each packed chunk, without the objects."""
    return [f"{CHUNK_KEY_PREFIX}{cx}_{cz}" for cx, cz in zip(*unpack_chunks(packed))]


@lru_cache(maxsize=2048)
def packed_chunk_ring(offset_x: int, offset_z: int, radius_blocks: float) -> np.ndarray:
    """Packed offsets of the chunks within ``radius_blocks`` of an intra-chunk offset.

    A chunk is in the ring when the nearest block of its footprint lies
    within the radius.  The chunk grid is uniform, so the ring depends only
    on the centre's offset *inside* its own chunk (``x % 16``, ``z % 16``),
    not on where the chunk sits: ``pack_chunk(cx, cz) + ring`` is the ring
    around any block of chunk ``(cx, cz)`` with that offset, in ``(cx, cz)``
    order.  The result is memoised and read-only.
    """
    if radius_blocks < 0:
        raise ValueError("radius_blocks must be non-negative")
    reach = int(math.ceil(radius_blocks / CHUNK_SIZE)) + 1
    if reach > _PACK_REACH:
        raise ValueError(f"a radius of {radius_blocks} blocks is outside the packable range")
    steps = np.arange(-reach, reach + 1, dtype=np.int64)
    origins = steps * CHUNK_SIZE
    # Per axis, the gap between the centre and the nearest block of each chunk.
    gap_x = offset_x - np.clip(offset_x, origins, origins + CHUNK_SIZE - 1)
    gap_z = offset_z - np.clip(offset_z, origins, origins + CHUNK_SIZE - 1)
    inside = np.sqrt(np.add.outer(gap_x * gap_x, gap_z * gap_z)) <= radius_blocks
    ring = np.add.outer(steps << _PACK_BITS, steps)[inside]
    ring.flags.writeable = False
    return ring
