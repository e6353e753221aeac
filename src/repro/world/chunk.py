"""Chunks: 16x16x256 columns of blocks, stored as sixteen 16x16x16 sections.

Chunks are the unit of terrain generation, loading, caching and storage, just
as in the paper (a "chunk" there is an area of 16x16x256 blocks, Figure 11).
Most of a chunk is air or solid stone, so, as in Minecraft's own chunk
format, its blocks are kept per section: section ``s`` holds the blocks with
``y`` in ``[16 s, 16 s + 16)``.

The storage rule, which every producer of a chunk keeps:

* a section that holds one block type is that block id, a plain ``int``,
  and costs no array;
* any other section is a 4 KiB ``uint8`` array indexed ``[x, z, y - 16 s]``,
  its 16-block column pieces adjacent, the order terrain generation writes
  columns in;
* sections may be shared between chunks (every flat chunk shares its
  generator's template), so a chunk writes in place only into the sections
  its ``_owned`` mask marks as its own, and ``set_block`` copies any other
  section first.  A producer marks a section owned only when no other chunk
  holds it.

Ownership is the mask, never the array's ``writeable`` flag:
``copy.deepcopy`` and pickle give two chunks that shared a read-only section
one *writeable* array they still share, and both masks still mark it shared.

Readers index logically: :meth:`Chunk.get_block`, and :attr:`Chunk.blocks`,
a read-only ``[x, y, z]`` array in C order whose bytes are what hashes and
stored chunks are made of.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.world.block import BlockType
from repro.world.coords import CHUNK_SIZE, BlockPos, ChunkPos, chunk_origin

CHUNK_HEIGHT = 256
SECTION_HEIGHT = 16
SECTIONS = CHUNK_HEIGHT // SECTION_HEIGHT
#: the shape of a section's array: ``[x, z, y - 16 s]``
SECTION_SHAPE = (CHUNK_SIZE, CHUNK_SIZE, SECTION_HEIGHT)
#: a section: one block id, or a ``uint8`` array of :data:`SECTION_SHAPE`
Section = int | np.ndarray


def _by_section(blocks: np.ndarray) -> np.ndarray:
    """``[s, x, z, y - 16 s]``: the sections of the logical ``[x, y, z]`` array ``blocks``, a view."""
    return blocks.reshape(CHUNK_SIZE, SECTIONS, SECTION_HEIGHT, CHUNK_SIZE).transpose(1, 0, 3, 2)


def _split(blocks: np.ndarray) -> tuple[list[int], np.ndarray]:
    """The one-block table and the stacked other sections of a logical ``[x, y, z]`` array."""
    expected = (CHUNK_SIZE, CHUNK_HEIGHT, CHUNK_SIZE)
    if blocks.shape != expected:
        raise ValueError(f"chunk block array must have shape {expected}, got {blocks.shape}")
    flat = _by_section(blocks).astype(np.uint8, order="C").reshape(SECTIONS, -1)
    first = flat[:, 0]
    one_block = (flat == first[:, None]).all(axis=1)
    table = np.where(one_block, first, np.int16(-1)).tolist()
    return table, flat[~one_block].reshape(-1, *SECTION_SHAPE)


class Chunk:
    """One 16x16x256 column of blocks.

    ``Chunk(position)`` is all air; ``blocks`` gives the contents as a logical
    ``[x, y, z]`` array.  Producers that already hold sections pass
    ``sections``, a list of :data:`SECTIONS` entries, instead: each entry is a
    :data:`Section` the chunk may share, or ``-1`` for the next section of
    ``stack`` (``[k, *SECTION_SHAPE]``), which then belongs to this chunk
    alone.  The chunk keeps the ``sections`` list itself.
    """

    def __init__(
        self,
        position: ChunkPos,
        blocks: np.ndarray | None = None,
        generated_by: str = "unknown",
        dirty: bool = False,
        *,
        sections: list[Section] | None = None,
        stack: np.ndarray | None = None,
    ) -> None:
        self.position = position
        self.generated_by = generated_by
        self.dirty = dirty
        if blocks is not None:
            sections, stack = _split(blocks)
        elif sections is None:
            sections = [int(BlockType.AIR)] * SECTIONS
        #: bit ``s`` is set when section ``s`` is an array no other chunk holds
        self._owned = 0
        if stack is not None:
            taken = 0
            for index in range(SECTIONS):
                if sections[index] < 0:
                    sections[index] = stack[taken]
                    self._owned |= 1 << index
                    taken += 1
        self._sections = sections

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
        section = self._sections[ly >> 4]
        if type(section) is int:
            return BlockType(section)
        return BlockType(int(section[lx, lz, ly & 15]))

    def set_block(self, pos: BlockPos, block_type: BlockType) -> None:
        lx, ly, lz = self._local(pos)
        index = ly >> 4
        if not self._owned >> index & 1:
            # Copy on first write: the section may be shared, or a block id.
            section = self._sections[index]
            if type(section) is int:
                self._sections[index] = np.full(SECTION_SHAPE, section, dtype=np.uint8)
            else:
                self._sections[index] = section.copy()
            self._owned |= 1 << index
        self._sections[index][lx, lz, ly & 15] = int(block_type)
        self.dirty = True

    @property
    def blocks(self) -> np.ndarray:
        """The blocks as a read-only logical ``[x, y, z]`` array in C order (assembled on each read)."""
        blocks = np.empty((CHUNK_SIZE, CHUNK_HEIGHT, CHUNK_SIZE), dtype=np.uint8)
        destination = _by_section(blocks)
        for index, section in enumerate(self._sections):
            destination[index] = section
        blocks.flags.writeable = False
        return blocks

    # -- summary helpers ----------------------------------------------------------------

    def copy(self) -> "Chunk":
        """A chunk with the same blocks; the two share every section until one writes it."""
        self._owned = 0
        return Chunk(
            position=self.position,
            generated_by=self.generated_by,
            dirty=self.dirty,
            sections=self._sections[:],
        )

    def content_hash(self) -> int:
        """A stable hash of the block contents (used in tests and caching).

        Derived with :mod:`hashlib` rather than builtin ``hash()``: Python
        salts ``str``/``bytes`` hashes per process (PYTHONHASHSEED), so the
        old tuple hash silently differed between processes while claiming
        stability.  This digest is a pure function of the chunk's position
        and logical block bytes — equal content always hashes equally,
        anywhere, however the chunk's sections are stored.
        """
        digest = hashlib.sha256()
        digest.update(f"{self.position.cx}:{self.position.cz}:".encode("ascii"))
        digest.update(self.blocks)
        return int.from_bytes(digest.digest()[:8], "little")
