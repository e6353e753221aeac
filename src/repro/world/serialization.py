"""Chunk serialization.

Chunks are serialized to a compact binary representation before being written
to (simulated) storage.  The format is a small header followed by the
zlib-compressed block array, which gives realistic object sizes: a generated
default-world chunk compresses to a few kilobytes, terrain data being "the
most data-intensive" state in the paper's storage discussion.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from repro.world.chunk import CHUNK_HEIGHT, Chunk
from repro.world.coords import CHUNK_SIZE, ChunkPos

_MAGIC = b"RCHK"
_VERSION = 1
_HEADER = struct.Struct(">4sBiiI")  # magic, version, cx, cz, payload length


class ChunkFormatError(ValueError):
    """Raised when deserializing bytes that are not a valid chunk blob."""


def chunk_to_bytes(chunk: Chunk) -> bytes:
    """Serialize a chunk to its storage representation."""
    payload = zlib.compress(chunk.blocks.tobytes(), level=6)
    header = _HEADER.pack(_MAGIC, _VERSION, chunk.position.cx, chunk.position.cz, len(payload))
    return header + payload


def chunk_from_bytes(data: bytes) -> Chunk:
    """Deserialize a chunk from its storage representation."""
    if len(data) < _HEADER.size:
        raise ChunkFormatError("chunk blob is shorter than the header")
    magic, version, cx, cz, payload_len = _HEADER.unpack_from(data)
    if magic != _MAGIC:
        raise ChunkFormatError(f"bad magic {magic!r}")
    if version != _VERSION:
        raise ChunkFormatError(f"unsupported chunk format version {version}")
    payload = data[_HEADER.size:_HEADER.size + payload_len]
    if len(payload) != payload_len:
        raise ChunkFormatError("chunk blob payload is truncated")
    raw = zlib.decompress(payload)
    expected = CHUNK_SIZE * CHUNK_HEIGHT * CHUNK_SIZE
    blocks = np.frombuffer(raw, dtype=np.uint8)
    if blocks.size != expected:
        raise ChunkFormatError(
            f"decompressed block array has {blocks.size} entries, expected {expected}"
        )
    blocks = blocks.reshape((CHUNK_SIZE, CHUNK_HEIGHT, CHUNK_SIZE)).copy()
    return Chunk(position=ChunkPos(cx, cz), blocks=blocks, generated_by="storage")
