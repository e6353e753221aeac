"""Chunk serialization.

Chunks are serialized to a compact binary representation before being written
to (simulated) storage.  The format is a small header followed by the
zlib-compressed block array, which gives realistic object sizes: a generated
default-world chunk compresses to a few kilobytes, terrain data being "the
most data-intensive" state in the paper's storage discussion.

Version 1 stores the chunk coordinates as 32-bit integers; a chunk beyond
them (positions are 64-bit) is written as version 2, whose header differs
only in 64-bit coordinates.  Every chunk that fits keeps the version-1 bytes.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from repro.world.chunk import CHUNK_HEIGHT, Chunk
from repro.world.coords import CHUNK_SIZE, ChunkPos

_MAGIC = b"RCHK"
#: header by format version: magic, version, cx, cz, payload length
_HEADERS = {1: struct.Struct(">4sBiiI"), 2: struct.Struct(">4sBqqI")}
_PREFIX = struct.Struct(">4sB")  # magic, version
_INT32 = range(-2 ** 31, 2 ** 31)


class ChunkFormatError(ValueError):
    """Raised when deserializing bytes that are not a valid chunk blob."""


def chunk_to_bytes(chunk: Chunk) -> bytes:
    """Serialize a chunk to its storage representation."""
    payload = zlib.compress(chunk.blocks, level=6)  # the logical [x, y, z] bytes, C order
    cx, cz = chunk.position.cx, chunk.position.cz
    version = 1 if cx in _INT32 and cz in _INT32 else 2
    return _HEADERS[version].pack(_MAGIC, version, cx, cz, len(payload)) + payload


def chunk_from_bytes(data: bytes) -> Chunk:
    """Deserialize a chunk from its storage representation."""
    if len(data) < _PREFIX.size:
        raise ChunkFormatError("chunk blob is shorter than the header")
    magic, version = _PREFIX.unpack_from(data)
    if magic != _MAGIC:
        raise ChunkFormatError(f"bad magic {magic!r}")
    header = _HEADERS.get(version)
    if header is None:
        raise ChunkFormatError(f"unsupported chunk format version {version}")
    if len(data) < header.size:
        raise ChunkFormatError("chunk blob is shorter than the header")
    _, _, cx, cz, payload_len = header.unpack_from(data)
    payload = data[header.size:header.size + payload_len]
    if len(payload) != payload_len:
        raise ChunkFormatError("chunk blob payload is truncated")
    try:
        raw = zlib.decompress(payload)
    except zlib.error as error:
        raise ChunkFormatError(f"chunk blob payload does not decompress: {error}") from error
    expected = CHUNK_SIZE * CHUNK_HEIGHT * CHUNK_SIZE
    blocks = np.frombuffer(raw, dtype=np.uint8)
    if blocks.size != expected:
        raise ChunkFormatError(
            f"decompressed block array has {blocks.size} entries, expected {expected}"
        )
    blocks = blocks.reshape((CHUNK_SIZE, CHUNK_HEIGHT, CHUNK_SIZE))
    return Chunk(position=ChunkPos(cx, cz), blocks=blocks, generated_by="storage")
