"""A corrupt stored chunk is a ``ChunkFormatError``, whatever part of its blob is damaged.

``chunk_from_bytes`` once let ``zlib.error`` escape for a body that does not
decompress, which most single-byte flips of a blob's body cause; the chunk
manager's fall-back to regeneration then had to catch every exception.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.world.chunk import Chunk
from repro.world.coords import ChunkPos
from repro.world.serialization import ChunkFormatError, chunk_from_bytes, chunk_to_bytes
from repro.world.terrain import DefaultTerrainGenerator

from hypothesis_profiles import examples

BLOB = chunk_to_bytes(DefaultTerrainGenerator(seed=3).generate_chunk(ChunkPos(2, -1)))
#: the version-1 header: magic, version, cx, cz, payload length
HEADER_BYTES = 17


def test_a_flipped_body_byte_is_a_chunk_format_error():
    corrupt = bytearray(BLOB)
    corrupt[len(BLOB) // 2] ^= 0xFF
    with pytest.raises(ChunkFormatError):
        chunk_from_bytes(bytes(corrupt))


offsets = st.one_of(
    st.integers(0, HEADER_BYTES - 1), st.integers(HEADER_BYTES, len(BLOB) - 1)
)


@settings(max_examples=examples(60))
@given(
    edits=st.lists(st.tuples(offsets, st.integers(0, 255)), min_size=1, max_size=4),
    keep=st.one_of(st.none(), st.integers(0, len(BLOB))),
)
def test_a_mutated_blob_decodes_or_is_a_chunk_format_error(edits, keep):
    blob = bytearray(BLOB)
    for offset, value in edits:
        blob[offset] = value
    try:
        chunk = chunk_from_bytes(bytes(blob[:keep]))
    except ChunkFormatError:
        return
    assert isinstance(chunk, Chunk)
