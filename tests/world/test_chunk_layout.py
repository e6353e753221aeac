"""One layout for every chunk: logical ``[x, y, z]``, column-major memory.

``world/chunk.py`` states the rule: ``Chunk.blocks`` is indexed ``[x, y, z]``
while its memory is ``[x, z, y]`` (strides :data:`STRIDES`), and every
chunk owns its memory.  Each way the system makes a chunk is held to it
here, together with what the layout must not change: the logical bytes,
which equal those of a C-ordered ``[x, y, z]`` array built independently.
A producer that copies with a bare ``copy()`` (C order, a transpose) or hands
out a view of a shared array fails.
"""

from __future__ import annotations

import copy
import hashlib
import pickle

import numpy as np
import pytest
from reference_terrain import generate_default_chunk
from test_terrain_golden import GOLDEN

from repro.core.terrain_service import (
    ServerlessTerrainProvider,
    TerrainHandler,
    TerrainRequest,
)
from repro.faas import AWS_LAMBDA, FaasPlatform
from repro.sim import SimulationEngine
from repro.world.block import BlockType
from repro.world.chunk import CHUNK_HEIGHT, Chunk
from repro.world.coords import CHUNK_SIZE, ChunkPos
from repro.world.serialization import chunk_from_bytes, chunk_to_bytes
from repro.world.terrain import (
    CHUNKS_PER_PASS,
    FLAT_SURFACE_LEVEL,
    DefaultTerrainGenerator,
    FlatTerrainGenerator,
)

SEED = 42
#: byte strides of column-major blocks indexed ``[x, y, z]``
STRIDES = (CHUNK_SIZE * CHUNK_HEIGHT, 1, CHUNK_HEIGHT)
#: more than one stacked pass, with positions beyond the 32-bit storage header
POSITIONS = [ChunkPos(3 * i - 20, 2 ** 40 * (i % 3 - 1) + i) for i in range(CHUNKS_PER_PASS + 2)]
#: sha256 of ``chunk_to_bytes`` of ``GOLDEN[1]``'s chunk, recorded before
#: chunks became column-major: the stored bytes are those of the logical array
GOLDEN_1_BYTES_SHA256 = "90d68a4afe6a81bd5576c2e40356c73f3017ad1948b18e9b774b02efbbe3d947"


def _default(position):
    return np.ascontiguousarray(generate_default_chunk(SEED, position).blocks)


def _flat():
    blocks = np.zeros((CHUNK_SIZE, CHUNK_HEIGHT, CHUNK_SIZE), dtype=np.uint8)
    blocks[:, 0, :] = int(BlockType.BEDROCK)
    blocks[:, 1:FLAT_SURFACE_LEVEL - 3, :] = int(BlockType.STONE)
    blocks[:, FLAT_SURFACE_LEVEL - 3:FLAT_SURFACE_LEVEL, :] = int(BlockType.DIRT)
    blocks[:, FLAT_SURFACE_LEVEL, :] = int(BlockType.GRASS)
    return blocks


def _generated():
    return DefaultTerrainGenerator(seed=SEED).generate_chunks(POSITIONS[:3])


def _generate_chunk():
    generator = DefaultTerrainGenerator(seed=SEED)
    return [generator.generate_chunk(p) for p in POSITIONS[:2]], [_default(p) for p in POSITIONS[:2]]


def _generate_chunks():
    chunks = DefaultTerrainGenerator(seed=SEED).generate_chunks(POSITIONS)
    return chunks, [_default(p) for p in POSITIONS]


def _flat_chunks():
    generator = FlatTerrainGenerator(seed=SEED)
    return [generator.generate_chunk(p) for p in POSITIONS[:3]], [_flat()] * 3


def _terrain_handler():
    handler = TerrainHandler()
    requests = [TerrainRequest("default", SEED, p.cx, p.cz) for p in POSITIONS]
    handler.prepare(requests[1:])
    chunks = [handler(request).value for request in requests]  # the first one unprepared
    return chunks, [_default(p) for p in POSITIONS]


def _generated_locally():
    engine = SimulationEngine(seed=1)
    provider = ServerlessTerrainProvider(
        engine, FaasPlatform(engine, provider=AWS_LAMBDA), world_type="default", seed=SEED
    )
    chunks = [provider._generate_locally(p) for p in POSITIONS[:2]]
    return chunks, [_default(p) for p in POSITIONS[:2]]


def _from_bytes():
    originals = _generated()
    # Read twice from the same bytes: the two loads must not share memory either.
    chunks = [chunk_from_bytes(chunk_to_bytes(chunk)) for chunk in originals + originals[:1]]
    return originals + chunks, [_default(p) for p in POSITIONS[:3]] * 2 + [_default(POSITIONS[0])]


def _copies():
    originals = _generated()
    return originals + [chunk.copy() for chunk in originals], [_default(p) for p in POSITIONS[:3]] * 2


def _defaults():
    return [Chunk(position=p) for p in POSITIONS[:3]], [np.zeros_like(_flat())] * 3


def _deepcopied():
    originals = _generated()
    return originals + copy.deepcopy(originals), [_default(p) for p in POSITIONS[:3]] * 2


def _unpickled(protocol):
    def produce():
        originals = _generated()
        restored = pickle.loads(pickle.dumps(originals, protocol=protocol))
        return originals + restored, [_default(p) for p in POSITIONS[:3]] * 2

    return produce


PRODUCERS = {
    "generate_chunk": _generate_chunk,
    "generate_chunks": _generate_chunks,
    "flat": _flat_chunks,
    "TerrainHandler": _terrain_handler,
    "_generate_locally": _generated_locally,
    "chunk_from_bytes": _from_bytes,
    "Chunk.copy": _copies,
    "Chunk()": _defaults,
    "deepcopy": _deepcopied,
    "pickle-4": _unpickled(4),
    "pickle-5": _unpickled(5),
}


@pytest.mark.parametrize("produce", PRODUCERS.values(), ids=PRODUCERS.keys())
def test_every_producer_makes_owned_column_major_chunks(produce):
    chunks, expected = produce()
    assert len(chunks) == len(expected)
    for chunk, logical in zip(chunks, expected):
        blocks = chunk.blocks
        assert logical.flags.c_contiguous
        assert blocks.tobytes() == logical.tobytes()
        assert np.array_equal(blocks, logical)
        assert blocks.dtype == np.uint8
        assert blocks.shape == (CHUNK_SIZE, CHUNK_HEIGHT, CHUNK_SIZE)
        assert blocks.strides == STRIDES
        assert blocks.flags.owndata and blocks.flags.writeable
    for index, chunk in enumerate(chunks):
        for mate in chunks[index + 1:]:
            assert not np.shares_memory(chunk.blocks, mate.blocks)


def test_a_flat_chunk_does_not_share_the_template():
    generator = FlatTerrainGenerator(seed=SEED)
    first = generator.generate_chunk(ChunkPos(0, 0))
    first.blocks[:] = 255
    assert np.array_equal(generator.generate_chunk(ChunkPos(1, 0)).blocks, _flat())


def test_the_stored_bytes_are_those_recorded_before_the_layout_change():
    seed, position, content_hash = GOLDEN[1]
    chunk = DefaultTerrainGenerator(seed=seed).generate_chunk(ChunkPos(*position))
    assert chunk.content_hash() == content_hash
    assert hashlib.sha256(chunk_to_bytes(chunk)).hexdigest() == GOLDEN_1_BYTES_SHA256
