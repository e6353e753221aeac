"""One storage rule for every chunk: sixteen sections, shared ones copied on first write.

``world/chunk.py`` states the rule: a section holding one block type is that
block id, any other is a ``uint8`` array of ``SECTION_SHAPE``, and a chunk
writes in place only into the sections its ownership mask marks as its own.
Each way the system makes a chunk is held to it here, together with what the
rule must not change: the logical bytes, which equal those of a C-ordered
``[x, y, z]`` array built independently.  The isolation property stands in
for a memory check: a write into any section of any produced chunk is seen by
that chunk alone, not by a chunk made with it, the flat generator's template,
or a freshly generated chunk.  A producer that marks a shared section owned,
or hands two chunks one section list, fails.
"""

from __future__ import annotations

import copy
import hashlib
import pickle

import numpy as np
import pytest
from chunk_rule import assert_storage_rule
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
from repro.world.chunk import CHUNK_HEIGHT, SECTION_HEIGHT, SECTIONS, Chunk
from repro.world.coords import CHUNK_SIZE, ChunkPos, chunk_origin
from repro.world.serialization import chunk_from_bytes, chunk_to_bytes
from repro.world.terrain import (
    CHUNKS_PER_PASS,
    FLAT_SURFACE_LEVEL,
    DefaultTerrainGenerator,
    FlatTerrainGenerator,
)

SEED = 42
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
    # Read twice from the same bytes: the two loads must not share a section either.
    chunks = [chunk_from_bytes(chunk_to_bytes(chunk)) for chunk in originals + originals[:1]]
    return originals + chunks, [_default(p) for p in POSITIONS[:3]] * 2 + [_default(POSITIONS[0])]


def _copies():
    originals = _generated() + [FlatTerrainGenerator(seed=SEED).generate_chunk(POSITIONS[0])]
    expected = [_default(p) for p in POSITIONS[:3]] + [_flat()]
    return originals + [chunk.copy() for chunk in originals], expected * 2


def _defaults():
    return [Chunk(position=p) for p in POSITIONS[:3]], [np.zeros_like(_flat())] * 3


def _with_flat(chunks):
    """``chunks`` and two flat chunks, which share their generator's template sections."""
    generator = FlatTerrainGenerator(seed=SEED)
    return chunks + [generator.generate_chunk(p) for p in POSITIONS[:2]]


def _deepcopied():
    originals = _with_flat(_generated())
    expected = [_default(p) for p in POSITIONS[:3]] + [_flat()] * 2
    return originals + copy.deepcopy(originals), expected * 2


def _unpickled(protocol):
    def produce():
        originals = _with_flat(_generated())
        restored = pickle.loads(pickle.dumps(originals, protocol=protocol))
        expected = [_default(p) for p in POSITIONS[:3]] + [_flat()] * 2
        return originals + restored, expected * 2

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


def _write_every_section(chunk, logical, index):
    """Write a block into each of ``chunk``'s sections, and into its model ``logical``."""
    origin = chunk_origin(chunk.position)
    lx, lz = index % CHUNK_SIZE, (index // CHUNK_SIZE) % CHUNK_SIZE
    for section in range(SECTIONS):
        y = section * SECTION_HEIGHT + index % SECTION_HEIGHT
        chunk.set_block(origin.offset(lx, y, lz), BlockType.LAMP)
        logical[lx, y, lz] = int(BlockType.LAMP)


@pytest.mark.parametrize("produce", PRODUCERS.values(), ids=PRODUCERS.keys())
def test_every_producer_keeps_the_storage_rule_and_isolates_writes(produce):
    chunks, expected = produce()
    assert len(chunks) == len(expected)
    models = [logical.copy() for logical in expected]
    for chunk, logical in zip(chunks, models):
        assert logical.flags.c_contiguous
        blocks = chunk.blocks
        assert blocks.tobytes() == logical.tobytes()
        assert blocks.dtype == np.uint8
        assert blocks.shape == (CHUNK_SIZE, CHUNK_HEIGHT, CHUNK_SIZE)
        assert not blocks.flags.writeable
        assert_storage_rule(chunk)
    lists = [id(chunk._sections) for chunk in chunks]
    assert len(set(lists)) == len(lists)

    for index, (chunk, logical) in enumerate(zip(chunks, models)):
        _write_every_section(chunk, logical, index)
        for other, model in zip(chunks, models):
            assert np.array_equal(other.blocks, model)
    flat = FlatTerrainGenerator(seed=SEED)
    assert np.array_equal(flat.generate_chunk(POSITIONS[0]).blocks, _flat())
    default = DefaultTerrainGenerator(seed=SEED).generate_chunk(POSITIONS[0])
    assert np.array_equal(default.blocks, _default(POSITIONS[0]))


def test_a_flat_chunk_does_not_share_the_template():
    generator = FlatTerrainGenerator(seed=SEED)
    first = generator.generate_chunk(ChunkPos(0, 0))
    logical = _flat()
    for index in range(8):
        _write_every_section(first, logical, index)
    assert np.array_equal(first.blocks, logical)
    assert np.array_equal(generator.generate_chunk(ChunkPos(1, 0)).blocks, _flat())


def test_the_stored_bytes_are_those_recorded_before_the_layout_change():
    seed, position, content_hash = GOLDEN[1]
    chunk = DefaultTerrainGenerator(seed=seed).generate_chunk(ChunkPos(*position))
    assert chunk.content_hash() == content_hash
    assert hashlib.sha256(chunk_to_bytes(chunk)).hexdigest() == GOLDEN_1_BYTES_SHA256
