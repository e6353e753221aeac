"""Golden content pins for default terrain.

``reference_terrain`` can be edited together with ``src/``; these constants
cannot.  They are ``Chunk.content_hash()`` values computed at commit e73ca76,
before generation was rewritten as an array program, and every way the system
produces a chunk must reproduce them.  The benchmark's ``sim_digest`` does not
cover chunk bytes, so this file is the content gate.
"""

import pytest
from reference_terrain import generate_default_chunk

from repro.core.terrain_service import (
    ServerlessTerrainProvider,
    TerrainHandler,
    TerrainRequest,
)
from repro.faas import AWS_LAMBDA, FaasPlatform
from repro.world.coords import ChunkPos
from repro.world.terrain import DefaultTerrainGenerator

GOLDEN = [
    (42, (0, 0), 13027415279990947826),
    (42, (-3, 4), 16089575735109284089),
    (42, (1000, -1000), 16084918795779646811),
    (0, (5, 5), 18153337310820737305),
    (-5, (-100000, 99999), 15960590142574248057),
    (2 ** 31 + 12345, (7, -9), 3003621543052421594),
]


@pytest.mark.parametrize("seed, position, content_hash", GOLDEN)
def test_default_chunks_hash_as_they_did_before_the_rewrite(seed, position, content_hash):
    chunk = DefaultTerrainGenerator(seed=seed).generate_chunk(ChunkPos(*position))
    assert chunk.content_hash() == content_hash


def test_the_executable_spec_reproduces_a_pin():
    seed, position, content_hash = GOLDEN[1]
    assert generate_default_chunk(seed, ChunkPos(*position)).content_hash() == content_hash


def test_every_generation_route_returns_the_pinned_chunk(engine):
    seed, (cx, cz), content_hash = GOLDEN[1]
    output = TerrainHandler()(TerrainRequest("default", seed, cx, cz))
    assert output.value.content_hash() == content_hash
    provider = ServerlessTerrainProvider(
        engine, FaasPlatform(engine, provider=AWS_LAMBDA), world_type="default", seed=seed
    )
    assert provider._generate_locally(ChunkPos(cx, cz)).content_hash() == content_hash
