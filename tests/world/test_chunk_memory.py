"""Memory ratchets: a loaded chunk costs the sections that need arrays, not 64 KiB.

``tracemalloc`` traces numpy's data buffers as well as Python objects, so the
bytes an action leaves allocated are what its results hold, on any machine.
With dense chunks, the bench's preloaded flat area held 22.0 MiB (349 chunks
of 64 KiB) and a default-terrain chunk 64.3 KiB; with sections they hold
0.19 MiB and 11.1 KiB.
"""

import tracemalloc

from repro.experiments.harness import build_game_server
from repro.server import GameConfig
from repro.sim import SimulationEngine
from repro.world.coords import ChunkPos
from repro.world.terrain import DefaultTerrainGenerator

#: the radius ``bench/workloads.py`` preloads around spawn
PRELOAD_RADIUS_BLOCKS = 160.0
MAX_PRELOAD_BYTES = 1 << 20
MAX_BYTES_PER_DEFAULT_CHUNK = 20 << 10
POSITIONS = [ChunkPos(index - 7, 3 * index) for index in range(32)]


def _held(action):
    """(bytes still allocated after ``action()``, its result)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = action()
        return tracemalloc.get_traced_memory()[0] - before, result
    finally:
        tracemalloc.stop()


def test_the_preloaded_flat_area_holds_under_a_mebibyte():
    config = GameConfig(world_type="flat")
    server = build_game_server("opencraft", SimulationEngine(seed=42), config)
    held, loaded = _held(lambda: server.chunks.preload_area(config.spawn_position, PRELOAD_RADIUS_BLOCKS))
    assert loaded == 349
    assert held <= MAX_PRELOAD_BYTES, held


def test_a_default_terrain_chunk_holds_under_20_kib():
    generator = DefaultTerrainGenerator(seed=42)
    generator.generate_chunks([ChunkPos(100, 100)])  # numpy's lazy imports happen here
    held, chunks = _held(lambda: generator.generate_chunks(POSITIONS))
    assert len(chunks) == len(POSITIONS)
    assert held <= MAX_BYTES_PER_DEFAULT_CHUNK * len(POSITIONS), held / len(POSITIONS)
