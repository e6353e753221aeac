"""Cluster determinism: the same seed must reproduce the run bit-for-bit.

The acceptance criterion for the cluster layer is that two runs with the same
seed produce an identical migration schedule, identical tick records and
identical per-shard metrics — the virtual-time lockstep and named random
streams make the whole cluster a deterministic function of the seed.
"""

import hashlib

import pytest

from repro.api import build_host
from repro.check import check
from repro.cluster import build_servo_cluster
from repro.constructs.library import build_clock, build_wire_line
from repro.server import GameConfig, LocalConstructBackend
from repro.sim import SimulationEngine
from repro.workload import behaviour_a
from repro.world.coords import BlockPos


def run_cluster(seed: int):
    engine = SimulationEngine(seed=seed)
    cluster = build_servo_cluster(engine, GameConfig(world_type="flat"), shards=2)
    scenario = behaviour_a(players=12, constructs=4, duration_s=4.0)
    result = scenario.run(cluster)
    return engine, cluster, result


def test_same_seed_reproduces_migrations_ticks_and_metrics():
    engine_a, cluster_a, result_a = run_cluster(seed=1234)
    engine_b, cluster_b, result_b = run_cluster(seed=1234)

    # Identical migration schedule (who, when, where, how long).
    assert cluster_a.migration_records == cluster_b.migration_records
    # Identical cluster round records and measured tick durations.
    assert cluster_a.tick_records == cluster_b.tick_records
    assert result_a.tick_durations_ms == result_b.tick_durations_ms
    # Identical per-shard tick records and per-shard metric histograms.
    for shard_a, shard_b in zip(cluster_a.shards, cluster_b.shards):
        assert shard_a.tick_records == shard_b.tick_records
        name = f"tick_duration_ms:{shard_a.name}"
        assert (
            engine_a.metrics.histogram(name).samples
            == engine_b.metrics.histogram(name).samples
        )
    assert (
        engine_a.metrics.histogram("migration_ms").samples
        == engine_b.metrics.histogram("migration_ms").samples
    )
    assert engine_a.metrics.counter("migrations") == engine_b.metrics.counter("migrations")


def test_different_seeds_diverge():
    _, _, result_a = run_cluster(seed=1)
    _, _, result_b = run_cluster(seed=2)
    assert result_a.tick_durations_ms != result_b.tick_durations_ms


# Computed at commit e50b367 with ``workers=1`` and with ``workers=2`` (the
# process pool scattered batches of >= 16 circuits), before the pool was deleted.
FLEET_HASHES = {
    "opencraft-cluster": "e8ebb036cfb1627933a0a75e722b1028213877640f8cf199e38d0bd41b9626bf",
    "servo-cluster": "4afb4849a940fc150d9a724839038b8ddabf9ab4977a83e19b3ff46786d1656e",
}
#: How shard 0's advances split in those 40 ticks.  The local backend steps
#: every other tick (20 × 20 advances): the 10 wire lines settle and are
#: parked, the 10 clocks close their loops and replay them, and the last
#: stragglers, fewer than the batch minimum, step on the compiled path.  The
#: speculative backend advances every tick (40 × 20), by local fallback or by
#: merging a FaaS reply.
ADVANCE_SPLITS = {
    "opencraft-cluster": {"batched": 233, "fallback": 6, "replayed": 56, "parked": 105},
    "servo-cluster": {"batched": 759, "fallback": 0, "merged": 41},
}


def advance_split(backend) -> dict[str, int]:
    """Every advance of ``backend``'s constructs, by the path that made it."""
    split = {"batched": backend._stepper.batched_steps, "fallback": backend._stepper.fallback_steps}
    if isinstance(backend, LocalConstructBackend):
        split.update(replayed=backend.replay.replayed_steps, parked=backend.replay.parked_steps)
    else:
        split["merged"] = sum(record.merged_steps for record in backend._records.values())
    return split


@pytest.mark.parametrize("game", sorted(FLEET_HASHES))
def test_a_fleet_on_one_shard_steps_through_its_backend_and_reproduces_the_pin(game):
    engine = SimulationEngine(seed=1234)
    cluster = build_host(game, engine, GameConfig(world_type="flat"), shards=2)
    cluster.chunks.preload_area(cluster.config.spawn_position, 96.0)
    # 20 structurally distinct circuits, all anchored in shard 0's zone.
    for i in range(10):
        cluster.place_construct(
            build_clock(period=4 + 2 * i, origin=BlockPos(8 + 6 * i, 64, 8), lamps=1 + i % 3)
        )
    for i in range(10):
        cluster.place_construct(build_wire_line(3 + i, origin=BlockPos(8, 64, 24 + 3 * i)))
    for i in range(4):
        cluster.connect_player(f"b{i}")
    cluster.run_ticks(40)

    backend = cluster.shards[0].constructs
    assert len(backend.constructs()) == 20
    assert advance_split(backend) == ADVANCE_SPLITS[game]
    assert sum(ADVANCE_SPLITS[game].values()) == sum(c.step for c in backend.constructs())
    hasher = hashlib.sha256()
    for record in cluster.tick_records:
        hasher.update(repr(record.duration_ms).encode())
    assert check(cluster) == []
    for shard in cluster.shards:
        for construct in shard.constructs.constructs():
            hasher.update(str(construct.step).encode())
            hasher.update(construct.snapshot().digest().encode())
    assert hasher.hexdigest() == FLEET_HASHES[game]
