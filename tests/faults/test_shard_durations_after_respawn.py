"""A cluster's per-shard tick durations survive a shard kill and respawn.

``cluster_scalability`` reads each shard's P99 over the measured rounds.  A
shard killed inside the window keeps the ticks it ran, and its replacement
counts only its own: each shard's count of measured ticks is the number of
measured rounds it ticked in.
"""

from repro.cluster import build_opencraft_cluster
from repro.experiments.cluster_scalability import durations_by_shard_ms
from repro.faults import FaultPlan, install_faults
from repro.server import GameConfig

ROUNDS = 40
#: the last MEASURED rounds are the window; the kill and respawn fall inside it
MEASURED = 30


def test_each_shard_counts_the_measured_rounds_it_was_alive(engine):
    cluster = build_opencraft_cluster(engine, GameConfig(world_type="flat"), shards=2)
    cluster.chunks.preload_area(cluster.config.spawn_position, 96.0)
    plan = {"shards": [{"at_ms": 1600.0, "shard": 0, "respawn_after_ms": 500.0}]}
    install_faults(cluster, FaultPlan.from_dict(plan))
    for index in range(8):
        cluster.connect_player(f"bot-{index}")
    # Every shard object that ever ran, and the rounds each one ticked in.
    shards = {id(shard): shard for shard in cluster.shards}
    ticked_in = {}
    for round_index in range(ROUNDS):
        before = {key: len(shard.tick_records) for key, shard in shards.items()}
        cluster.tick()
        shards.update((id(shard), shard) for shard in cluster.shards)
        for key, shard in shards.items():
            if len(shard.tick_records) > before.get(key, 0):
                ticked_in.setdefault(shard.name, []).append(round_index)
    assert len(cluster.recovery_records) == 1
    window = range(ROUNDS - MEASURED, ROUNDS)
    alive = {
        name: sum(round_index in window for round_index in rounds)
        for name, rounds in ticked_in.items()
    }
    # The killed shard, its replacement and the survivor all tick in the window.
    assert sorted(alive) == ["opencraft-shard-0", "opencraft-shard-0-r1", "opencraft-shard-1"]
    assert all(0 < count < MEASURED for name, count in alive.items() if "shard-0" in name)
    durations = durations_by_shard_ms(cluster, MEASURED)
    assert {name: len(ticks) for name, ticks in durations.items()} == alive
