"""The shapes ``test_checkpoint.py`` checkpoints, and how a run resumes from one.

Run as a script, this module is the fresh process of that test: it reads a
pickle's path from stdin, loads the host and driver, checks the host,
resumes the shape and prints the digest (or the check's failures).  It
imports neither pytest nor the bench, so the process starts quickly::

    echo /tmp/host.pickle | PYTHONPATH=src python tests/checkpoint_shapes.py terrain_star
"""

from __future__ import annotations

import hashlib
import pickle
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from repro.check import check  # noqa: E402
from repro.cluster import ClusterCoordinator, build_servo_cluster  # noqa: E402
from repro.constructs.library import build_clock  # noqa: E402
from repro.faults import FaultPlan, install_faults  # noqa: E402
from repro.server import GameConfig  # noqa: E402
from repro.sim import SimulationEngine  # noqa: E402
from repro.workload import BotSwarm, JoinSchedule, behavior_by_code  # noqa: E402
from repro.world.coords import BlockPos  # noqa: E402

SEED = 42
#: ticks before the checkpoint, and again after it
TICKS = 10
#: the bench workloads, built by ``bench.workloads.set_up(workload, SEED)``
BENCH = ("players_walk", "construct_fleet", "interest_walk", "terrain_star", "cluster_mixed")
FAULTY = "faulty_cluster"
SHAPES = (*BENCH, FAULTY)


def faulty_cluster():
    """A 2-shard Servo cluster with every kind of in-flight state a shape reaches.

    Net faults delay, duplicate and drop client messages; shard 1 is killed
    after the checkpoint and respawns before the run ends, re-placing its
    constructs; bots keep joining across the checkpoint; walkers leave the
    preloaded area, so terrain invocations are in flight; constructs are
    offloaded.
    """
    engine = SimulationEngine(seed=SEED)
    cluster = build_servo_cluster(engine, GameConfig(world_type="flat"), shards=2)
    cluster.chunks.preload_area(cluster.config.spawn_position, 48.0)
    for index in range(3):
        cluster.place_construct(build_clock(4, BlockPos(8 + 128 * index, 64, 24)))
    checkpoint_ms = TICKS * cluster.config.tick_interval_ms
    install_faults(cluster, FaultPlan.from_dict({
        "net": {"delay_rate": 0.3, "duplicate_rate": 0.05, "drop_rate": 0.05},
        "shards": [{"at_ms": checkpoint_ms + 100.0, "shard": 1, "respawn_after_ms": 200.0}],
        "degradation": {},
    }))
    swarm = BotSwarm(
        [behavior_by_code(code, direction_index=index)
         for index, code in enumerate(["S8", "A", "R"] * 4)],
        schedule=JoinSchedule.staggered(0.25, initial=2),
    )
    return cluster, swarm.install(cluster)


def build(shape: str):
    """The shape's host and driver, run up to the checkpoint."""
    if shape == FAULTY:
        host, driver = faulty_cluster()
    else:
        import bench.workloads  # read-only: the bench's own set-ups

        setup = bench.workloads.set_up(bench.workloads.WORKLOADS[shape], SEED)
        host, driver = setup.host, setup.driver
    host.run_ticks(TICKS, before_tick=driver)
    return host, driver


def resume(shape: str, host, driver) -> str:
    """Run the rest of the shape from its checkpoint; returns the run's digest.

    The faulty cluster places one construct first: it must be numbered after
    the constructs the host already holds, in whichever process resumes.
    """
    if shape == FAULTY:
        host.place_construct(build_clock(6, BlockPos(300, 64, 72)))
    host.run_ticks(TICKS, before_tick=driver)
    return digest(host)


def pending(host) -> list[tuple[float, str]]:
    """The engine's in-flight events, as (due time, name), in due order."""
    return sorted((due_ms, event.name) for due_ms, _, event in host.engine.events._heap)


def digest(host) -> str:
    """sha256 over the run: tick records, constructs by id, counters, in-flight events, faults."""
    hasher = hashlib.sha256()
    for record in host.tick_records:
        hasher.update(repr(record).encode("ascii"))
    servers = host.shards if isinstance(host, ClusterCoordinator) else [host]
    for server in servers:
        for construct in server.constructs.constructs():
            hasher.update(
                f"{construct.construct_id}:{construct.step}:{construct.snapshot().digest()}|"
                .encode("ascii")
            )
    metrics = host.engine.metrics
    for name in metrics.counter_names:
        hasher.update(f"{name}={metrics.counter(name)!r},".encode("ascii"))
    hasher.update(repr(pending(host)).encode("ascii"))
    if host.fault_injector is not None:
        hasher.update(host.fault_injector.timeline.digest().encode("ascii"))
    return hasher.hexdigest()


if __name__ == "__main__":
    with open(input(), "rb") as file:
        host, driver = pickle.load(file)
    failures = check(host)
    print(failures if failures else resume(sys.argv[1], host, driver))
