"""``check`` names each broken invariant once, with the server or cluster that owns it.

Each case ticks a consistent host, corrupts exactly one invariant, and expects
one line back.  A clean host gives none.
"""

import dataclasses
from pathlib import Path

import pytest

from repro.api import RunSpec, run_spec
from repro.check import check
from repro.cluster import build_opencraft_cluster
from repro.constructs.library import build_clock
from repro.server import GameConfig, make_opencraft
from repro.server.chunkmanager import GenerationResult
from repro.world.chunk import Chunk
from repro.world.coords import BlockPos, ChunkPos

SPECS = Path(__file__).resolve().parents[1] / "examples" / "specs"


def ticked_server(engine):
    server = make_opencraft(engine, GameConfig(world_type="flat"))
    server.chunks.preload_area(server.config.spawn_position, 96.0)
    server.place_construct(build_clock(period=4, origin=BlockPos(8, 64, 8)))
    server.place_construct(build_clock(period=4, origin=BlockPos(8, 64, 24)))
    server.connect_player("solo")
    server.tick()
    return server


def ticked_cluster(engine):
    cluster = build_opencraft_cluster(engine, GameConfig(world_type="flat"), shards=2)
    cluster.chunks.preload_area(cluster.config.spawn_position, 96.0)
    cluster.place_construct(build_clock(period=4, origin=BlockPos(8, 64, 8)))
    for index in range(4):
        cluster.connect_player(f"bot-{index}")
    cluster.tick()
    return cluster


def bump_a_refcount(cluster):
    """A shard counts one chunk reference no view holds; the shard owns the break."""
    shard = cluster.shards[0]
    chunk = next(iter(shard.chunks._chunk_refcounts))
    shard.chunks._chunk_refcounts[chunk] += 1
    return shard, "chunk views"


def point_a_session_at_the_wrong_shard(cluster):
    """The coordinator's home for a session names a shard that does not serve it."""
    session = next(iter(cluster.shards[0].sessions.values()))
    cluster.home[session.player_id] = 1
    return cluster, "sessions"


def unbind_a_served_avatar(server):
    """A served session's avatar is taken off the server's avatar table."""
    session = next(iter(server.sessions.values()))
    server.avatars.unbind(session.avatar)
    return server, "avatar table"


def register_a_construct_twice(cluster):
    """A construct placed on shard 0 is also registered on shard 1."""
    (construct,) = cluster.shards[0].constructs.constructs()
    cluster.shards[1].constructs.register_construct(construct)
    return cluster, "constructs"


def drop_a_view(server):
    """A connected player's view is dropped with no refresh pending."""
    server.chunks.forget_player(next(iter(server.sessions)))
    return server, "first sight"


def share_a_state_vector(server):
    """Two constructs step one state vector."""
    first, second = server.constructs.constructs()
    second.states = first.states
    return server, "construct states"


def give_two_constructs_one_id(server):
    """A construct takes the id of another the server holds."""
    first, second = server.constructs.constructs()
    second.construct_id = first.construct_id
    return server, "construct ids"


def keep_a_released_pin(server):
    """A chunk's last pin was released but its zero count was kept."""
    server.chunks._protected[ChunkPos(99, 99)] = 0
    return server, "construct pins"


def deliver_an_unrequested_chunk(server):
    """A chunk reply lands for a position that is not pending."""
    position = ChunkPos(99, 99)
    server.chunks._on_chunk_available(
        Chunk(position=position), GenerationResult(position, 1.0, "storage", False)
    )
    return server, "chunk requests"


def start_a_tick_early(server):
    """A tick starts before the previous tick's interval has passed."""
    server.tick()
    earlier, later = server.tick_records[-2:]
    server.tick_records[-1] = dataclasses.replace(later, start_ms=earlier.start_ms + 1.0)
    return server, "tick clock"


@pytest.mark.parametrize(
    "build, corrupt",
    [
        (ticked_cluster, bump_a_refcount),
        (ticked_cluster, point_a_session_at_the_wrong_shard),
        (ticked_cluster, register_a_construct_twice),
        (ticked_server, unbind_a_served_avatar),
        (ticked_server, drop_a_view),
        (ticked_server, share_a_state_vector),
        (ticked_server, give_two_constructs_one_id),
        (ticked_server, keep_a_released_pin),
        (ticked_server, deliver_an_unrequested_chunk),
        (ticked_server, start_a_tick_early),
    ],
    ids=lambda f: f.__name__,
)
def test_one_corrupted_invariant_gives_one_line_naming_it_and_its_owner(engine, build, corrupt):
    host = build(engine)
    assert check(host) == []
    owner, invariant = corrupt(host)
    (line,) = check(host)
    assert line.startswith(f"{owner.name}: {invariant}: ")


def test_a_session_held_by_two_shards_is_reported(engine):
    """A second shard adopts a session its home shard still serves.

    The avatar has to leave the home shard's table before the second shard
    can bind it, so the home shard's avatar-table line comes with the
    cluster's sessions line.
    """
    cluster = ticked_cluster(engine)
    home = cluster.shards[0]
    session = next(iter(home.sessions.values()))
    home.avatars.unbind(session.avatar)
    cluster.shards[1].adopt(session)
    failures = check(cluster)
    assert sorted(line.split(": ")[:2] for line in failures) == [
        [cluster.name, "sessions"],
        [home.name, "avatar table"],
    ]


def test_a_killed_shards_ticks_are_checked_after_its_respawn():
    spec = RunSpec.from_file(SPECS / "cluster_shard_kill.json")
    cluster = run_spec(spec).host  # the run ends with a clean check
    log = cluster.engine.metrics.tick_log
    (killed,) = {record.shard for record in log} - {shard.name for shard in cluster.shards}
    previous, last = [index for index, record in enumerate(log) if record.shard == killed][-2:]
    log[last] = dataclasses.replace(log[last], start_ms=log[previous].start_ms)
    (line,) = check(cluster)
    assert line.startswith(f"{killed}: tick clock: ")
