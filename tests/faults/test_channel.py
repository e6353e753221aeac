"""The lossy message channel and idempotent update application."""

import pytest

from repro.check import check
from repro.faults import FaultInjector, FaultPlan
from repro.net.channel import SEEN_WINDOW, FaultyMessageChannel, SeenWindow
from repro.net.message import Message, MessageKind
from repro.server import GameConfig, make_opencraft

from fault_helpers import fault_count


def make_channel(engine, net):
    injector = FaultInjector(engine, FaultPlan.from_dict({"net": net}))
    return FaultyMessageChannel(engine, injector), injector


def make_session(engine, channel=None):
    server = make_opencraft(engine, GameConfig(world_type="flat"))
    server.chunks.preload_area(server.config.spawn_position, 96.0)
    session = server.connect_player("alice")
    if channel is not None:
        session.attach_channel(channel)
    return server, session


def move(player_id):
    return Message(MessageKind.MOVE, player_id, {"x": 1, "y": 64, "z": 1})


def test_channel_requires_a_net_section(engine):
    injector = FaultInjector(engine, FaultPlan.from_dict({"faas": {"failure_rate": 0.5}}))
    with pytest.raises(ValueError):
        FaultyMessageChannel(engine, injector)


def test_dropped_messages_never_reach_the_inbox(engine):
    channel, injector = make_channel(engine, {"drop_rate": 1.0})
    _, session = make_session(engine, channel)
    session.enqueue(move(session.player_id))
    assert len(session._inbox) == 0
    assert engine.metrics.counter("net_messages_dropped") == 1.0
    assert fault_count(injector.timeline, "net.drop") == 1


def test_duplicated_messages_are_applied_exactly_once(engine):
    channel, _ = make_channel(engine, {"duplicate_rate": 1.0})
    _, session = make_session(engine, channel)
    session.enqueue(move(session.player_id))
    # Delivered twice on the wire, deduplicated down to one application.
    assert len(session._inbox) == 1
    assert engine.metrics.counter("net_messages_duplicated") == 1.0
    assert engine.metrics.counter("net_duplicates_dropped") == 1.0


def test_delayed_messages_arrive_later_but_are_still_applied(engine):
    channel, _ = make_channel(
        engine, {"delay_rate": 1.0, "delay_ms_min": 100.0, "delay_ms_max": 100.0}
    )
    _, session = make_session(engine, channel)
    session.enqueue(move(session.player_id))
    assert len(session._inbox) == 0  # still in flight
    engine.advance_by(150.0)
    assert len(session._inbox) == 1
    assert engine.metrics.counter("net_messages_delayed") == 1.0


def test_delayed_message_to_a_disconnected_player_is_lost(engine):
    channel, _ = make_channel(
        engine, {"delay_rate": 1.0, "delay_ms_min": 50.0, "delay_ms_max": 50.0}
    )
    server, session = make_session(engine, channel)
    session.enqueue(move(session.player_id))
    server.disconnect_player(session.player_id)
    engine.advance_by(100.0)
    assert engine.metrics.counter("net_messages_lost") == 1.0


def test_stamped_messages_bypass_the_channel(engine):
    # Server-internal requeues (e.g. a migration handing over undrained
    # messages) carry a sequence stamp and must not be faulted again.
    channel, _ = make_channel(engine, {"drop_rate": 1.0})
    _, session = make_session(engine, channel)
    stamped = Message(MessageKind.MOVE, session.player_id, {"x": 1}, sequence=7)
    session.enqueue(stamped)
    assert len(session._inbox) == 1
    assert engine.metrics.counter("net_messages_dropped") == 0.0


def test_sequences_are_stamped_per_player_monotonically(engine):
    channel, _ = make_channel(engine, {"drop_rate": 0.0, "delay_rate": 0.0, "duplicate_rate": 0.001})
    _, session = make_session(engine, channel)
    for _ in range(5):
        session.enqueue(move(session.player_id))
    sequences = [message.sequence for message in session.drain()]
    assert sequences == [1, 2, 3, 4, 5]


def test_seen_window_is_bounded_and_forgets_oldest():
    assert SEEN_WINDOW == 512
    window = SeenWindow()
    for sequence in range(1, SEEN_WINDOW + 1):
        assert window.add(sequence)
    assert not window.add(SEEN_WINDOW)  # recent duplicate rejected
    assert window.add(SEEN_WINDOW + 1)  # evicts 1
    assert window.add(1)  # old enough to have left the window


def test_without_a_channel_messages_go_straight_to_the_inbox(engine):
    _, session = make_session(engine, channel=None)
    session.enqueue(move(session.player_id))
    assert len(session._inbox) == 1
    assert session.drain()[0].sequence is None


# -- a delayed message across a cluster handoff ------------------------------------------


def make_delayed_cluster(engine, shards=None):
    from repro.cluster import build_opencraft_cluster
    from repro.faults import install_faults

    cluster = build_opencraft_cluster(engine, GameConfig(world_type="flat"), shards=2)
    cluster.chunks.preload_area(cluster.config.spawn_position, 96.0)
    net = {"delay_rate": 1.0, "delay_ms_min": 100.0, "delay_ms_max": 100.0}
    plan = {"net": net} if shards is None else {"net": net, "shards": shards}
    install_faults(cluster, FaultPlan.from_dict(plan))
    sessions = [cluster.connect_player(f"bot-{index}") for index in range(4)]
    return cluster, sessions


def run_rounds(cluster, rounds):
    for _ in range(rounds):
        cluster.tick()
        assert check(cluster) == []


def test_a_delayed_message_lands_once_after_its_player_migrates(engine):
    cluster, sessions = make_delayed_cluster(engine)
    mover = sessions[3]  # spawned next to the zone boundary, on shard 0
    assert cluster.home[mover.player_id] == 0
    position = mover.avatar.position
    mover.move(position.x + 5, position.y, position.z)
    while not mover._inbox:  # the move is still in flight
        run_rounds(cluster, 1)
    # Sent on shard 0; the next round processes the move and hands the
    # player to shard 1 before the chat can land.
    mover.chat("sent from shard 0")
    run_rounds(cluster, 1)
    assert cluster.home[mover.player_id] == 1
    assert mover.avatar.chat_messages_sent == 0
    run_rounds(cluster, 4)
    assert mover.avatar.chat_messages_sent == 1
    assert cluster.shards[1].sessions[mover.player_id] is mover
    assert engine.metrics.counter("net_messages_lost") == 0.0


def test_a_delayed_message_lands_once_after_its_shard_respawns(engine):
    kill = [{"at_ms": 50.0, "shard": 0, "respawn_after_ms": 100.0}]
    cluster, sessions = make_delayed_cluster(engine, shards=kill)
    stranded = sessions[0]
    assert cluster.home[stranded.player_id] == 0
    old_shard = cluster.shards[0]
    while engine.now_ms < 150.0:  # the round at 50 ms kills shard 0
        run_rounds(cluster, 1)
    assert engine.metrics.counter("shard_kills") == 1.0
    assert cluster.recovery_records == []
    # Sent while shard 0 is down; the next round respawns it first.
    stranded.chat("sent during the outage")
    run_rounds(cluster, 1)
    assert len(cluster.recovery_records) == 1
    assert stranded.avatar.chat_messages_sent == 0
    run_rounds(cluster, 4)
    assert cluster.shards[0] is not old_shard
    assert cluster.shards[0].sessions[stranded.player_id] is stranded
    assert stranded.avatar.chat_messages_sent == 1
    assert engine.metrics.counter("net_messages_lost") == 0.0
    assert engine.metrics.counter("shard_messages_lost") == 0.0


def test_a_delayed_message_for_a_disconnected_cluster_player_is_lost(engine):
    cluster, sessions = make_delayed_cluster(engine)
    leaver = sessions[1]
    leaver.chat("goodbye")
    cluster.disconnect_player(leaver.player_id)
    run_rounds(cluster, 4)
    assert leaver.avatar.chat_messages_sent == 0
    assert engine.metrics.counter("net_messages_lost") == 1.0
