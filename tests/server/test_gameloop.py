"""Integration tests for the game loop and the baseline variants."""

import pytest

from repro.check import check
from repro.constructs.library import build_wire_line, standard_construct
from repro.net.message import Message, MessageKind
from repro.server import GameConfig, make_minecraft, make_opencraft
from repro.sim import SimulationEngine
from repro.sim.metrics import fraction_exceeding
from repro.world.block import BlockType
from repro.world.coords import BlockPos


@pytest.fixture
def opencraft(engine):
    server = make_opencraft(engine, GameConfig(world_type="flat"))
    server.chunks.preload_area(server.config.spawn_position, 96.0)
    return server


def test_game_config_validation():
    with pytest.raises(ValueError):
        GameConfig(view_distance_blocks=0)
    with pytest.raises(ValueError):
        GameConfig(world_type="martian")
    assert GameConfig().tick_interval_ms == pytest.approx(50.0)


def test_connect_and_disconnect_players(opencraft):
    session = opencraft.connect_player("alice")
    assert opencraft.player_count == 1
    assert session.avatar.position == opencraft.config.spawn_position
    opencraft.disconnect_player(session.player_id)
    assert opencraft.player_count == 0
    with pytest.raises(KeyError):
        opencraft.disconnect_player(session.player_id)


def test_tick_advances_virtual_time_by_at_least_the_budget(opencraft, engine):
    before = engine.now_ms
    record = opencraft.tick()
    assert engine.now_ms >= before + opencraft.config.tick_interval_ms
    assert record.duration_ms > 0
    assert opencraft.tick_index == 1


def test_overlong_tick_delays_the_next_one(opencraft, engine):
    # 200 constructs make every other tick exceed the 50 ms budget.
    for index in range(200):
        opencraft.place_construct(standard_construct(index))
    opencraft.tick()
    start_second = engine.now_ms
    record = opencraft.tick()  # construct tick (index 1 is odd; force a couple)
    opencraft.tick()
    assert engine.now_ms > start_second
    assert max(r.duration_ms for r in opencraft.tick_records) > 50.0


def test_move_messages_update_avatars(opencraft):
    session = opencraft.connect_player()
    session.move(20, 65, 20)
    opencraft.tick()
    assert session.avatar.position == BlockPos(20, 65, 20)
    assert opencraft.stats.messages_processed == 1


def test_place_and_break_block_messages_edit_the_world(opencraft):
    session = opencraft.connect_player()
    target = BlockPos(4, 70, 4)
    session.enqueue(
        Message(MessageKind.PLACE_BLOCK, session.player_id,
                {"x": target.x, "y": target.y, "z": target.z, "block": int(BlockType.WOOD)})
    )
    opencraft.tick()
    assert opencraft.world.get_block(target) == BlockType.WOOD
    session.enqueue(
        Message(MessageKind.BREAK_BLOCK, session.player_id,
                {"x": target.x, "y": target.y, "z": target.z})
    )
    opencraft.tick()
    assert opencraft.world.get_block(target) == BlockType.AIR
    assert opencraft.stats.blocks_placed == 1
    assert opencraft.stats.blocks_broken == 1


def test_edits_in_unloaded_terrain_are_ignored(opencraft):
    session = opencraft.connect_player()
    session.enqueue(
        Message(MessageKind.PLACE_BLOCK, session.player_id, {"x": 10_000, "y": 70, "z": 10_000})
    )
    opencraft.tick()  # must not raise
    assert opencraft.stats.blocks_placed == 0


def test_chat_and_inventory_messages_update_counters(opencraft):
    session = opencraft.connect_player()
    session.chat("hello")
    session.enqueue(Message(MessageKind.SET_INVENTORY, session.player_id, {"item": "torch"}))
    opencraft.tick()
    assert session.avatar.chat_messages_sent == 1
    assert session.avatar.inventory_item == "torch"


def test_place_construct_writes_blocks_and_registers(opencraft):
    construct = build_wire_line(length=3, origin=BlockPos(2, 66, 2))
    opencraft.place_construct(construct)
    assert opencraft.construct_count == 1
    assert opencraft.world.get_block(BlockPos(2, 66, 2)) == BlockType.POWER_SOURCE
    opencraft.remove_construct(construct.construct_id)
    assert opencraft.construct_count == 0


def test_breaking_a_construct_block_advances_its_timestamp(opencraft):
    construct = build_wire_line(length=3, origin=BlockPos(2, 66, 2))
    opencraft.place_construct(construct)
    session = opencraft.connect_player()
    session.enqueue(
        Message(MessageKind.BREAK_BLOCK, session.player_id, {"x": 3, "y": 66, "z": 2})
    )
    opencraft.tick()
    assert construct.modification_counter == 1


def test_run_for_seconds_executes_expected_tick_count(opencraft, engine):
    records = opencraft.run_for_seconds(2.0)
    assert 35 <= len(records) <= 41
    assert opencraft.tick_records == records


def test_tick_metrics_are_recorded(opencraft, engine):
    opencraft.run_ticks(10)
    assert engine.metrics.tick_log == opencraft.tick_records
    durations = [record.duration_ms for record in opencraft.tick_records]
    assert engine.metrics.histogram("tick_duration_ms").samples == durations
    assert engine.metrics.series("tick_duration_over_time").values == durations
    assert fraction_exceeding(durations, 50.0) >= 0.0


def test_player_data_is_persisted_and_loaded(engine):
    server = make_opencraft(engine, GameConfig(world_type="flat"))
    server.connect_player("bob")
    assert server.storage.exists("player_bob")
    server.disconnect_player(1)
    server.connect_player("bob")
    assert len(engine.metrics.histogram("player_load_ms")) == 1


def test_disconnect_persists_player_state_and_records_save_latency(engine):
    server = make_opencraft(engine, GameConfig(world_type="flat"))
    session = server.connect_player("carol")
    session.avatar.blocks_placed = 7
    session.avatar.inventory_item = "torch"
    operation = server.disconnect_player(session.player_id)
    assert operation is not None and operation.key == "player_carol"
    assert len(engine.metrics.histogram("player_save_ms")) == 1
    # Reconnecting restores the persisted avatar state.
    restored = server.connect_player("carol")
    assert restored.avatar.blocks_placed == 7
    assert restored.avatar.inventory_item == "torch"
    assert restored.restore_latency_ms > 0.0


def test_a_reconnecting_player_is_subscribed_where_its_stored_position_puts_it(engine):
    config = GameConfig(world_type="flat", interest_radius_chunks=4)
    server = make_opencraft(engine, config)
    server.chunks.preload_area(config.spawn_position, 200.0)
    session = server.connect_player("dave")
    for step in range(1, 21):
        session.move(config.spawn_position.x + 5 * step, 65, 8)
        server.tick()
    server.disconnect_player(session.player_id)
    server.interest.record_dirty_log = True

    back = server.connect_player("dave")
    assert back.avatar.position == BlockPos(108, 65, 8)
    assert server.interest.subscription(back.player_id).center == (6, 0)
    # The arrival is announced where the player appears, not at spawn.
    assert [entry[0] for entry in server.interest.drain_dirty_log()] == [(6, 0)]
    server.tick()
    assert server.interest.subscription(back.player_id).center == (6, 0)
    assert check(server) == []


def test_every_server_writes_dirty_terrain_back_on_the_persistence_interval(engine):
    from repro.server.gameloop import PERSISTENCE_INTERVAL_S
    from repro.storage.local import LocalDiskStorage
    from repro.world.coords import block_to_chunk

    server = make_opencraft(engine, GameConfig(world_type="flat"))
    due = round(PERSISTENCE_INTERVAL_S * 1000.0 / server.config.tick_interval_ms)
    assert isinstance(server.storage, LocalDiskStorage)
    assert server.chunks.storage is server.storage
    server.chunks.preload_area(server.config.spawn_position, 32.0)
    edited = BlockPos(9, 90, 9)
    server.world.set_block(edited, BlockType.STONE)
    key = block_to_chunk(edited).key()
    server.run_ticks(due - 10)  # half a second short: not yet due
    assert not server.storage.exists(key)
    server.run_ticks(15)
    assert server.storage.exists(key)
    assert not server.world.get_chunk(block_to_chunk(edited)).dirty


def test_remove_construct_releases_chunk_pins(opencraft):
    construct = build_wire_line(length=3, origin=BlockPos(2, 66, 2))
    opencraft.place_construct(construct)
    assert opencraft.chunks.protected_chunks
    opencraft.remove_construct(construct.construct_id)
    assert not opencraft.chunks.protected_chunks


def test_overlapping_construct_pins_are_reference_counted(opencraft):
    # Two constructs in the same chunk: removing one must keep the pin.
    first = build_wire_line(length=3, origin=BlockPos(2, 66, 2))
    second = build_wire_line(length=3, origin=BlockPos(2, 70, 6))
    opencraft.place_construct(first)
    opencraft.place_construct(second)
    pinned = set(opencraft.chunks.protected_chunks)
    opencraft.remove_construct(first.construct_id)
    assert opencraft.chunks.protected_chunks == pinned
    opencraft.remove_construct(second.construct_id)
    assert not opencraft.chunks.protected_chunks


def test_connect_at_explicit_position(engine):
    server = make_opencraft(engine, GameConfig(world_type="flat"))
    session = server.connect_player("eve", position=BlockPos(40, 65, 40))
    assert session.avatar.position == BlockPos(40, 65, 40)


def test_release_and_adopt_move_one_live_session_between_servers(engine):
    config = GameConfig(world_type="flat")
    source, target = make_opencraft(engine, config), make_opencraft(engine, config)
    session = source.connect_player("frank")
    session.chat("queued before the handoff")
    assert source.release(session.player_id) is session
    assert not session.disconnected and not source.sessions
    # A release persists nothing (a disconnect would record a save).
    assert len(engine.metrics.histogram("player_save_ms")) == 0
    target.adopt(session)
    assert target.sessions == {session.player_id: session}
    # The queued message travelled with the session and lands on the target.
    target.tick()
    assert session.avatar.chat_messages_sent == 1
    with pytest.raises(KeyError):
        source.release(session.player_id)


def test_restore_avatar_state_rejects_corrupt_snapshots():
    from repro.server.entities import Avatar
    from repro.server.session import restore_avatar_state

    avatar = Avatar(player_id=1, name="x", position=BlockPos(0, 65, 0))
    assert not restore_avatar_state(avatar, b"\xff\xfe not json")
    assert not restore_avatar_state(avatar, b'{"blocks_placed": "abc"}')
    assert not restore_avatar_state(avatar, b'"a bare string"')
    # A corrupt field leaves the avatar entirely untouched.
    assert avatar.blocks_placed == 0 and avatar.position == BlockPos(0, 65, 0)
    assert restore_avatar_state(avatar, b'{"blocks_placed": 4}')
    assert avatar.blocks_placed == 4


def test_minecraft_variant_uses_its_own_cost_model():
    engine_a, engine_b = SimulationEngine(seed=5), SimulationEngine(seed=5)
    opencraft = make_opencraft(engine_a, GameConfig(world_type="flat"))
    minecraft = make_minecraft(engine_b, GameConfig(world_type="flat"))
    assert opencraft.cost_model.name == "opencraft"
    assert minecraft.cost_model.name == "minecraft"
    assert minecraft.cost_model.per_player_ms > opencraft.cost_model.per_player_ms


@pytest.mark.parametrize("make_server", [make_opencraft, make_minecraft])
def test_a_server_built_without_services_gets_the_all_local_defaults(make_server, engine):
    from repro.server import LocalConstructBackend, LocalTerrainProvider
    from repro.server.broadcast import FullFanout
    from repro.storage.local import LocalDiskStorage

    server = make_server(engine, GameConfig(world_type="flat"))
    assert isinstance(server.storage, LocalDiskStorage)
    assert server.chunks.storage is server.storage
    assert isinstance(server.chunks.provider, LocalTerrainProvider)
    assert server.chunks.provider.workers == 2
    assert server.chunks.provider.generator is server.chunks.generator
    assert isinstance(server.constructs, LocalConstructBackend)
    assert server.constructs.interval == server.cost_model.construct_tick_interval == 2
    assert isinstance(server.broadcast, FullFanout)
    assert server.interest is None
    assert server.chunks.center_listeners == []


def test_the_default_construct_interval_follows_the_cost_model(engine):
    from repro.server import SERVO_COST_MODEL, GameServer

    server = GameServer(engine, GameConfig(world_type="flat"), SERVO_COST_MODEL)
    assert server.constructs.interval == SERVO_COST_MODEL.construct_tick_interval == 1


def test_an_interest_radius_gives_an_interest_map_fed_by_chunk_crossings(engine):
    from repro.interest import InterestMap

    server = make_opencraft(engine, GameConfig(world_type="flat", interest_radius_chunks=3))
    assert isinstance(server.broadcast, InterestMap)
    assert server.interest is server.broadcast
    assert server.broadcast.radius_chunks == 3
    assert server.chunks.center_listeners == [server.broadcast.update_center]


def test_fraction_over_budget_requires_ticks(opencraft):
    with pytest.raises(ValueError):
        fraction_exceeding([record.duration_ms for record in opencraft.tick_records], 50.0)
