"""Tests for the game loop's hot-path indices.

Covers the per-construct cell index (O(cells) removal), the precomputed
neighbour->construct edit lookup, the pending-message session index and the
broadcast clock that replaced the per-session ``updates_sent`` bump.
"""

import pytest

from repro.constructs.library import build_piston_door, build_wire_line, standard_construct
from repro.net.message import Message, MessageKind
from repro.server import GameConfig, make_opencraft
from repro.sim import SimulationEngine


@pytest.fixture
def engine():
    return SimulationEngine(seed=7)


@pytest.fixture
def opencraft(engine):
    server = make_opencraft(engine, GameConfig(world_type="flat"))
    server.chunks.preload_area(server.config.spawn_position, 96.0)
    return server


# -- construct indices ---------------------------------------------------------------


def test_remove_construct_clears_only_its_own_cells(opencraft):
    first = standard_construct(0)
    second = standard_construct(1)
    opencraft.place_construct(first)
    opencraft.place_construct(second)
    opencraft.remove_construct(first.construct_id)
    assert len(opencraft.constructs.constructs()) == 1
    # The second construct's cells survive and still route edits.
    assert all(
        opencraft._construct_cells.get(cell.position) == second.construct_id
        for cell in second.cells
    )
    assert not any(
        opencraft._construct_cells.get(cell.position) == first.construct_id
        for cell in first.cells
    )


def test_remove_overlapping_construct_keeps_surviving_owners_cells(opencraft):
    from repro.world.coords import BlockPos

    first = build_wire_line(length=4, origin=BlockPos(0, 64, 0), powered=True)
    second = build_wire_line(length=4, origin=BlockPos(3, 64, 0), powered=True)
    opencraft.place_construct(first)
    opencraft.place_construct(second)  # overlaps first at x=3..5
    opencraft.remove_construct(first.construct_id)
    shared = BlockPos(4, 64, 0)
    # The surviving construct still owns the shared cell and receives edits.
    assert opencraft._construct_cells.get(shared) == second.construct_id
    before = second.modification_counter
    session = opencraft.connect_player()
    session.enqueue(
        Message(
            MessageKind.TOGGLE_CONSTRUCT,
            session.player_id,
            {"x": shared.x, "y": shared.y, "z": shared.z},
        )
    )
    opencraft.tick()
    assert second.modification_counter == before + 1


def test_edit_on_construct_cell_notifies_backend(opencraft):
    door = build_piston_door()
    opencraft.place_construct(door)
    lever = door.positions[0]
    before = door.modification_counter
    session = opencraft.connect_player()
    session.enqueue(
        Message(
            MessageKind.TOGGLE_CONSTRUCT,
            session.player_id,
            {"x": lever.x, "y": lever.y, "z": lever.z},
        )
    )
    opencraft.tick()
    assert door.modification_counter == before + 1


def test_edit_adjacent_to_construct_notifies_backend(opencraft):
    construct = build_wire_line(length=4, powered=True)
    opencraft.place_construct(construct)
    adjacent = construct.positions[0].offset(dy=1)
    before = construct.modification_counter
    session = opencraft.connect_player()
    session.enqueue(
        Message(
            MessageKind.PLACE_BLOCK,
            session.player_id,
            {"x": adjacent.x, "y": adjacent.y, "z": adjacent.z},
        )
    )
    opencraft.tick()
    assert construct.modification_counter == before + 1


def test_edit_far_from_constructs_is_ignored(opencraft):
    construct = build_wire_line(length=4, powered=True)
    opencraft.place_construct(construct)
    before = construct.modification_counter
    session = opencraft.connect_player()
    session.enqueue(
        Message(
            MessageKind.PLACE_BLOCK, session.player_id, {"x": 500, "y": 64, "z": 500}
        )
    )
    opencraft.tick()
    assert construct.modification_counter == before


def test_edit_lookup_is_rebuilt_after_removal(opencraft):
    construct = build_wire_line(length=4, powered=True)
    opencraft.place_construct(construct)
    opencraft.tick()  # force a lookup build via the tick path (no edits: lazy)
    target = construct.positions[0]
    opencraft.remove_construct(construct.construct_id)
    before = construct.modification_counter
    session = opencraft.connect_player()
    session.enqueue(
        Message(
            MessageKind.PLACE_BLOCK,
            session.player_id,
            {"x": target.x, "y": target.y, "z": target.z},
        )
    )
    opencraft.tick()
    # The construct is gone; the stale lookup must not resurrect it.
    assert construct.modification_counter == before


# -- pending-message index -----------------------------------------------------------


def test_only_sessions_with_messages_are_drained(opencraft):
    active = opencraft.connect_player("active")
    opencraft.connect_player("idle")
    active.move(12, 65, 12)
    record = opencraft.tick()
    assert opencraft.stats.messages_processed == 1
    assert active.avatar.position.x == 12
    assert record.players == 2
    # The index is empty again after the tick.
    assert not opencraft._pending_messages


def test_messages_enqueued_after_disconnect_entry_is_dropped(opencraft):
    session = opencraft.connect_player("ghost")
    session.move(5, 65, 5)
    opencraft.disconnect_player(session.player_id)
    # The queued message is dropped with the session; the tick must not crash.
    opencraft.tick()
    assert opencraft.stats.messages_processed == 0
    assert not opencraft._pending_messages


def test_messages_processed_across_multiple_ticks(opencraft):
    session = opencraft.connect_player()
    for tick in range(5):
        session.move(tick + 1, 65, 0)
        opencraft.tick()
    assert opencraft.stats.messages_processed == 5
    assert session.avatar.position.x == 5


# -- broadcast clock -----------------------------------------------------------------


def test_updates_sent_counts_ticks_while_connected(opencraft):
    early = opencraft.connect_player("early")
    opencraft.tick()
    opencraft.tick()
    late = opencraft.connect_player("late")
    opencraft.tick()
    assert early.updates_sent == 3
    assert late.updates_sent == 1


def test_updates_sent_freezes_at_disconnect(opencraft):
    session = opencraft.connect_player()
    opencraft.tick()
    opencraft.tick()
    opencraft.disconnect_player(session.player_id)
    frozen = session.updates_sent
    assert frozen == 2
    opencraft.tick()
    assert session.updates_sent == frozen
