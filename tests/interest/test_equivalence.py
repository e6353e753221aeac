"""Equivalence gates: radius None is the full fan-out path, bit for bit.

``interest_radius_chunks=None`` (the default) must leave the paper's full
fan-out broadcast untouched — same RNG draws, same virtual durations — while
interest-enabled runs must agree with full fan-out on all simulation state
(positions, blocks) and reproduce themselves bit-identically under the same
seed.
"""

from repro.net.message import Message, MessageKind
from repro.server import GameConfig, make_opencraft
from repro.server.broadcast import FullFanout
from repro.sim import SimulationEngine
from repro.world.block import BlockType
from repro.world.coords import CHUNK_SIZE, BlockPos


def _scripted_run(config: GameConfig, seed: int = 7, ticks: int = 30):
    """A deterministic scripted session: moves and block edits, no bots."""
    engine = SimulationEngine(seed=seed)
    server = make_opencraft(engine, config)
    server.chunks.preload_area(config.spawn_position, 160.0)
    sessions = [server.connect_player(f"bot-{index}") for index in range(8)]
    for tick in range(ticks):
        walker = sessions[tick % len(sessions)]
        position = walker.avatar.position
        walker.move(position.x + 3, position.y, position.z)
        if tick % 5 == 0:
            editor = sessions[0]
            target = BlockPos(4 + tick, 70, 4)
            editor.enqueue(
                Message(
                    MessageKind.PLACE_BLOCK,
                    editor.player_id,
                    {"x": target.x, "y": target.y, "z": target.z, "block": int(BlockType.WOOD)},
                )
            )
        server.tick()
    state = {
        "positions": [session.avatar.position for session in sessions],
        "blocks": [
            int(server.world.get_block(BlockPos(4 + tick, 70, 4)))
            for tick in range(0, ticks, 5)
        ],
        "tick_index": server.tick_index,
    }
    durations = [record.duration_ms for record in server.tick_records]
    return server, state, durations


def test_radius_none_keeps_the_legacy_broadcast_path():
    server, _, _ = _scripted_run(GameConfig(world_type="flat"))
    assert server.interest is None
    assert isinstance(server.broadcast, FullFanout)
    # Full fan-out accounting: one update per player per tick via the broadcast clock.
    session = next(iter(server.sessions.values()))
    assert session.updates_sent == server.tick_index


def test_radius_none_is_bit_identical_across_reruns():
    _, state_a, durations_a = _scripted_run(GameConfig(world_type="flat"))
    _, state_b, durations_b = _scripted_run(GameConfig(world_type="flat"))
    assert state_a == state_b
    assert durations_a == durations_b


def test_interest_mode_agrees_with_legacy_on_simulation_state():
    """Durations differ (different cost terms) but world state is identical."""
    _, fanout_state, fanout_durations = _scripted_run(GameConfig(world_type="flat"))
    server, interest_state, interest_durations = _scripted_run(
        GameConfig(world_type="flat", interest_radius_chunks=4)
    )
    assert server.interest is not None
    assert interest_state == fanout_state
    assert interest_durations != fanout_durations  # the cost model did change


def test_interest_mode_is_bit_identical_across_reruns():
    config = GameConfig(world_type="flat", interest_radius_chunks=4)
    server_a, state_a, durations_a = _scripted_run(config)
    server_b, state_b, durations_b = _scripted_run(config)
    assert state_a == state_b
    assert durations_a == durations_b
    flush_a, flush_b = server_a.interest.last_flush, server_b.interest.last_flush
    assert flush_a is not None and flush_b is not None
    assert flush_a == flush_b


def test_interest_updates_sent_counts_actual_flushes():
    """updates_sent derives from flushes, not from a per-tick broadcast clock."""
    config = GameConfig(world_type="flat", interest_radius_chunks=4)
    engine = SimulationEngine(seed=7)
    server = make_opencraft(engine, config)
    server.chunks.preload_area(config.spawn_position, 160.0)
    mover = server.connect_player("mover")
    observer = server.connect_player("observer")  # same chunk as the mover
    # A far-away loner outside everyone's radius sees nothing at all.
    loner = server.connect_player(
        "loner", position=BlockPos(20 * CHUNK_SIZE, 65, 20 * CHUNK_SIZE)
    )
    for _ in range(10):
        position = mover.avatar.position
        mover.move(position.x + 2, position.y, position.z)
        server.tick()
    # The observer shares the mover's chunk: every move is a near entry, so
    # it got exactly one near flush per tick.  The loner subscribes only to
    # quiet chunks and received nothing — unlike full fan-out's broadcast clock,
    # which would have charged it one update per tick.
    assert observer.updates_sent == server.tick_index
    assert loner.updates_sent == 0
