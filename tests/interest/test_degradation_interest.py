"""Graceful degradation in interest mode sheds flushes, never players.

Regression guard for the broadcast rewiring: with interest management on,
an over-budget shard must defer due far-tier flushes (budget widening) —
the full fan-out per-player shed must never fire, and the shed count must be
computed from the flushes due *after* interest filtering, not from the
player count.
"""

from repro.faults import DegradationController, DegradationPolicy
from repro.server import GameConfig, make_opencraft
from repro.sim import SimulationEngine
from repro.world.coords import CHUNK_SIZE, BlockPos


def make_degraded_interest_server(seed=5, shed_fraction=0.5):
    config = GameConfig(world_type="flat", interest_radius_chunks=4)
    engine = SimulationEngine(seed=seed)
    server = make_opencraft(engine, config)
    server.chunks.preload_area(config.spawn_position, 200.0)
    # A budget no tick can meet: the controller sheds from tick 2 onward.
    server.degradation = DegradationController(
        DegradationPolicy(budget_ms=0.001, shed_fraction=shed_fraction),
        engine.metrics,
    )
    return engine, server


def test_over_budget_interest_server_sheds_due_flushes_not_players():
    engine, server = make_degraded_interest_server()
    editor = server.connect_player("editor")
    # Four far observers: the editor's chunk is two chunks out, past the near radius.
    observers = [
        server.connect_player(
            f"observer-{index}",
            position=BlockPos(2 * CHUNK_SIZE + index, 65, 2 * CHUNK_SIZE),
        )
        for index in range(4)
    ]

    # Spy on the one shed rule: it must only ever be asked about flushes,
    # with the post-filtering due-flush count (never the player count).
    shed_calls = []
    controller = server.degradation
    original_shed_count = controller.shed_count

    def spy_shed_count(due, unit):
        shed_calls.append((due, unit))
        return original_shed_count(due, unit)

    controller.shed_count = spy_shed_count

    total_shed = 0
    due_per_tick = []
    for tick in range(20):
        position = editor.avatar.position
        editor.move(position.x + 1, position.y, position.z)
        server.tick()
        flush = server.interest.last_flush
        assert flush is not None
        total_shed += flush.flushes_shed
        # Shedding widens budgets but never silences anyone forever: every
        # due far batch is either shed or actually sent.
        due_per_tick.append(flush.flushes_shed + flush.far_flushes)

    assert all(unit == "flushes" for _, unit in shed_calls), (
        "the full fan-out per-player shed fired in interest mode"
    )
    assert total_shed > 0, "an over-budget server never shed a flush"
    # Every shed decision saw exactly the post-filtering due-flush count.
    assert [due for due, _ in shed_calls] == [due for due in due_per_tick if due > 0]
    assert engine.metrics.counter("broadcast_updates_shed") == total_shed
    assert engine.metrics.counter("interest_flushes_shed") == total_shed


def test_deferred_flushes_still_reach_their_subscribers():
    """Shed far batches flush on a later tick — deferred, not dropped."""
    engine, server = make_degraded_interest_server(shed_fraction=0.5)
    editor = server.connect_player("editor")
    observers = [
        server.connect_player(
            f"observer-{index}",
            position=BlockPos(2 * CHUNK_SIZE + index, 65, 2 * CHUNK_SIZE),
        )
        for index in range(4)
    ]
    for tick in range(2):
        position = editor.avatar.position
        editor.move(position.x + 1, position.y, position.z)
        server.tick()
    # Stop producing new entries; pending deferred batches drain over the
    # following ticks (shedding can only defer a fraction each tick).
    for tick in range(10):
        server.tick()
    subs = [server.interest.subscription(observer.player_id) for observer in observers]
    assert all(sub.far_entries == 0 for sub in subs), "a deferred batch was dropped"
    assert all(observer.updates_sent > 0 for observer in observers)
