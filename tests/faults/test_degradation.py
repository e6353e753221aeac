"""Graceful degradation: shedding broadcast work after budget overruns."""

from repro.faults import DegradationController, DegradationPolicy
from repro.server import GameConfig, make_opencraft
from repro.server.costmodel import TickWork


def make_controller(engine, budget_ms=50.0, shed_fraction=0.5):
    return DegradationController(
        DegradationPolicy(budget_ms=budget_ms, shed_fraction=shed_fraction),
        engine.metrics,
    )


def test_no_shedding_while_under_budget(engine):
    controller = make_controller(engine)
    controller.observe(30.0)
    assert controller.shed_count(100, "players") == 0
    assert engine.metrics.counter("broadcast_updates_shed") == 0.0


def test_overrun_sheds_the_configured_fraction_next_tick(engine):
    controller = make_controller(engine, budget_ms=50.0, shed_fraction=0.5)
    controller.observe(80.0)
    assert controller.shed_count(100, "players") == 50
    assert engine.metrics.counter("broadcast_updates_shed") == 50.0
    # A tick back under budget stops the shedding.
    controller.observe(40.0)
    assert controller.shed_count(100, "players") == 0
    assert engine.metrics.counter("broadcast_updates_shed") == 50.0


def test_shed_broadcasts_reduce_the_tick_cost():
    from repro.server.costmodel import OPENCRAFT_COST_MODEL as model

    full = model.breakdown(TickWork(players=100))
    # Full fan-out takes the shed players off the ones it sends to, and
    # nothing else about the tick's cost changes.
    shed = model.breakdown(TickWork(players=100 - 50))
    assert shed == {**full, "broadcast.players": model.per_player_ms * 50}
    assert shed["broadcast.players"] < full["broadcast.players"]


def test_gameloop_sheds_after_an_overlong_tick(engine):
    from repro.constructs.library import standard_construct

    server = make_opencraft(engine, GameConfig(world_type="flat"))
    server.chunks.preload_area(server.config.spawn_position, 96.0)
    server.degradation = make_controller(engine, budget_ms=50.0, shed_fraction=0.5)
    for index in range(60):
        server.connect_player(f"bot-{index}")
    # 200 constructs push ticks over the 50 ms budget.
    for index in range(200):
        server.place_construct(standard_construct(index))
    for _ in range(10):
        server.tick()
    assert engine.metrics.counter("broadcast_updates_shed") > 0.0
    assert engine.metrics.counter("broadcast_updates_shed") >= 30  # 0.5 * 60 players per shed tick
