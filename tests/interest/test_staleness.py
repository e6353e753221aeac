"""Dyconit budgets: far-tier staleness and drift bounds always hold."""

from repro.interest import MAX_DRIFT_BLOCKS, MAX_STALENESS_TICKS, InterestMap
from repro.server import GameConfig, make_opencraft
from repro.sim import SimulationEngine
from repro.sim.metrics import CONSISTENCY_ERROR_HISTOGRAM, metric_name
from repro.world.coords import CHUNK_SIZE, BlockPos



def test_near_tier_flushes_every_tick(make_session):
    interest = InterestMap(radius_chunks=2)
    interest.subscribe(make_session(1))
    interest.note_dirty((0, 0), source_player_id=None)
    report = interest.flush(tick_index=0)
    assert report.near_flushes == 1
    assert report.far_flushes == 0
    assert report.staleness_max == 0


def test_far_tier_waits_for_the_staleness_budget(make_session):
    interest = InterestMap(radius_chunks=3)
    interest.subscribe(make_session(1))
    interest.note_dirty((2, 0))  # two chunks out, past the near radius -> far tier
    for tick in range(MAX_STALENESS_TICKS):
        report = interest.flush(tick_index=tick)
        assert report.flushes == 0, f"flushed early at staleness {tick}"
    # The oldest entry is exactly MAX_STALENESS_TICKS old -> due.
    report = interest.flush(tick_index=MAX_STALENESS_TICKS)
    assert report.far_flushes == 1
    assert report.staleness_max == MAX_STALENESS_TICKS


def test_drift_budget_forces_an_early_flush(make_session):
    assert 5.0 < MAX_DRIFT_BLOCKS <= 10.0 and MAX_STALENESS_TICKS > 1
    interest = InterestMap(radius_chunks=3)
    interest.subscribe(make_session(1))
    interest.note_dirty((2, 0), drift=5.0)
    report = interest.flush(tick_index=0)
    assert report.flushes == 0  # 5 blocks of drift is still within budget
    interest.note_dirty((2, 0), drift=5.0)
    report = interest.flush(tick_index=1)  # one tick old: inside the staleness budget
    assert report.far_flushes == 1  # 10 blocks crossed the drift budget
    assert report.drift_max == 10.0


def test_source_player_never_receives_its_own_action(make_session):
    interest = InterestMap(radius_chunks=2)
    session = make_session(1)
    interest.subscribe(session)
    interest.note_dirty((0, 0), source_player_id=1)
    report = interest.flush(tick_index=0)
    assert report.flushes == 0
    assert report.entries_encoded == 0  # nothing encoded for zero recipients
    assert session.updates == 0


def test_gameloop_staleness_never_exceeds_the_configured_bound():
    """Property over a full run: every flush's staleness is within budget."""
    bound = MAX_STALENESS_TICKS
    config = GameConfig(world_type="flat", interest_radius_chunks=4)
    engine = SimulationEngine(seed=11)
    server = make_opencraft(engine, config)
    server.chunks.preload_area(config.spawn_position, 200.0)
    editor = server.connect_player("editor")
    # Observers two chunks away: the editor's chunk lands in their far tier.
    observers = [
        server.connect_player(
            f"observer-{index}",
            position=BlockPos(2 * CHUNK_SIZE + index, 65, 2 * CHUNK_SIZE),
        )
        for index in range(3)
    ]
    far_flushes = 0
    for tick in range(40):
        if tick % 3 == 0:
            position = editor.avatar.position
            editor.move(position.x + 1, position.y, position.z)
        server.tick()
        flush = server.interest.last_flush
        assert flush is not None
        assert flush.staleness_max <= bound
        far_flushes += flush.far_flushes
    assert far_flushes > 0, "the workload never exercised the far tier"
    # The consistency_error metric recorded the same guarantee.
    histogram = engine.metrics.histogram(metric_name(CONSISTENCY_ERROR_HISTOGRAM))
    assert len(histogram) > 0
    assert histogram.maximum() <= bound
    assert all(observer.updates_sent > 0 for observer in observers)
