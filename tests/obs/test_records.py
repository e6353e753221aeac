"""RecordRing: list compatibility uncapped, bounded retention capped."""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.obs.records import EvictedRecordError, RecordRing
from repro.server.config import GameConfig


@dataclass(frozen=True)
class FakeRecord:
    index: int
    duration_ms: float


def filled(ring: RecordRing, durations) -> RecordRing:
    for index, duration in enumerate(durations):
        ring.append(FakeRecord(index=index, duration_ms=duration))
    return ring


class TestUncapped:
    def test_behaves_like_the_list_it_replaces(self):
        ring = filled(RecordRing(duration_of="duration_ms"), [1.0, 2.0, 3.0])
        as_list = ring.retained()
        assert len(ring) == 3
        assert ring.dropped == 0
        assert bool(ring) is True
        assert ring[0] == as_list[0] and ring[-1] == as_list[-1]
        assert ring[1:] == as_list[1:]
        assert ring[:] == as_list
        assert list(ring) == as_list
        assert ring == as_list  # list comparison works while nothing dropped
        assert ring == filled(RecordRing(), [1.0, 2.0, 3.0])

    def test_empty(self):
        ring = RecordRing(duration_of="duration_ms")
        assert len(ring) == 0 and not ring
        assert ring[:] == []
        with pytest.raises(IndexError):
            ring[0]
        with pytest.raises(ValueError, match="no records"):
            ring.over_budget_fraction(50.0)

    def test_over_budget_exact_for_any_budget(self):
        ring = filled(RecordRing(duration_of="duration_ms"), [10.0, 60.0, 40.0, 70.0])
        assert ring.over_budget_fraction(50.0) == 0.5
        assert ring.over_budget_fraction(65.0) == 0.25


class TestCapped:
    def test_virtual_indices_and_eviction(self):
        ring = filled(
            RecordRing(cap=3, duration_of="duration_ms"), [0.0, 1.0, 2.0, 3.0, 4.0]
        )
        assert len(ring) == 5  # total appended, NOT retained
        assert ring.dropped == 2
        assert [r.index for r in ring.retained()] == [2, 3, 4]
        assert ring[2].index == 2 and ring[4].index == 4 and ring[-1].index == 4
        assert [r.index for r in ring[3:]] == [3, 4]
        with pytest.raises(EvictedRecordError, match="evicted"):
            ring[0]
        with pytest.raises(EvictedRecordError):
            ring[0:2]
        with pytest.raises(IndexError):
            ring[5]

    def test_incremental_aggregates_survive_eviction(self):
        ring = filled(
            RecordRing(cap=2, duration_of="duration_ms", budget_ms=50.0),
            [10.0, 60.0, 40.0, 70.0, 80.0],
        )
        # Exact over the full run via the construction-time budget counter.
        assert ring.over_budget_fraction(50.0) == pytest.approx(3 / 5)

    def test_other_budgets_refuse_once_records_are_gone(self):
        ring = filled(
            RecordRing(cap=2, duration_of="duration_ms", budget_ms=50.0),
            [10.0, 60.0, 40.0],
        )
        with pytest.raises(ValueError, match="evicted"):
            ring.over_budget_fraction(30.0)

    def test_equality_accounts_for_drops(self):
        capped = filled(RecordRing(cap=2, duration_of="duration_ms"), [1.0, 2.0, 3.0])
        same = filled(RecordRing(cap=2, duration_of="duration_ms"), [1.0, 2.0, 3.0])
        uncapped = filled(RecordRing(duration_of="duration_ms"), [1.0, 2.0, 3.0])
        assert capped == same
        assert capped != uncapped  # different history visibility
        assert capped != [FakeRecord(1, 2.0), FakeRecord(2, 3.0)]  # drops bar list eq

    def test_cap_validation(self):
        with pytest.raises(ValueError, match="at least 1"):
            RecordRing(cap=0)


class TestGameServerIntegration:
    def test_config_knob_validates(self):
        with pytest.raises(ValueError, match="tick_record_cap"):
            GameConfig(tick_record_cap=0)
        assert GameConfig(tick_record_cap=100).tick_record_cap == 100
        assert GameConfig().tick_record_cap is None

    def test_capped_server_keeps_summaries_exact(self, engine):
        from repro.experiments.harness import build_game_server

        server = build_game_server(
            "opencraft", engine, GameConfig(world_type="flat", tick_record_cap=10)
        )
        for _ in range(3):
            server.connect_player()
        server.run_ticks(40)
        assert len(server.tick_records) == 40
        assert server.tick_records.dropped == 30
        assert [r.index for r in server.tick_records.retained()] == list(range(30, 40))
        # The over-budget fraction still covers all 40 ticks (the ring's
        # budget is the config's tick interval, which is the default query).
        fraction = server.fraction_of_ticks_over_budget(
            server.config.tick_interval_ms
        )
        assert 0.0 <= fraction <= 1.0
        assert server.stats.ticks_executed == 40

    def test_uncapped_server_matches_capped_virtual_results(self):
        from repro.experiments.harness import build_game_server
        from repro.sim import SimulationEngine

        def run(cap):
            engine = SimulationEngine(seed=77)
            server = build_game_server(
                "opencraft",
                engine,
                GameConfig(world_type="flat", tick_record_cap=cap),
            )
            server.connect_player()
            server.run_ticks(30)
            return server.tick_records.retained()[-5:], engine.now_ms

        capped_tail, capped_end = run(5)
        uncapped_tail, uncapped_end = run(None)
        assert capped_tail == uncapped_tail
        assert capped_end == uncapped_end
