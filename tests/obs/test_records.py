"""Tick records: one plain list per host, record ``i`` is tick ``i``."""

from __future__ import annotations

import pytest

from repro.server import GameConfig, make_opencraft
from repro.sim.metrics import fraction_exceeding


@pytest.fixture
def server(engine):
    return make_opencraft(engine, GameConfig(world_type="flat"))


class TestUncapped:
    def test_behaves_like_the_list_it_replaces(self, server):
        server.connect_player()
        returned = server.run_ticks(5)
        assert type(server.tick_records) is list
        assert server.tick_records == returned
        assert [record.index for record in server.tick_records] == list(range(5))
        # Scenarios and the benchmark slice from the first measured tick.
        assert [record.index for record in server.tick_records[3:]] == [3, 4]

    def test_empty(self, server):
        assert server.tick_records == []
        with pytest.raises(ValueError, match="empty"):
            fraction_exceeding([record.duration_ms for record in server.tick_records], 50.0)

    def test_over_budget_exact_for_any_budget(self, server):
        for _ in range(20):
            server.connect_player()
        server.run_ticks(12)
        durations = [record.duration_ms for record in server.tick_records]
        for budget in (0.0, min(durations), 50.0, max(durations)):
            over = sum(1 for record in server.tick_records if record.duration_ms > budget)
            assert fraction_exceeding(durations, budget) == over / 12


class TestGameServerIntegration:
    def test_config_knob_validates(self):
        # Every run keeps every record; there is no retention knob to set.
        with pytest.raises(TypeError, match="tick_record_cap"):
            GameConfig(tick_record_cap=100)
