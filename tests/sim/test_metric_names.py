"""metric_name/split_metric_name helpers and the MetricRegistry snapshot."""

from __future__ import annotations

import pytest

from repro.sim.metrics import MetricRegistry, metric_name, split_metric_name


class TestMetricName:
    def test_bare_and_sharded(self):
        assert metric_name("tick_duration_ms") == "tick_duration_ms"
        assert (
            metric_name("tick_duration_ms", shard="servo-shard-0")
            == "tick_duration_ms:servo-shard-0"
        )

    @pytest.mark.parametrize(
        "base, shard",
        [("tick_duration_ms", None), ("tick_duration_ms", "servo-shard-3"), ("m", "s")],
    )
    def test_split_inverts(self, base, shard):
        assert split_metric_name(metric_name(base, shard=shard)) == (base, shard)

    def test_split_of_bare_name(self):
        assert split_metric_name("migrations") == ("migrations", None)


class TestRegistrySnapshot:
    def test_pinned_snapshot(self):
        registry = MetricRegistry()
        registry.increment("migrations", 2)
        registry.increment("faas_failures")
        for value in (1.0, 2.0, 3.0, 4.0):
            registry.histogram("migration_ms").record(value)
        registry.histogram("empty_h")
        registry.series("players").record(0.0, 1.0)
        registry.series("players").record(100.0, 3.0)
        registry.series("empty_s")
        assert registry.to_dict() == {
            "counters": {"faas_failures": 1.0, "migrations": 2.0},
            "histograms": {
                "empty_h": {"count": 0.0},
                "migration_ms": {
                    "min": 1.0,
                    "p5": 1.15,
                    "p25": 1.75,
                    "median": 2.5,
                    "p75": 3.25,
                    "p95": 3.8499999999999996,
                    "max": 4.0,
                    "mean": 2.5,
                    "count": 4.0,
                },
            },
            "series": {
                "empty_s": {"count": 0.0},
                "players": {
                    "count": 2.0,
                    "start_ms": 0.0,
                    "end_ms": 100.0,
                    "mean": 2.0,
                    "last": 3.0,
                },
            },
        }

    def test_snapshot_keys_are_sorted(self):
        registry = MetricRegistry()
        registry.increment("b")
        registry.increment("a")
        snapshot = registry.to_dict()
        assert list(snapshot["counters"]) == ["a", "b"]

    def test_empty_registry(self):
        assert MetricRegistry().to_dict() == {
            "counters": {},
            "histograms": {},
            "series": {},
        }
