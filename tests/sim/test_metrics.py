"""Tests for metric containers and summary statistics."""

import pytest
from hypothesis import given, strategies as st

from repro.server import TickRecord
from repro.sim.metrics import (
    TICK_SERIES,
    Histogram,
    MetricRegistry,
    boxplot_stats,
    fraction_exceeding,
    inverse_cdf,
    metric_name,
    percentile,
)


def test_percentile_basic_values():
    samples = list(range(1, 101))
    assert percentile(samples, 0) == 1
    assert percentile(samples, 100) == 100
    assert percentile(samples, 50) == pytest.approx(50.5)


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_boxplot_stats_fields_are_ordered():
    stats = boxplot_stats([5.0, 1.0, 3.0, 2.0, 4.0])
    assert stats.minimum <= stats.p5 <= stats.p25 <= stats.median
    assert stats.median <= stats.p75 <= stats.p95 <= stats.maximum
    assert stats.count == 5
    assert stats.mean == pytest.approx(3.0)


def test_boxplot_stats_as_dict_round_trip():
    stats = boxplot_stats([1.0, 2.0, 3.0])
    as_dict = stats.as_dict()
    assert as_dict["median"] == stats.median
    assert as_dict["count"] == 3


def test_inverse_cdf_fractions_decrease_with_threshold():
    samples = [1.0, 2.0, 5.0, 10.0, 100.0]
    points = inverse_cdf(samples, [0.0, 2.0, 50.0, 1000.0])
    fractions = [fraction for _, fraction in points]
    assert fractions[0] == 1.0
    assert fractions == sorted(fractions, reverse=True)
    assert fractions[-1] == 0.0


def test_fraction_exceeding_counts_strictly_greater():
    assert fraction_exceeding([10.0, 50.0, 60.0, 70.0], 50.0) == pytest.approx(0.5)


def test_histogram_records_and_summarises():
    histogram = Histogram(name="tick")
    histogram.extend([10.0, 20.0, 30.0])
    histogram.record(40.0)
    assert len(histogram) == 4
    assert histogram.mean() == pytest.approx(25.0)
    assert histogram.maximum() == 40.0
    assert histogram.fraction_exceeding(25.0) == pytest.approx(0.5)


def test_histogram_empty_raises_on_summary():
    histogram = Histogram(name="empty")
    with pytest.raises(ValueError):
        histogram.mean()


def test_metric_registry_creates_and_reuses_metrics():
    registry = MetricRegistry()
    assert registry.histogram("a") is registry.histogram("a")
    assert registry.series("b") is registry.series("b")
    registry.increment("count", 2.0)
    registry.increment("count")
    assert registry.counter("count") == 3.0
    assert registry.counter("missing") == 0.0
    assert registry.histogram_names == ["a"]
    assert registry.series_names == ["b"]
    assert registry.counter_names == ["count"]


def logged_tick(index: int, duration_ms: float, shard: str | None = None) -> TickRecord:
    return TickRecord(
        index=index,
        start_ms=50.0 * index,
        duration_ms=duration_ms,
        players=index + 1,
        constructs=0,
        chunks_integrated=0,
        view_range_blocks=128.0,
        shard=shard,
    )


def test_tick_views_exist_once_a_tick_is_logged():
    registry = MetricRegistry()
    assert len(registry.histogram("tick_duration_ms")) == 0
    assert len(registry.series("players_over_time")) == 0
    # Asking for a view before any tick creates no metric.
    assert registry.histogram_names == [] and registry.series_names == []
    registry.tick_log.append(logged_tick(0, 12.0))
    assert registry.histogram_names == ["tick_duration_ms"]
    assert registry.series_names == sorted(TICK_SERIES)


def test_tick_views_project_the_log_in_order_and_per_shard():
    registry = MetricRegistry()
    registry.tick_log += [logged_tick(0, 10.0, "a"), logged_tick(0, 20.0, "b")]
    registry.tick_log.append(logged_tick(1, 30.0, "a"))
    assert registry.histogram_names == [
        "tick_duration_ms", "tick_duration_ms:a", "tick_duration_ms:b",
    ]
    assert registry.histogram("tick_duration_ms").samples == [10.0, 20.0, 30.0]
    assert registry.histogram(metric_name("tick_duration_ms", "a")).samples == [10.0, 30.0]
    players = registry.series("players_over_time")
    assert players.times_ms == [0.0, 0.0, 50.0]
    assert players.values == [1.0, 1.0, 2.0]
    assert registry.series("view_range_over_time").values == [128.0] * 3


def test_tick_views_are_read_only():
    registry = MetricRegistry()
    registry.tick_log.append(logged_tick(0, 12.0, "a"))
    with pytest.raises(TypeError, match="tick log"):
        registry.histogram("tick_duration_ms").record(1.0)
    with pytest.raises(TypeError, match="tick log"):
        registry.histogram("tick_duration_ms:a").extend([1.0])
    with pytest.raises(TypeError, match="tick log"):
        registry.series("tick_duration_over_time").record(100.0, 1.0)
    assert registry.histogram("tick_duration_ms").samples == [12.0]


@given(st.lists(st.floats(min_value=0.0, max_value=1e6, allow_nan=False), min_size=1, max_size=200))
def test_boxplot_stats_bounds_hold_for_any_sample(samples):
    stats = boxplot_stats(samples)
    tolerance = 1e-9 * max(1.0, abs(stats.maximum))
    assert stats.minimum <= stats.median <= stats.maximum
    assert stats.minimum - tolerance <= stats.mean <= stats.maximum + tolerance
    assert stats.count == len(samples)


@given(
    st.lists(st.floats(min_value=0.0, max_value=1e4, allow_nan=False), min_size=1, max_size=100),
    st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
)
def test_fraction_exceeding_is_a_probability(samples, threshold):
    fraction = fraction_exceeding(samples, threshold)
    assert 0.0 <= fraction <= 1.0
