"""Streaming-metrics equivalence: numpy-buffered containers vs the old lists.

``Histogram`` and ``TimeSeries`` were rewritten on amortised-append numpy
buffers with memoised sorted views.  The public API and the numeric results
must match the original list-based implementation exactly; these tests
recompute the original formulas inline and compare bit for bit on fixed
inputs.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.sim.metrics import Histogram, TimeSeries, fraction_exceeding

#: a fixed, awkward sample set: duplicates, spikes, non-round floats
FIXED_SAMPLES = [
    12.25, 3.0, 3.0, 47.125, 0.5, 18.0, 18.0, 18.0, 2.875, 96.5,
    5.0, 33.333333333333336, 0.5, 41.0, 7.75, 12.25, 64.0, 1.0, 29.5, 8.125,
]


def reference_boxplot_dict(samples):
    values = np.asarray(list(samples), dtype=float)
    return {
        "min": float(values.min()),
        "p5": float(np.percentile(values, 5)),
        "p25": float(np.percentile(values, 25)),
        "median": float(np.percentile(values, 50)),
        "p75": float(np.percentile(values, 75)),
        "p95": float(np.percentile(values, 95)),
        "max": float(values.max()),
        "mean": float(values.mean()),
        "count": float(values.size),
    }


def test_histogram_boxplot_matches_pre_refactor_values_exactly():
    histogram = Histogram(name="tick")
    histogram.extend(FIXED_SAMPLES)
    assert histogram.boxplot().as_dict() == reference_boxplot_dict(FIXED_SAMPLES)


def test_histogram_percentile_and_summaries_match_reference():
    histogram = Histogram(name="tick")
    for value in FIXED_SAMPLES:
        histogram.record(value)
    reference = np.asarray(FIXED_SAMPLES, dtype=float)
    for q in (0.0, 1.0, 5.0, 37.5, 50.0, 99.0, 100.0):
        assert histogram.percentile(q) == float(np.percentile(reference, q))
    assert histogram.boxplot().mean == float(reference.mean())
    assert histogram.maximum() == float(reference.max())
    for threshold in (0.0, 0.5, 18.0, 96.5, 1000.0):
        expected = float(np.count_nonzero(reference > threshold)) / reference.size
        assert fraction_exceeding(histogram.samples, threshold) == expected


def test_histogram_memoised_queries_survive_interleaved_appends():
    histogram = Histogram(name="tick")
    histogram.extend(FIXED_SAMPLES[:10])
    first = histogram.percentile(95)
    assert first == float(np.percentile(np.asarray(FIXED_SAMPLES[:10]), 95))
    histogram.record(200.0)  # invalidates the memoised sorted view
    grown = FIXED_SAMPLES[:10] + [200.0]
    assert histogram.percentile(95) == float(np.percentile(np.asarray(grown), 95))
    assert histogram.samples == grown
    assert list(histogram) == grown
    assert len(histogram) == len(grown)


def test_histogram_buffer_growth_preserves_insertion_order():
    histogram = Histogram(name="big")
    values = [float(i % 97) * 1.5 for i in range(10_000)]
    for value in values:
        histogram.record(value)
    assert histogram.samples == values
    assert histogram.boxplot().mean == float(np.asarray(values).mean())


def test_time_series_rejects_an_earlier_timestamp():
    series = TimeSeries(name="tick")
    series.record(100.0, 1.0)
    series.record(100.0, 2.0)  # an equal timestamp is fine
    with pytest.raises(ValueError, match="earlier"):
        series.record(50.0, 3.0)
    assert series._times.view().tolist() == [100.0, 100.0]
    assert series.values == [1.0, 2.0]


@given(
    st.lists(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        min_size=1,
        max_size=300,
    )
)
def test_histogram_summaries_match_reference_for_any_samples(samples):
    histogram = Histogram(name="any")
    histogram.extend(samples)
    reference = np.asarray(samples, dtype=float)
    assert histogram.boxplot().as_dict() == reference_boxplot_dict(samples)
    assert histogram.percentile(50) == float(np.percentile(reference, 50))


def test_histogram_and_series_raise_on_empty_queries():
    histogram = Histogram(name="empty")
    with pytest.raises(ValueError):
        histogram.percentile(50)
    with pytest.raises(ValueError):
        histogram.boxplot()
    with pytest.raises(ValueError):
        fraction_exceeding(histogram.samples, 1.0)
