"""Metric collection and summary statistics.

The experiments report tick-duration distributions, latency percentiles,
boxplot statistics and inverse CDFs.  This module provides small containers
for collecting samples during a simulation and the summary functions used
when rendering paper-style tables.

Collection is built on amortised-append numpy buffers rather than Python
lists: a cluster run records hundreds of thousands of samples across a dozen
histograms and series, and :class:`Histogram` memoises a sorted view for
repeated percentile queries.  Every summary is bit-identical to the original
list-based implementation.

A tick is written once.  Each server tick appends its record to the
registry's :attr:`MetricRegistry.tick_log`, and the tick metrics are
read-only views of that log, computed when asked for: the
``tick_duration_ms`` histogram (with a ``tick_duration_ms:<shard>`` variant
per cluster shard) and the :data:`TICK_SERIES`.  A view appears once a tick
has run, and recording into one raises.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

#: per-tick maximum staleness (ticks) observed across that tick's interest
#: flushes — the dyconit consistency-error metric; its maximum over a run
#: proves the configured staleness budget held
CONSISTENCY_ERROR_HISTOGRAM = "consistency_error_ticks"
#: the same per-tick maximum as a (virtual time, value) series
CONSISTENCY_ERROR_SERIES = "consistency_error_over_time"
#: the tick durations, a view of the tick log (also per shard, via metric_name)
TICK_DURATION_HISTOGRAM = "tick_duration_ms"
#: the (tick start, value) series that are views of the tick log, each mapped
#: to the tick-record field it projects
TICK_SERIES = {
    "tick_duration_over_time": "duration_ms",
    "view_range_over_time": "view_range_blocks",
    "players_over_time": "players",
}


def metric_name(base: str, shard: str | None = None) -> str:
    """The canonical name of a metric, optionally scoped to one shard.

    Cluster shards share one :class:`MetricRegistry`; per-shard views of a
    metric live under ``base:shard`` (e.g. ``tick_duration_ms:servo-shard-0``)
    while cluster-wide metrics use the bare ``base``.  Every producer and
    consumer goes through this helper (and :func:`split_metric_name`) instead
    of formatting the suffix ad hoc.
    """
    if shard is None:
        return base
    return f"{base}:{shard}"


def split_metric_name(name: str) -> tuple[str, str | None]:
    """Invert :func:`metric_name`: ``(base, shard-or-None)``."""
    base, separator, shard = name.partition(":")
    return (base, shard) if separator else (name, None)


def _as_float_array(samples: Iterable[float]) -> np.ndarray:
    """Materialise samples as float64, zero-copy for an existing float array."""
    if isinstance(samples, np.ndarray):
        return np.asarray(samples, dtype=float)
    return np.asarray(list(samples), dtype=float)


def percentile(samples: Iterable[float], q: float) -> float:
    """Return the ``q``-th percentile (0-100) of ``samples``.

    Raises ``ValueError`` for empty input so callers cannot silently report a
    statistic over nothing.
    """
    values = _as_float_array(samples)
    if values.size == 0:
        raise ValueError("cannot compute a percentile of an empty sample set")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q!r}")
    return float(np.percentile(values, q))


@dataclass(frozen=True)
class BoxplotStats:
    """The five summary values the paper's boxplots report, plus the mean/max."""

    minimum: float
    p5: float
    p25: float
    median: float
    p75: float
    p95: float
    maximum: float
    mean: float
    count: int

    def as_dict(self) -> dict[str, float]:
        return {
            "min": self.minimum,
            "p5": self.p5,
            "p25": self.p25,
            "median": self.median,
            "p75": self.p75,
            "p95": self.p95,
            "max": self.maximum,
            "mean": self.mean,
            "count": float(self.count),
        }


def boxplot_stats(samples: Iterable[float]) -> BoxplotStats:
    """Compute the boxplot summary used throughout the paper's figures."""
    values = _as_float_array(samples)
    if values.size == 0:
        raise ValueError("cannot compute boxplot statistics of an empty sample set")
    return BoxplotStats(
        minimum=float(values.min()),
        p5=float(np.percentile(values, 5)),
        p25=float(np.percentile(values, 25)),
        median=float(np.percentile(values, 50)),
        p75=float(np.percentile(values, 75)),
        p95=float(np.percentile(values, 95)),
        maximum=float(values.max()),
        mean=float(values.mean()),
        count=int(values.size),
    )


def inverse_cdf(samples: Iterable[float], latencies_ms: Iterable[float]) -> list[tuple[float, float]]:
    """Return (latency, fraction of samples >= latency) pairs.

    This is the inverse cumulative distribution the paper plots in Figure 13:
    for each latency threshold, the fraction of operations at or above it.
    The sorted input allows a single ``searchsorted`` per threshold instead
    of a full comparison scan.
    """
    values = np.sort(_as_float_array(samples))
    if values.size == 0:
        raise ValueError("cannot compute an inverse CDF of an empty sample set")
    points: list[tuple[float, float]] = []
    size = values.size
    for threshold in latencies_ms:
        # Count of samples >= threshold == size - first index at/above it.
        above = float(size - np.searchsorted(values, threshold, side="left")) / size
        points.append((float(threshold), above))
    return points


def fraction_exceeding(samples: Iterable[float], threshold: float) -> float:
    """Fraction of samples strictly greater than ``threshold``.

    The paper's definition of "supported players" uses the fraction of tick
    durations exceeding the 50 ms budget.
    """
    values = _as_float_array(samples)
    if values.size == 0:
        raise ValueError("cannot compute exceedance of an empty sample set")
    return float(np.count_nonzero(values > threshold)) / values.size


class _FloatBuffer:
    """An amortised-append float64 buffer with a memoised sorted view."""

    __slots__ = ("_data", "_size", "_sorted")

    def __init__(self, capacity: int = 64) -> None:
        self._data = np.empty(max(1, int(capacity)), dtype=np.float64)
        self._size = 0
        self._sorted: np.ndarray | None = None

    def __len__(self) -> int:
        return self._size

    def _reserve(self, extra: int) -> None:
        needed = self._size + extra
        capacity = len(self._data)
        if needed <= capacity:
            return
        while capacity < needed:
            capacity *= 2
        grown = np.empty(capacity, dtype=np.float64)
        grown[: self._size] = self._data[: self._size]
        self._data = grown

    def append(self, value: float) -> None:
        if self._size == len(self._data):
            self._reserve(1)
        self._data[self._size] = value
        self._size += 1
        self._sorted = None

    def extend(self, values: Iterable[float]) -> None:
        array = np.asarray(
            values if isinstance(values, np.ndarray) else list(values), dtype=np.float64
        )
        if array.size == 0:
            return
        self._reserve(array.size)
        self._data[self._size : self._size + array.size] = array
        self._size += array.size
        self._sorted = None

    def view(self) -> np.ndarray:
        """The recorded samples, in insertion order (a zero-copy view)."""
        return self._data[: self._size]

    def sorted_view(self) -> np.ndarray:
        """An ascending view, cached until the next append."""
        if self._sorted is None:
            self._sorted = np.sort(self._data[: self._size])
        return self._sorted


class _TickLogView(_FloatBuffer):
    """A full buffer over values projected from the tick log; it takes no appends."""

    __slots__ = ()

    def __init__(self, values: list[float]) -> None:
        self._data = np.array(values, dtype=np.float64)
        self._size = self._data.size
        self._sorted = None

    def append(self, value: float) -> None:
        raise TypeError("a tick metric is a view of the tick log; record the tick instead")

    extend = append


@dataclass
class Histogram:
    """An append-only collection of scalar samples with summary helpers."""

    name: str = ""
    _samples: _FloatBuffer = field(default_factory=_FloatBuffer)

    def record(self, value: float) -> None:
        self._samples.append(float(value))

    def extend(self, values: Iterable[float]) -> None:
        self._samples.extend(values)

    @property
    def samples(self) -> list[float]:
        return self._samples.view().tolist()

    def __len__(self) -> int:
        return len(self._samples)

    def __iter__(self) -> Iterator[float]:
        return iter(self._samples.view().tolist())

    def percentile(self, q: float) -> float:
        # The memoised sorted view makes repeated quantile queries cheap;
        # np.percentile returns identical values for sorted and raw input.
        return percentile(self._samples.sorted_view(), q)

    def mean(self) -> float:
        if len(self._samples) == 0:
            raise ValueError(f"histogram {self.name!r} is empty")
        return float(self._samples.view().mean())

    def maximum(self) -> float:
        if len(self._samples) == 0:
            raise ValueError(f"histogram {self.name!r} is empty")
        return float(self._samples.view().max())

    def boxplot(self) -> BoxplotStats:
        # Insertion-order view: the mean must see samples in recording order
        # (numpy's pairwise sum is order-sensitive) to stay bit-identical to
        # the list-based implementation.
        return boxplot_stats(self._samples.view())

    def fraction_exceeding(self, threshold: float) -> float:
        return fraction_exceeding(self._samples.view(), threshold)


@dataclass
class TimeSeries:
    """Timestamped samples, e.g. the consistency error over time.

    Timestamps must be recorded in non-decreasing order (virtual time never
    runs backwards); :meth:`record` rejects an earlier timestamp.
    """

    name: str = ""
    _times: _FloatBuffer = field(default_factory=_FloatBuffer)
    _values: _FloatBuffer = field(default_factory=_FloatBuffer)
    _last_time_ms: float = float("-inf")

    def record(self, time_ms: float, value: float) -> None:
        time_ms = float(time_ms)
        if time_ms < self._last_time_ms:
            raise ValueError(
                f"series {self.name!r}: timestamp {time_ms!r} ms is earlier than "
                f"the last recorded {self._last_time_ms!r} ms"
            )
        self._last_time_ms = time_ms
        self._times.append(time_ms)
        self._values.append(float(value))

    def __len__(self) -> int:
        return len(self._values)

    @property
    def times_ms(self) -> list[float]:
        return self._times.view().tolist()

    @property
    def values(self) -> list[float]:
        return self._values.view().tolist()


class MetricRegistry:
    """Named histograms, time series and counters for one simulation run, and its tick log."""

    def __init__(self) -> None:
        self._histograms: dict[str, Histogram] = {}
        self._series: dict[str, TimeSeries] = {}
        self._counters: dict[str, float] = {}
        #: every server tick's record (a ``TickRecord``), appended once in the
        #: order ticks ran: in a cluster round-major, then in shard order, a
        #: killed shard's ticks included
        self.tick_log: list = []

    def _tick_values(self, field_name: str, shard: str | None = None) -> _TickLogView:
        """One field of every logged tick (of ``shard``'s ticks, when given)."""
        return _TickLogView([
            getattr(record, field_name)
            for record in self.tick_log
            if shard is None or record.shard == shard
        ])

    def histogram(self, name: str) -> Histogram:
        if name not in self._histograms:
            base, shard = split_metric_name(name)
            if base == TICK_DURATION_HISTOGRAM:
                return Histogram(name, self._tick_values("duration_ms", shard))
            self._histograms[name] = Histogram(name=name)
        return self._histograms[name]

    def series(self, name: str) -> TimeSeries:
        if name not in self._series:
            if name in TICK_SERIES:
                return TimeSeries(
                    name, self._tick_values("start_ms"), self._tick_values(TICK_SERIES[name])
                )
            self._series[name] = TimeSeries(name=name)
        return self._series[name]

    def increment(self, name: str, amount: float = 1.0) -> float:
        self._counters[name] = self._counters.get(name, 0.0) + float(amount)
        return self._counters[name]

    def counter(self, name: str) -> float:
        return self._counters.get(name, 0.0)

    @property
    def histogram_names(self) -> list[str]:
        names = set(self._histograms)
        if self.tick_log:
            names.add(TICK_DURATION_HISTOGRAM)
            names.update(
                metric_name(TICK_DURATION_HISTOGRAM, record.shard)
                for record in self.tick_log
                if record.shard is not None
            )
        return sorted(names)

    @property
    def series_names(self) -> list[str]:
        return sorted(self._series.keys() | (TICK_SERIES.keys() if self.tick_log else set()))

    @property
    def counter_names(self) -> list[str]:
        return sorted(self._counters)

    def to_dict(self) -> dict[str, dict]:
        """A deterministic, JSON-serializable snapshot of every metric.

        Keys are sorted and every value is a virtual-time statistic, so the
        snapshot — like everything else derived from a run's metrics — is a
        pure function of the seed.  Histograms summarize as their boxplot
        stats (``{"count": 0.0}`` when empty), series as count/time-range/
        mean/last.
        """
        histograms: dict[str, dict[str, float]] = {}
        for name in self.histogram_names:
            histogram = self.histogram(name)
            if len(histogram) == 0:
                histograms[name] = {"count": 0.0}
            else:
                histograms[name] = histogram.boxplot().as_dict()
        series: dict[str, dict[str, float]] = {}
        for name in self.series_names:
            entry = self.series(name)
            if len(entry) == 0:
                series[name] = {"count": 0.0}
            else:
                values = entry._values.view()
                series[name] = {
                    "count": float(len(entry)),
                    "start_ms": float(entry._times.view()[0]),
                    "end_ms": float(entry._times.view()[-1]),
                    "mean": float(values.mean()),
                    "last": float(values[-1]),
                }
        return {
            "counters": {name: self._counters[name] for name in self.counter_names},
            "histograms": histograms,
            "series": series,
        }
