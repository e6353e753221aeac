"""Discrete-event simulation substrate.

Everything in the reproduction runs on *virtual* time.  The substrate provides:

* :class:`~repro.sim.clock.SimulationClock` — a monotonically advancing
  millisecond clock.
* :class:`~repro.sim.events.EventQueue` — a priority queue of timed callbacks.
* :class:`~repro.sim.engine.SimulationEngine` — clock + queue + RNG streams.
* :mod:`repro.sim.rng` — named, reproducible random streams.
* :mod:`repro.sim.latency` — latency distribution models (constant,
  lognormal, mixture).
* :mod:`repro.sim.metrics` — histograms, time series, percentile/boxplot/ICDF
  helpers used by every experiment.
"""

from repro.sim.clock import SimulationClock
from repro.sim.engine import SimulationEngine
from repro.sim.events import Event, EventQueue
from repro.sim.latency import LatencyModel, LogNormalLatency
from repro.sim.metrics import (
    Histogram,
    MetricRegistry,
    TimeSeries,
    boxplot_stats,
    percentile,
)
from repro.sim.rng import RandomStreams

__all__ = [
    "SimulationClock",
    "SimulationEngine",
    "Event",
    "EventQueue",
    "LatencyModel",
    "LogNormalLatency",
    "Histogram",
    "TimeSeries",
    "MetricRegistry",
    "percentile",
    "boxplot_stats",
    "RandomStreams",
]
