"""Simulation engine: clock + event queue + random streams + metrics.

Each experiment creates one :class:`SimulationEngine`.  The game server, FaaS
platform and storage services all share the engine so that their virtual times
and random streams are consistent within a run and reproducible across runs.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.obs.telemetry import NULL_TELEMETRY
from repro.sim.clock import SimulationClock
from repro.sim.events import Event, EventQueue
from repro.sim.metrics import MetricRegistry
from repro.sim.rng import RandomStreams


class SimulationEngine:
    """Shared simulation context for one run."""

    def __init__(self, seed: int = 0) -> None:
        self.clock = SimulationClock()
        self.events = EventQueue()
        self.random = RandomStreams(seed=seed)
        self.metrics = MetricRegistry()
        #: the run's telemetry hub; the shared null object until a run opts in
        #: (see :func:`repro.obs.telemetry.install_telemetry`).  Hot paths gate
        #: on its ``enabled`` attribute — one check, no other overhead.
        self.telemetry = NULL_TELEMETRY

    @property
    def now_ms(self) -> float:
        return self.clock.now_ms

    def rng(self, name: str):
        """Shorthand for ``engine.random.stream(name)``."""
        return self.random.stream(name)

    def schedule_at(self, due_ms: float, callback: Callable[[], Any], name: str = "") -> Event:
        """Schedule a callback at an absolute virtual time."""
        if due_ms < self.clock.now_ms - 1e-9:
            raise ValueError(
                f"cannot schedule event {name!r} in the past "
                f"({due_ms!r} < {self.clock.now_ms!r})"
            )
        return self.events.schedule(due_ms, callback, name=name)

    def schedule_in(self, delay_ms: float, callback: Callable[[], Any], name: str = "") -> Event:
        """Schedule a callback ``delay_ms`` after the current virtual time."""
        if delay_ms < 0:
            raise ValueError(f"cannot schedule event {name!r} with negative delay")
        return self.events.schedule(self.clock.now_ms + delay_ms, callback, name=name)

    def advance_to(self, time_ms: float) -> None:
        """Advance the clock to ``time_ms``, firing every event due on the way.

        Events are fired at their own due time (the clock is moved to each
        event's due time before its callback runs), which lets callbacks
        schedule follow-up events relative to their firing time.
        """
        while True:
            next_due = self.events.peek_due_ms()
            if next_due is None or next_due > time_ms + 1e-9:
                break
            self.clock.advance_to(next_due)
            for event in self.events.pop_due(self.clock.now_ms):
                event.callback()
        self.clock.advance_to(time_ms)

    def advance_by(self, delta_ms: float) -> None:
        """Advance the clock by ``delta_ms``, firing due events."""
        self.advance_to(self.clock.now_ms + delta_ms)
