"""Tests for the event queue and the simulation engine."""

import pytest

from repro.sim.engine import SimulationEngine
from repro.sim.events import EventQueue


def test_events_fire_in_due_time_order():
    queue = EventQueue()
    fired = []
    queue.schedule(30.0, lambda: fired.append("c"))
    queue.schedule(10.0, lambda: fired.append("a"))
    queue.schedule(20.0, lambda: fired.append("b"))
    for event in queue.pop_due(100.0):
        event.callback()
    assert fired == ["a", "b", "c"]


def test_events_with_same_due_time_fire_in_insertion_order():
    queue = EventQueue()
    fired = []
    for label in ["first", "second", "third"]:
        queue.schedule(5.0, lambda label=label: fired.append(label))
    for event in queue.pop_due(5.0):
        event.callback()
    assert fired == ["first", "second", "third"]


def test_pop_due_only_returns_due_events():
    queue = EventQueue()
    queue.schedule(10.0, lambda: None, name="early")
    queue.schedule(50.0, lambda: None, name="late")
    due = list(queue.pop_due(20.0))
    assert [event.name for event in due] == ["early"]
    assert len(queue) == 1


def test_peek_due_ms_reports_earliest_pending():
    queue = EventQueue()
    assert queue.peek_due_ms() is None
    queue.schedule(40.0, lambda: None)
    queue.schedule(15.0, lambda: None)
    assert queue.peek_due_ms() == 15.0


def test_engine_advance_to_fires_events_at_their_due_time():
    engine = SimulationEngine(seed=0)
    seen_times = []
    engine.schedule_at(100.0, lambda: seen_times.append(engine.now_ms))
    engine.schedule_at(250.0, lambda: seen_times.append(engine.now_ms))
    engine.advance_to(300.0)
    assert seen_times == [100.0, 250.0]
    assert engine.now_ms == 300.0


def test_engine_schedule_in_uses_relative_delay():
    engine = SimulationEngine(seed=0)
    engine.advance_to(50.0)
    fired = []
    engine.schedule_in(25.0, lambda: fired.append(engine.now_ms))
    engine.advance_by(30.0)
    assert fired == [75.0]


def test_engine_rejects_scheduling_in_the_past():
    engine = SimulationEngine(seed=0)
    engine.advance_to(100.0)
    with pytest.raises(ValueError):
        engine.schedule_at(50.0, lambda: None)
    with pytest.raises(ValueError):
        engine.schedule_in(-1.0, lambda: None)


def test_engine_events_can_schedule_followups():
    engine = SimulationEngine(seed=0)
    fired = []

    def first():
        fired.append("first")
        engine.schedule_in(10.0, lambda: fired.append("second"))

    engine.schedule_at(5.0, first)
    engine.advance_to(20.0)
    assert fired == ["first", "second"]

