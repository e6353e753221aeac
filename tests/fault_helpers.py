"""Reading a run's fault timeline in the tests."""

from repro.faults.injector import FaultTimeline


def fault_count(timeline: FaultTimeline, kind_prefix: str = "") -> int:
    """How many recorded faults have a kind starting with ``kind_prefix``."""
    return sum(1 for event in timeline.events if event.kind.startswith(kind_prefix))


def fault_time_ms(timeline: FaultTimeline, kind: str) -> float:
    """When the one fault of ``kind`` was recorded."""
    (time_ms,) = [event.time_ms for event in timeline.events if event.kind == kind]
    return time_ms
