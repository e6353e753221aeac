"""Reading a telemetry hub's record in the tests: its spans, its instants, its digest."""

import hashlib
from typing import Optional

from repro.obs.telemetry import INSTANT_PHASE, SPAN_PHASE, Telemetry, TraceEvent


def _events(hub: Telemetry, phase: str, category: Optional[str]) -> list[TraceEvent]:
    return [
        event
        for event in hub.events
        if event.phase == phase and (category is None or event.category == category)
    ]


def spans(hub: Telemetry, category: Optional[str] = None) -> list[TraceEvent]:
    """Recorded spans, optionally filtered by category."""
    return _events(hub, SPAN_PHASE, category)


def instants(hub: Telemetry, category: Optional[str] = None) -> list[TraceEvent]:
    """Recorded instant events, optionally filtered by category."""
    return _events(hub, INSTANT_PHASE, category)


def virtual_digest(hub: Telemetry) -> str:
    """A stable hash of the hub's full virtual-time record.

    Wall-clock data lives only in the profiler, never in the events, so the
    digest is reproducible from the seed even for profiled runs.
    """
    hasher = hashlib.sha256()
    for event in hub.events:
        hasher.update(repr(event.to_dict()).encode("utf-8"))
        hasher.update(b";")
    return hasher.hexdigest()
