"""Virtual simulation clock.

All latencies, tick durations and storage delays in the reproduction are
expressed in *virtual milliseconds*.  The clock only moves forward when the
simulation explicitly advances it, which makes every experiment deterministic
and independent of the host machine's speed.
"""

from __future__ import annotations


class ClockError(RuntimeError):
    """Raised when the clock would be moved backwards."""


class SimulationClock:
    """A monotonically advancing millisecond clock.

    The clock starts at 0.  :meth:`advance_to` moves it to an absolute time
    and refuses to move it backwards.
    """

    def __init__(self) -> None:
        self._now_ms = 0.0

    @property
    def now_ms(self) -> float:
        """Current virtual time in milliseconds."""
        return self._now_ms

    def advance_to(self, time_ms: float) -> float:
        """Advance the clock to the absolute time ``time_ms``.

        Advancing to the current time is a no-op; advancing to an earlier time
        raises :class:`ClockError`.
        """
        if time_ms < self._now_ms - 1e-9:
            raise ClockError(
                f"cannot move clock backwards from {self._now_ms!r} to {time_ms!r}"
            )
        self._now_ms = max(self._now_ms, float(time_ms))
        return self._now_ms

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimulationClock(now_ms={self._now_ms:.3f})"
