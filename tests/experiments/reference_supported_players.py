"""Executable spec of Figure 12's supported-player reading, as it first shipped.

Every 2.5 s window is collected by scanning all later samples and keeping
those inside it, so one reading is quadratic in the run's tick count.
``test_supported_players.py`` requires the production function, which slices
each window out of the sorted times, to return the same count.
"""

from repro.workload.scenarios import TICK_BUDGET_MS


def supported_players_from_series(
    times_ms: list[float],
    durations_ms: list[float],
    players_ms: list[float],
    players_values: list[float],
    window_ms: float = 2500.0,
    budget_ms: float = TICK_BUDGET_MS,
) -> int:
    if not times_ms:
        raise ValueError("empty tick-duration series")
    start = times_ms[0]
    end = times_ms[-1]
    t = start
    crossing_time = None
    index = 0
    while t <= end:
        window = [
            durations_ms[i]
            for i in range(index, len(times_ms))
            if t <= times_ms[i] < t + window_ms
        ]
        while index < len(times_ms) and times_ms[index] < t:
            index += 1
        if window:
            window.sort()
            p95 = window[int(0.95 * (len(window) - 1))]
            if p95 > budget_ms:
                crossing_time = t
                break
        t += window_ms
    if crossing_time is None:
        return int(max(players_values)) if players_values else 0
    connected = [
        value for time, value in zip(players_ms, players_values) if time <= crossing_time
    ]
    supported = int(connected[-1]) - 1 if connected else 0
    return max(0, supported)
