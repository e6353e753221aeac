"""Quickstart: run a Servo server with a small construct workload.

Declares the whole run as a :class:`repro.api.RunSpec` — host topology,
workload, seed and duration — executes it through :func:`repro.api.run_spec`
and prints the tick-duration statistics plus the serverless offloading
summary.  The same spec as JSON lives in ``examples/specs/servo_quick.json``
and runs via ``python -m repro run examples/specs/servo_quick.json``.

Run with:  python examples/quickstart.py
"""

from repro.api import RunResult, RunSpec, run_spec


def build_spec(players: int = 20, constructs: int = 25, duration_s: float = 30.0,
               warmup_s: float | None = None, seed: int = 7) -> RunSpec:
    spec = {
        "host": {
            "game": "servo",
            "game_config": {"world_type": "flat"},
            "servo_config": {"provider": "aws", "tick_lead": 20, "steps_per_invocation": 100},
        },
        "workload": {
            "scenario": "behaviour_a",
            "params": {"players": players, "constructs": constructs, "duration_s": duration_s},
        },
        "seed": seed,
    }
    if warmup_s is not None:
        spec["warmup_s"] = warmup_s
    return RunSpec.from_dict(spec)


def main(players: int = 20, constructs: int = 25, duration_s: float = 30.0,
         warmup_s: float | None = None) -> RunResult:
    result = run_spec(build_spec(players, constructs, duration_s, warmup_s))

    print(result.format_summary())

    server = result.host
    runtime = server.runtime
    efficiency = server.engine.metrics.histogram("speculation_efficiency")
    print("\nServerless offloading")
    print(f"  function invocations:      {len(runtime.billing.charges)}")
    print(f"  construct loops detected:  {result.counters.get('loops_detected', 0):.0f}")
    if len(efficiency):
        print(f"  median speculation efficiency: {efficiency.percentile(50):.2f}")
    cost_per_hour = runtime.billing.total_cost_usd() * 3_600_000.0 / result.end_virtual_ms
    print(f"  estimated cost per hour:   ${cost_per_hour:.3f}")
    return result


if __name__ == "__main__":
    main()
