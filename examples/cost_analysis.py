"""Cost analysis of Servo's serverless offloading.

Estimates the hourly cost of construct offloading for different simulation
lengths and function memory configurations, the trade-off the paper discusses
in Section IV-C (it compares the cost to one c5n.xlarge VM at $0.216/hour).
The table rendering comes from :mod:`repro.api`; the offload plumbing is
driven directly because this example prices invocations, not game runs.

Run with:  python examples/cost_analysis.py
"""

from repro.api import format_table
from repro.constructs.library import build_sized_construct
from repro.core.offload import SC_SIMULATION_FUNCTION, OffloadRequest, SimulationHandler
from repro.faas import AWS_LAMBDA, FaasPlatform, FunctionDefinition
from repro.sim import SimulationEngine
from repro.world.coords import BlockPos

C5N_XLARGE_USD_PER_HOUR = 0.216


def cost_per_hour(steps: int, memory_mb: int, constructs: int = 50,
                  game_time_minutes: float = 10.0) -> float:
    """Hourly cost of keeping ``constructs`` constructs offloaded."""
    engine = SimulationEngine(seed=1)
    platform = FaasPlatform(engine, provider=AWS_LAMBDA)
    platform.register(
        FunctionDefinition(
            name=SC_SIMULATION_FUNCTION, handler=SimulationHandler(), memory_mb=memory_mb
        )
    )
    construct = build_sized_construct(430, origin=BlockPos(0, 64, 0), looping=False)
    # One invocation covers `steps` ticks of 50 ms.
    game_time_ms = game_time_minutes * 60 * 1000.0
    invocations_per_construct = int(game_time_ms / (steps * 50.0))
    for index in range(invocations_per_construct):
        request = OffloadRequest.from_construct(construct, steps=steps, detect_loops=False)
        invocation = platform.invoke(SC_SIMULATION_FUNCTION, request)
        end_step = construct.step + steps
        construct.apply_row(invocation.result.sequence.row_at(end_step), end_step)
        engine.advance_by(steps * 50.0)
    single_construct_cost = platform.billing.total_cost_usd() * 3_600_000.0 / game_time_ms
    return single_construct_cost * constructs


def main(memory_configs_mb: tuple[int, ...] = (512, 1024, 1769),
         steps_options: tuple[int, ...] = (50, 100, 200),
         constructs: int = 50,
         game_time_minutes: float = 10.0) -> list[list[str]]:
    rows = []
    for memory_mb in memory_configs_mb:
        for steps in steps_options:
            cost = cost_per_hour(
                steps=steps, memory_mb=memory_mb,
                constructs=constructs, game_time_minutes=game_time_minutes,
            )
            rows.append(
                [
                    str(memory_mb),
                    str(steps),
                    f"${cost:.3f}",
                    f"{cost / C5N_XLARGE_USD_PER_HOUR:.1f}x",
                ]
            )
    print(f"Hourly cost of offloading {constructs} medium constructs "
          f"({game_time_minutes:g} minutes simulated):\n")
    print(format_table(
        ["function memory MB", "steps per invocation", "cost per hour", "vs one c5n.xlarge"], rows
    ))
    print("\nLonger simulations per invocation amortise the per-request overhead;")
    print("smaller memory configurations trade latency for cost.")
    return rows


if __name__ == "__main__":
    main()
