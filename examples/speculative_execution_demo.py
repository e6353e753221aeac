"""Anatomy of Servo's speculative execution for one construct.

Registers a single aperiodic construct (a hopper farm, whose state never
loops) and a periodic clock circuit with the speculative backend, runs a few
hundred ticks and shows:

* how the server falls back to local simulation until the first reply arrives,
* how speculative states are merged afterwards,
* how loop detection collapses the periodic construct to a single invocation,
* how a player edit invalidates in-flight speculation via the logical timestamp.

This example drives the backend below the :mod:`repro.api` run layer on
purpose — it dissects one service rather than running a scenario.  (For the
spec-driven equivalent of a full Servo run, see ``examples/quickstart.py``.)

Run with:  python examples/speculative_execution_demo.py
"""

from repro.constructs.library import build_clock, build_counter_farm
from repro.core import ServoConfig
from repro.core.offload import SC_SIMULATION_FUNCTION, SimulationHandler
from repro.core.servo import SIMULATION_FUNCTION_MEMORY_MB
from repro.core.speculative import SpeculativeConstructBackend
from repro.faas import AWS_LAMBDA, FaasPlatform, FunctionDefinition
from repro.sim import SimulationEngine


def run_ticks(engine, backend, count, start_tick=0):
    for tick in range(start_tick, start_tick + count):
        backend.tick(tick)
        engine.advance_by(50.0)


def main(ticks: int = 400, post_edit_ticks: int = 100) -> SpeculativeConstructBackend:
    engine = SimulationEngine(seed=3)
    platform = FaasPlatform(engine, provider=AWS_LAMBDA)
    platform.register(
        FunctionDefinition(
            name=SC_SIMULATION_FUNCTION,
            handler=SimulationHandler(),
            memory_mb=SIMULATION_FUNCTION_MEMORY_MB,
        )
    )
    backend = SpeculativeConstructBackend(
        engine, platform, ServoConfig(tick_lead=20, steps_per_invocation=100)
    )

    farm = build_counter_farm(hoppers=4)          # aperiodic: must be re-invoked
    clock = build_clock(period=8, lamps=2)        # periodic: one invocation suffices
    backend.register_construct(farm)
    backend.register_construct(clock)

    run_ticks(engine, backend, ticks)

    farm_record = backend.record_for(farm.construct_id)
    clock_record = backend.record_for(clock.construct_id)
    print(f"After {ticks} ticks ({ticks * 50 / 1000:g} virtual seconds):")
    print(f"  farm   : merged={farm_record.merged_steps:4d} fallback={farm_record.fallback_steps:3d} "
          f"invocations={farm_record.invocations_issued}")
    print(f"  clock  : merged={clock_record.merged_steps:4d} fallback={clock_record.fallback_steps:3d} "
          f"invocations={clock_record.invocations_issued} (loop detected -> no re-invocation)")
    efficiency = backend.metrics.histogram("speculation_efficiency").samples
    print(f"  speculation efficiency samples: {[round(sample, 2) for sample in efficiency[:6]]} ...")

    # A player toggles a block next to the farm: the logical timestamp advances
    # and the buffered speculative states are discarded.
    backend.on_player_modify(farm.construct_id, farm.positions[0])
    print("\nPlayer modified the farm: buffered speculation invalidated "
          f"(counter={farm.modification_counter}).")
    run_ticks(engine, backend, post_edit_ticks, start_tick=ticks)
    print(f"  farm keeps advancing one step per tick: step={farm.step} "
          f"after {ticks + post_edit_ticks} ticks total")
    print(f"  stale replies discarded so far: {engine.metrics.counter('speculation_discarded'):.0f}")
    return backend


if __name__ == "__main__":
    main()
