"""Benchmark: Table I — the experiment overview.

Renders the experiment overview table from the scenario registry and checks
that a representative Table I scenario is runnable end to end on both a
baseline server and Servo.
"""

from repro.core import build_servo_server
from repro.experiments.tab01_overview import format_tab01, run_tab01
from repro.server import GameConfig, make_opencraft
from repro.sim import SimulationEngine
from repro.workload.scenarios import TABLE_I_SCENARIOS


def _run_iv_b_scaled():
    """Run a scaled-down version of the Table I / Section IV-B scenario."""
    results = {}
    for game, factory in (("opencraft", make_opencraft), ("servo", build_servo_server)):
        engine = SimulationEngine(seed=7)
        server = factory(engine, GameConfig(world_type="flat"))
        scenario = TABLE_I_SCENARIOS["IV-B"]
        scaled = type(scenario)(
            name=scenario.name, players=20, behavior_code=scenario.behavior_code,
            constructs=25, duration_s=6.0,
        )
        results[game] = scaled.run(server)
    return results


def test_tab01_overview_and_representative_scenario(benchmark, report_sink):
    overview = run_tab01()
    report_sink.append(("Table I: experiment overview", format_tab01(overview)))
    assert len(overview.rows) == 6

    results = benchmark.pedantic(_run_iv_b_scaled, rounds=1, iterations=1)
    assert set(results) == {"opencraft", "servo"}
    for result in results.values():
        assert len(result.tick_durations_ms) > 100
        assert result.meets_qos()
