"""Execute a :class:`~repro.api.spec.RunSpec`: the one way runs happen.

``run_spec`` resolves the spec's names against the host and scenario
registries, builds a fresh :class:`~repro.sim.SimulationEngine` from the
spec's seed, runs the scenario against the host, checks the host's
invariants (:func:`repro.check.check`) and wraps the measurements in a
:class:`~repro.api.result.RunResult`.  Everything the examples, the CLI and
the tests run goes through here.
"""

from __future__ import annotations

import dataclasses
import os
import time
from typing import Union

from repro.api.hosts import build_host
from repro.api.result import RunResult
from repro.api.scenarios import build_scenario
from repro.api.spec import RunSpec
from repro.check import check
from repro.sim.engine import SimulationEngine


def run_spec(spec: Union[RunSpec, dict, str, os.PathLike]) -> RunResult:
    """Run one spec end to end and return its :class:`RunResult`.

    Accepts a :class:`RunSpec`, a plain dict (``RunSpec.from_dict`` is
    applied) or a path to a spec JSON file (``str`` or ``os.PathLike``).

    When the spec carries a ``telemetry`` section, a
    :class:`~repro.obs.telemetry.Telemetry` hub is installed on the engine
    before the host is built (so every subsystem's hooks see it), the hub is
    attached to the result, and any configured trace/metrics files are
    written after the run.  Without one, the engine keeps its null hub and
    the run is bit-identical to an uninstrumented one.

    Raises :class:`RuntimeError`, listing every violated invariant, when the
    host fails :func:`repro.check.check` at the end of the run.
    """
    if isinstance(spec, (str, os.PathLike)):
        spec = RunSpec.from_file(spec)
    elif isinstance(spec, dict):
        spec = RunSpec.from_dict(spec)

    engine = SimulationEngine(seed=spec.seed)
    telemetry_config = None
    if spec.telemetry is not None:
        from repro.obs.telemetry import TelemetryConfig, install_telemetry

        telemetry_config = TelemetryConfig.from_dict(spec.telemetry)
        install_telemetry(engine, telemetry_config)
    host = build_host(
        spec.host.game,
        engine,
        spec.host.build_game_config(),
        servo_config=spec.host.build_servo_config(),
        shards=spec.host.shards,
    )
    scenario = build_scenario(spec.workload.scenario, **spec.workload.params)
    overrides = {}
    if spec.duration_s is not None:
        overrides["duration_s"] = spec.duration_s
    if spec.warmup_s is not None:
        overrides["warmup_s"] = spec.warmup_s
    if spec.faults is not None:
        # A spec-level plan replaces the scenario's own; an explicit {} turns
        # the scenario's faults off (the empty plan installs nothing).
        overrides["faults"] = spec.faults
    if overrides:
        scenario = dataclasses.replace(scenario, **overrides)

    # Run-level wall timing: reported beside, never inside, the virtual results.
    started = time.perf_counter()
    scenario_result = scenario.run(host)
    wall_seconds = time.perf_counter() - started
    violations = check(host)
    if violations:
        raise RuntimeError("the run broke its host's invariants:\n" + "\n".join(violations))

    telemetry = engine.telemetry if engine.telemetry.enabled else None
    if telemetry_config is not None and telemetry is not None:
        if telemetry_config.trace_path is not None:
            from repro.obs.export import write_chrome_trace

            write_chrome_trace(telemetry_config.trace_path, telemetry, engine.metrics)
        if telemetry_config.metrics_path is not None:
            from repro.obs.export import write_prometheus

            write_prometheus(telemetry_config.metrics_path, engine.metrics)

    counters = {
        name: engine.metrics.counter(name) for name in engine.metrics.counter_names
    }
    return RunResult(
        spec=spec,
        scenario=scenario_result,
        host_name=host.name,
        end_virtual_ms=engine.now_ms,
        counters=counters,
        wall_seconds=wall_seconds,
        host=host,
        telemetry=telemetry,
    )
