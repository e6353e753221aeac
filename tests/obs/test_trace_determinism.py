"""End-to-end trace determinism and disabled-telemetry bit-identity.

The ISSUE's acceptance gates, as tests:

* two runs with the same seed produce **byte-identical** virtual-time traces
  (after stripping the wall-clock-only ``wallProfile`` section);
* telemetry off (absent or ``enabled: false``) produces bit-identical virtual
  results to telemetry on — recording is observation, never perturbation.
"""

from __future__ import annotations

import json

import pytest

from repro.api import RunSpec, run_spec
from repro.obs.export import chrome_trace, strip_wall_clock, trace_json
from repro.obs.report import trace_breakdown, validate_chrome_trace

from telemetry_helpers import virtual_digest

#: small Servo cluster exercising every span category: ticks/rounds from the
#: loop, migrations from the coordinator, faas+fault spans from construct
#: offload under an injected failure rate.  Seed, population and length are
#: chosen so the wandering players do cross the shard split (16 migrations)
#: and the failure rate does fire; smaller runs emit no migration span.
CLUSTER_SPEC = {
    "host": {
        "game": "servo-cluster",
        "shards": 2,
        "game_config": {"world_type": "flat"},
    },
    "workload": {"scenario": "behaviour_a", "params": {"players": 12, "constructs": 6}},
    "faults": {"faas": {"failure_rate": 0.3}},
    "seed": 7,
    "duration_s": 6.0,
    "warmup_s": 1.0,
    "telemetry": {"enabled": True},
}


def traced_run(extra: dict | None = None):
    data = dict(CLUSTER_SPEC)
    if extra:
        data["telemetry"] = {**data["telemetry"], **extra}
    return run_spec(RunSpec.from_dict(data))


class TestSameSeedTraces:
    def test_byte_identical_virtual_time_trace(self):
        first = traced_run()
        second = traced_run()
        assert first.telemetry is not None and len(first.telemetry) > 0
        assert trace_json(first.telemetry) == trace_json(second.telemetry)
        assert virtual_digest(first.telemetry) == virtual_digest(second.telemetry)

    def test_profiling_never_leaks_into_the_stripped_trace(self):
        plain = traced_run()
        profiled = traced_run({"profile": True})
        assert profiled.telemetry.profiler is not None
        traced = chrome_trace(profiled.telemetry)
        assert "wallProfile" in traced
        assert strip_wall_clock(traced) == strip_wall_clock(
            chrome_trace(plain.telemetry)
        )
        assert virtual_digest(plain.telemetry) == virtual_digest(profiled.telemetry)

    def test_trace_covers_the_expected_categories(self):
        result = traced_run()
        categories = {event.category for event in result.telemetry.events}
        assert {"tick", "round", "migration", "faas", "fault"} <= categories
        trace = chrome_trace(result.telemetry)
        assert validate_chrome_trace(trace) == []
        rows, instants = trace_breakdown(trace)
        assert {row.category for row in rows} >= {"tick", "round", "migration", "faas"}
        assert instants.get("fault", 0) > 0

    def test_different_seed_changes_the_trace(self):
        first = traced_run()
        data = {**CLUSTER_SPEC, "seed": 12}
        second = run_spec(RunSpec.from_dict(data))
        assert virtual_digest(first.telemetry) != virtual_digest(second.telemetry)


class TestDisabledTelemetryBitIdentity:
    @pytest.fixture(scope="class")
    def runs(self):
        absent = run_spec(
            RunSpec.from_dict({k: v for k, v in CLUSTER_SPEC.items() if k != "telemetry"})
        )
        disabled = run_spec(
            RunSpec.from_dict({**CLUSTER_SPEC, "telemetry": {"enabled": False}})
        )
        enabled = run_spec(RunSpec.from_dict(CLUSTER_SPEC))
        return absent, disabled, enabled

    def test_virtual_results_identical(self, runs):
        absent, disabled, enabled = runs
        assert absent.summary() == disabled.summary() == enabled.summary()
        assert (
            absent.scenario.tick_durations_ms
            == disabled.scenario.tick_durations_ms
            == enabled.scenario.tick_durations_ms
        )
        assert absent.end_virtual_ms == disabled.end_virtual_ms == enabled.end_virtual_ms

    def test_metric_counters_identical(self, runs):
        snapshots = [json.dumps(r.counters, sort_keys=True) for r in runs]
        assert snapshots[0] == snapshots[1] == snapshots[2]

    def test_disabled_runs_carry_no_hub(self, runs):
        absent, disabled, enabled = runs
        assert absent.telemetry is None
        assert disabled.telemetry is None
        assert enabled.telemetry is not None
