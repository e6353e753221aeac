"""RunSpec serialization, validation and run determinism."""

import json

import pytest

from repro.api import HostSpec, RunSpec, WorkloadSpec, run_spec
from repro.api.spec import game_config_from_overrides, servo_config_from_overrides
from repro.server.gameloop import GameServer
from repro.world.coords import BlockPos

TINY_SPEC = {
    "host": {
        "game": "servo",
        "game_config": {"world_type": "flat"},
        "servo_config": {"provider": "aws", "tick_lead": 20},
    },
    "workload": {"scenario": "behaviour_a", "params": {"players": 3, "constructs": 2}},
    "seed": 7,
    "duration_s": 2.0,
    "warmup_s": 0.5,
}


def test_dict_round_trip():
    spec = RunSpec.from_dict(TINY_SPEC)
    assert RunSpec.from_dict(spec.to_dict()) == spec
    assert spec.to_dict()["host"]["game"] == "servo"
    assert spec.to_dict()["workload"]["params"] == {"players": 3, "constructs": 2}


def test_json_round_trip():
    spec = RunSpec.from_dict(TINY_SPEC)
    text = spec.to_json()
    assert RunSpec.from_json(text) == spec
    assert json.loads(text)["seed"] == 7


def test_file_round_trip(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(TINY_SPEC))
    assert RunSpec.from_file(path) == RunSpec.from_dict(TINY_SPEC)


def test_minimal_spec_defaults():
    spec = RunSpec.from_dict(
        {"host": {"game": "opencraft"}, "workload": {"scenario": "sinc"}}
    )
    assert spec.seed == 42
    assert spec.duration_s is None and spec.warmup_s is None
    assert spec.host.shards is None and spec.host.servo_config is None
    assert spec.to_dict() == {
        "host": {"game": "opencraft"},
        "workload": {"scenario": "sinc"},
        "seed": 42,
    }


@pytest.mark.parametrize(
    "mutation, fragment",
    [
        ({"extra": 1}, "unknown run spec key"),
        ({"host": {"game": "servo", "knob": 1}}, "unknown host key"),
        ({"workload": {"scenario": "sinc", "junk": {}}}, "unknown workload key"),
        ({"host": {"game": "servo", "game_config": {"tickrate": 20}}}, "unknown game_config key"),
        ({"host": {"game": "servo", "servo_config": {"speed": 1}}}, "unknown servo_config key"),
        ({"duration_s": -1.0}, "duration_s must be positive"),
        ({"duration_s": 0}, "duration_s must be positive"),
        ({"duration_s": "8.0"}, "duration_s must be a number"),
        ({"warmup_s": -0.5}, "warmup_s must be non-negative"),
        ({"warmup_s": "fast"}, "warmup_s must be a number"),
        ({"seed": -3}, "seed must be non-negative"),
        ({"seed": 1.5}, "seed must be an integer"),
        ({"host": {"game": "servo", "shards": 0}}, "shards must be a positive integer"),
        # host worker processes were removed: the key is unknown, whatever its value
        ({"host": {"game": "servo", "workers": 1}}, "unknown host key(s) ['workers']"),
        ({"host": {}}, "host requires a 'game'"),
        ({"workload": {}}, "workload requires a 'scenario'"),
    ],
)
def test_validation_rejects(mutation, fragment):
    data = {**TINY_SPEC, **mutation}
    with pytest.raises(ValueError) as excinfo:
        RunSpec.from_dict(data)
    assert fragment in str(excinfo.value)


@pytest.mark.parametrize(
    "section, overrides, fragment",
    [
        ("game_config", {"world_type": "lava"}, "unknown world type 'lava'"),
        ("game_config", {"view_distance_blocks": -1}, "view_distance_blocks must be positive"),
        ("servo_config", {"provider": "gcp"}, "unknown provider 'gcp'"),
        ("servo_config", {"tick_lead": -3}, "tick_lead must be non-negative"),
        ("game_config", {"spawn_position": [1, 2]}, "spawn_position must be three integers"),
        ("game_config", {"spawn_position": [1.5, 70, 3]}, "spawn_position must be three integers"),
        ("game_config", {"spawn_position": [True, 70, 3]}, "spawn_position must be three integers"),
        ("game_config", {"spawn_position": "1,70,3"}, "spawn_position must be three integers"),
    ],
)
def test_config_values_are_checked_when_the_spec_is_built(section, overrides, fragment):
    with pytest.raises(ValueError, match=fragment):
        RunSpec.from_dict({**TINY_SPEC, "host": {"game": "servo", section: overrides}})
    with pytest.raises(ValueError, match=fragment):
        HostSpec(game="servo", **{section: overrides})


# Switches only tests flipped, then the values the paper fixes (module
# constants now): a spec naming one fails at --check.
@pytest.mark.parametrize(
    "section, knob",
    [
        ("game_config", "tick_record_cap"),
        ("servo_config", "enable_cache"),
        ("servo_config", "enable_loop_detection"),
        ("game_config", "simulation_rate_hz"),
        ("game_config", "world_seed"),
        ("game_config", "persistence_interval_s"),
        ("game_config", "max_chunk_integrations_per_tick"),
        ("game_config", "interest_near_radius_chunks"),
        ("game_config", "interest_max_staleness_ticks"),
        ("game_config", "interest_max_drift_blocks"),
        ("servo_config", "simulation_function_memory_mb"),
        ("servo_config", "terrain_function_memory_mb"),
        ("servo_config", "prefetch_margin_blocks"),
        ("servo_config", "prefetch_interval_ticks"),
        ("servo_config", "cache_capacity_objects"),
    ],
)
def test_removed_knobs_are_unknown_keys(section, knob):
    with pytest.raises(ValueError, match=rf"unknown {section} key\(s\) \['{knob}'\]") as excinfo:
        RunSpec.from_dict({**TINY_SPEC, "host": {"game": "servo", section: {knob: 1}}})
    assert "allowed keys: [" in str(excinfo.value)


def test_missing_sections_rejected():
    with pytest.raises(ValueError, match="requires a 'host'"):
        RunSpec.from_dict({"workload": {"scenario": "sinc"}})
    with pytest.raises(ValueError, match="requires a 'workload'"):
        RunSpec.from_dict({"host": {"game": "servo"}})


def test_programmatic_construction_is_validated_too():
    with pytest.raises(ValueError):
        HostSpec(game="")
    with pytest.raises(ValueError):
        WorkloadSpec(scenario="")
    with pytest.raises(ValueError):
        RunSpec(
            host=HostSpec(game="servo"),
            workload=WorkloadSpec(scenario="sinc"),
            duration_s=-2.0,
        )
    with pytest.raises(ValueError, match="game_config"):
        HostSpec(game="servo", game_config="flat")
    # None config/params mirror the factories' defaults instead of crashing
    assert HostSpec(game="servo", game_config=None).game_config == {}
    assert WorkloadSpec(scenario="sinc", params=None).params == {}


def test_config_overrides_materialise():
    for spawn in ([1, 70, -3], (1, 70, -3), BlockPos(1, 70, -3)):
        config = game_config_from_overrides({"world_type": "flat", "spawn_position": spawn})
        assert config.world_type == "flat"
        assert config.spawn_position == BlockPos(1, 70, -3)
    servo = servo_config_from_overrides({"provider": "azure", "tick_lead": 5})
    assert servo.provider == "azure" and servo.tick_lead == 5


def test_run_spec_accepts_pathlike(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({**TINY_SPEC, "duration_s": 1.0}))
    result = run_spec(path)  # a Path, not a str
    assert result.host_name == "servo"
    assert len(result.scenario.tick_durations_ms) == 20


def test_same_spec_and_seed_is_deterministic():
    spec = RunSpec.from_dict(TINY_SPEC)
    first = run_spec(spec)
    second = run_spec(spec)
    assert first.summary() == second.summary()
    assert first.scenario.tick_durations_ms == second.scenario.tick_durations_ms
    assert first.end_virtual_ms == second.end_virtual_ms


def test_different_seed_changes_virtual_results():
    first = run_spec(RunSpec.from_dict({**TINY_SPEC, "seed": 7}))
    second = run_spec(RunSpec.from_dict({**TINY_SPEC, "seed": 8}))
    assert first.scenario.tick_durations_ms != second.scenario.tick_durations_ms


def test_duration_and_warmup_overrides_apply():
    result = run_spec(RunSpec.from_dict(TINY_SPEC))
    # 2 s measured at 20 Hz = 40 ticks; warmup 0.5 s = 10 more, unmeasured.
    assert result.scenario.duration_s == 2.0
    assert len(result.scenario.tick_durations_ms) == 40
    assert result.end_virtual_ms == 2500.0


def test_run_result_serializes():
    result = run_spec(RunSpec.from_dict(TINY_SPEC))
    payload = json.loads(result.to_json())
    assert payload["spec"] == RunSpec.from_dict(TINY_SPEC).to_dict()
    assert payload["summary"]["ticks_measured"] == 40
    assert payload["summary"]["meets_qos"] is True
    assert "wall_seconds" in payload


def test_a_run_that_breaks_an_invariant_raises_listing_it(monkeypatch):
    """``run_spec`` checks its host at the end of every run."""
    tick = GameServer.tick

    def tick_then_share_a_state_vector(server):
        record = tick(server)
        first, second = server.constructs.constructs()[:2]
        second.states = first.states
        return record

    monkeypatch.setattr(GameServer, "tick", tick_then_share_a_state_vector)
    with pytest.raises(RuntimeError, match=r"invariants:\nservo: construct states: "):
        run_spec(RunSpec.from_dict(TINY_SPEC))
