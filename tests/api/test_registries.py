"""Self-registering host/scenario registries and the shared unknown-name error."""

import pytest

from repro.api import (
    HOSTS,
    SCENARIOS,
    UnknownNameError,
    build_host,
    build_scenario,
    cluster_host_names,
    host_names,
    register_host,
    register_scenario,
    scenario_names,
    scenario_parameters,
)
from repro.experiments import build_game_server, settings_for_scale
from repro.experiments.registry import run_experiment
from repro.core import ServoConfig
from repro.server import GameConfig
from repro.sim import SimulationEngine
from repro.workload.scenarios import behaviour_a


# -- unknown-name messages (one shared helper; pinned here) -------------------------------


def test_unknown_host_message_lists_registered_hosts():
    with pytest.raises(ValueError) as excinfo:
        build_game_server("fortnite", SimulationEngine(seed=0))
    message = str(excinfo.value)
    assert message.startswith("unknown host 'fortnite'; registered hosts:")
    for name in ("'minecraft'", "'opencraft'", "'opencraft-cluster'", "'servo'", "'servo-cluster'"):
        assert name in message


def test_unknown_scenario_message_lists_registered_scenarios():
    with pytest.raises(ValueError) as excinfo:
        build_scenario("walkabout")
    message = str(excinfo.value)
    assert message.startswith("unknown scenario 'walkabout'; registered scenarios:")
    for name in ("'behaviour_a'", "'custom'", "'random'", "'sinc'", "'star'"):
        assert name in message


def test_unknown_experiment_message_lists_registered_experiments():
    with pytest.raises(ValueError) as excinfo:
        run_experiment("fig99")
    message = str(excinfo.value)
    assert message.startswith("unknown experiment 'fig99'; registered experiments:")
    assert "'fig07a'" in message and "'tab01'" in message


def test_unknown_name_error_is_both_value_and_key_error():
    # Callers written against the historical KeyError contract keep working.
    with pytest.raises(KeyError):
        run_experiment("fig99")
    with pytest.raises(ValueError) as excinfo:
        run_experiment("fig99")
    assert isinstance(excinfo.value, UnknownNameError)


def test_unknown_settings_scale_message():
    with pytest.raises(ValueError) as excinfo:
        settings_for_scale("huge")
    assert "unknown settings scale 'huge'" in str(excinfo.value)
    assert "'paper'" in str(excinfo.value) and "'quick'" in str(excinfo.value)


# -- host registry ------------------------------------------------------------------------


def test_builtin_hosts_registered():
    assert set(host_names()) >= {
        "opencraft", "minecraft", "servo", "opencraft-cluster", "servo-cluster",
    }
    assert cluster_host_names() == {"opencraft-cluster", "servo-cluster"}


def test_register_host_decorator_adds_buildable_variant():
    @register_host("test-tiny", cluster=False)
    def build_tiny(engine, game_config=None, servo_config=None):
        from repro.core.servo import build_servo_server

        return build_servo_server(engine, game_config, servo_config, name="test-tiny")

    try:
        host = build_host(
            "test-tiny",
            SimulationEngine(seed=0),
            GameConfig(world_type="flat"),
            servo_config=ServoConfig(provider="azure"),
        )
        assert host.name == "test-tiny"
        assert host.runtime.config.provider == "azure"
        assert "test-tiny" in host_names()
    finally:
        HOSTS._entries.pop("test-tiny")
    assert "test-tiny" not in host_names()


def test_cluster_games_is_a_live_view():
    @register_host("test-cluster", cluster=True)
    def build_fake(engine, game_config=None, shards=2):
        raise NotImplementedError

    try:
        assert "test-cluster" in cluster_host_names()
        assert "test-cluster" in host_names()
    finally:
        HOSTS._entries.pop("test-cluster")
    assert "test-cluster" not in cluster_host_names()
    assert {"opencraft-cluster", "servo-cluster"} <= cluster_host_names()


def test_duplicate_host_registration_rejected():
    with pytest.raises(ValueError, match="already registered"):
        register_host("servo")(lambda engine, config=None: None)


def test_builtin_collision_fails_at_registration_site_in_fresh_process():
    # Registering a builtin name before any builtin module is imported must
    # fail immediately (not poison the lazy builtin import on first lookup).
    import subprocess
    import sys
    from pathlib import Path

    script = (
        "from repro.api import register_host, build_host\n"
        "from repro.sim import SimulationEngine\n"
        "try:\n"
        "    register_host('servo')(lambda engine, config=None: None)\n"
        "except ValueError as error:\n"
        "    assert 'already registered' in str(error), error\n"
        "else:\n"
        "    raise SystemExit('collision was not detected')\n"
        "assert build_host('opencraft', SimulationEngine(seed=0)).name == 'opencraft'\n"
        "print('registry survived')\n"
    )
    src = Path(__file__).resolve().parents[2] / "src"
    completed = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True,
        env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"},
    )
    assert completed.returncode == 0, completed.stderr
    assert "registry survived" in completed.stdout


@pytest.mark.parametrize("first", ["repro.cluster", "repro.server", "repro.api"])
def test_each_layer_imports_first_in_a_fresh_interpreter(first):
    # repro.cluster's exports are plain imports, so no layer may need another
    # one imported before it.
    import subprocess
    import sys
    from pathlib import Path

    script = (
        f"import {first}\n"
        "from repro.api import build_host\n"
        "from repro.cluster import ClusterCoordinator\n"
        "from repro.sim import SimulationEngine\n"
        "host = build_host('servo-cluster', SimulationEngine(seed=0), shards=2)\n"
        "assert isinstance(host, ClusterCoordinator)\n"
    )
    src = Path(__file__).resolve().parents[2] / "src"
    completed = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True,
        env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"},
    )
    assert completed.returncode == 0, completed.stderr


def test_rejected_knob_names_host_and_knob():
    with pytest.raises(ValueError) as excinfo:
        build_game_server(
            "opencraft", SimulationEngine(seed=0), servo_config=ServoConfig()
        )
    assert "host 'opencraft' does not accept the 'servo_config' knob" in str(excinfo.value)
    with pytest.raises(ValueError) as excinfo:
        build_game_server("servo", SimulationEngine(seed=0), shards=3)
    assert "host 'servo' does not accept the 'shards' knob" in str(excinfo.value)


def test_game_factories_entries_accept_keyword_knobs():
    cluster = build_host(
        "servo-cluster",
        SimulationEngine(seed=0),
        GameConfig(world_type="flat"),
        servo_config=ServoConfig(tick_lead=10),
        shards=3,
    )
    assert cluster.shard_count == 3
    baseline = build_host("opencraft", SimulationEngine(seed=0), GameConfig(world_type="flat"))
    assert baseline.name == "opencraft"
    assert len(host_names()) >= 5
    assert all(callable(entry.factory) for _, entry in HOSTS.items())


def test_build_host_workers_residue_accepts_only_none_or_one():
    # bench/workloads.py still passes workers=1 for cluster hosts; nothing is forwarded.
    config = GameConfig(world_type="flat")
    cluster = build_host("servo-cluster", SimulationEngine(seed=0), config, shards=2, workers=1)
    assert cluster.shard_count == 2
    with pytest.raises(ValueError, match="host worker processes were removed"):
        build_host("servo-cluster", SimulationEngine(seed=0), config, shards=2, workers=2)


# -- scenario registry --------------------------------------------------------------------


def test_builtin_scenarios_registered():
    assert set(scenario_names()) >= {"behaviour_a", "star", "sinc", "random", "custom"}


def test_build_scenario_matches_module_factory():
    from_registry = build_scenario("behaviour_a", players=4, constructs=2, duration_s=3.0)
    direct = behaviour_a(players=4, constructs=2, duration_s=3.0)
    assert from_registry == direct
    assert from_registry.behavior_code == "A"
    star = build_scenario("star", players=6, speed=8)
    assert star.behavior_code == "S8"
    custom = build_scenario("custom", name="mine", players=2, behavior_code="R",
                            duration_s=9.0)
    assert custom.name == "mine" and custom.duration_s == 9.0
    # The world is the host's: a scenario has no world_type of its own.
    with pytest.raises(ValueError, match="invalid params"):
        build_scenario("custom", name="mine", players=2, world_type="default")


def test_build_scenario_invalid_params_list_accepted_ones():
    with pytest.raises(ValueError) as excinfo:
        build_scenario("behaviour_a", players=4, speed=9)
    message = str(excinfo.value)
    assert "invalid params for scenario 'behaviour_a'" in message
    assert "players" in message and "constructs" in message and "duration_s" in message
    with pytest.raises(ValueError, match="invalid params"):
        build_scenario("behaviour_a")  # players is required


def test_register_scenario_decorator():
    @register_scenario("test-lonely")
    def lonely(duration_s: float = 1.0):
        return behaviour_a(players=1, constructs=0, duration_s=duration_s)

    try:
        scenario = build_scenario("test-lonely", duration_s=4.0)
        assert scenario.players == 1 and scenario.duration_s == 4.0
        assert scenario_parameters("test-lonely") == ["duration_s"]
    finally:
        SCENARIOS._entries.pop("test-lonely")
    assert "test-lonely" not in scenario_names()

