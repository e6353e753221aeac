"""Declarative run specifications.

A :class:`RunSpec` is the JSON-serializable description of one run: a host
topology (game name, optional shard count, :class:`~repro.server.config.GameConfig`
and :class:`~repro.core.config.ServoConfig` knob overrides), a workload
(scenario name plus parameters) and the run controls (seed, duration,
warm-up).  Specs round-trip through ``to_dict``/``from_dict`` and
``to_json``/``from_json`` without loss, and are validated on construction:
unknown keys, unknown config knobs and out-of-range values all raise
``ValueError`` immediately, not mid-run.

The config fields hold *overrides* (only the knobs the spec mentions), so a
spec stays small, round-trips exactly, and keeps tracking the dataclass
defaults as they evolve.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional

from repro.core.config import ServoConfig
from repro.server.config import GameConfig
from repro.world.coords import BlockPos

_GAME_CONFIG_KNOBS = frozenset(f.name for f in dataclasses.fields(GameConfig))
_SERVO_CONFIG_KNOBS = frozenset(f.name for f in dataclasses.fields(ServoConfig))


def _require_mapping(value: Any, what: str) -> dict:
    if not isinstance(value, Mapping):
        raise ValueError(f"{what} must be a mapping, got {type(value).__name__}")
    return dict(value)


def _check_keys(data: Mapping, allowed: frozenset[str], what: str) -> None:
    unknown = sorted(set(data) - allowed)
    if unknown:
        raise ValueError(
            f"unknown {what} key(s) {unknown}; allowed keys: {sorted(allowed)}"
        )


def _check_config_overrides(overrides: Mapping, knobs: frozenset[str], what: str) -> None:
    _require_mapping(overrides, what)
    _check_keys(overrides, knobs, what)


def _require_number(value: Any, what: str) -> None:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} must be a number, got {value!r}")


def _spawn_position(value: Any) -> BlockPos:
    if isinstance(value, BlockPos):
        return value
    if (
        not isinstance(value, (list, tuple))
        or len(value) != 3
        or any(isinstance(axis, bool) or not isinstance(axis, int) for axis in value)
    ):
        raise ValueError(f"game_config.spawn_position must be three integers, got {value!r}")
    return BlockPos(*value)


def game_config_from_overrides(overrides: Mapping[str, Any]) -> GameConfig:
    """Materialise a :class:`GameConfig` from a spec's override mapping."""
    _check_config_overrides(overrides, _GAME_CONFIG_KNOBS, "game_config")
    kwargs = dict(overrides)
    if "spawn_position" in kwargs:
        kwargs["spawn_position"] = _spawn_position(kwargs["spawn_position"])
    return GameConfig(**kwargs)


def servo_config_from_overrides(overrides: Mapping[str, Any]) -> ServoConfig:
    """Materialise a :class:`ServoConfig` from a spec's override mapping."""
    _check_config_overrides(overrides, _SERVO_CONFIG_KNOBS, "servo_config")
    return ServoConfig(**overrides)


@dataclass(frozen=True)
class HostSpec:
    """The host half of a spec: which topology to build, with which knobs."""

    KEYS = frozenset({"game", "shards", "game_config", "servo_config"})

    game: str
    shards: Optional[int] = None
    game_config: dict = field(default_factory=dict)
    servo_config: Optional[dict] = None
    #: the configs the overrides describe, built (and so checked) on construction
    _game_config: GameConfig = field(init=False, repr=False, compare=False)
    _servo_config: Optional[ServoConfig] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.game or not isinstance(self.game, str):
            raise ValueError(f"host.game must be a non-empty string, got {self.game!r}")
        if self.shards is not None and (
            isinstance(self.shards, bool) or not isinstance(self.shards, int) or self.shards < 1
        ):
            raise ValueError(f"host.shards must be a positive integer, got {self.shards!r}")
        if self.game_config is None:  # mirror the host factories' game_config=None default
            object.__setattr__(self, "game_config", {})
        object.__setattr__(self, "_game_config", game_config_from_overrides(self.game_config))
        servo = self.servo_config
        object.__setattr__(
            self, "_servo_config", None if servo is None else servo_config_from_overrides(servo)
        )

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "HostSpec":
        data = _require_mapping(data, "host")
        _check_keys(data, cls.KEYS, "host")
        if "game" not in data:
            raise ValueError("host requires a 'game' name")
        game_config = _require_mapping(data.get("game_config", {}), "host.game_config")
        servo_config = data.get("servo_config")
        if servo_config is not None:
            servo_config = _require_mapping(servo_config, "host.servo_config")
        return cls(
            game=data["game"],
            shards=data.get("shards"),
            game_config=game_config,
            servo_config=servo_config,
        )

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"game": self.game}
        if self.shards is not None:
            out["shards"] = self.shards
        if self.game_config:
            out["game_config"] = dict(self.game_config)
        if self.servo_config is not None:
            out["servo_config"] = dict(self.servo_config)
        return out

    def build_game_config(self) -> GameConfig:
        return self._game_config

    def build_servo_config(self) -> Optional[ServoConfig]:
        return self._servo_config


@dataclass(frozen=True)
class WorkloadSpec:
    """The workload half of a spec: which scenario to run, with which params."""

    KEYS = frozenset({"scenario", "params"})

    scenario: str
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.scenario or not isinstance(self.scenario, str):
            raise ValueError(
                f"workload.scenario must be a non-empty string, got {self.scenario!r}"
            )
        if self.params is None:
            object.__setattr__(self, "params", {})
        _require_mapping(self.params, "workload.params")

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "WorkloadSpec":
        data = _require_mapping(data, "workload")
        _check_keys(data, cls.KEYS, "workload")
        if "scenario" not in data:
            raise ValueError("workload requires a 'scenario' name")
        return cls(
            scenario=data["scenario"],
            params=_require_mapping(data.get("params", {}), "workload.params"),
        )

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"scenario": self.scenario}
        if self.params:
            out["params"] = dict(self.params)
        return out


@dataclass(frozen=True)
class RunSpec:
    """A complete, serializable description of one run."""

    KEYS = frozenset(
        {"host", "workload", "seed", "duration_s", "warmup_s", "faults", "telemetry"}
    )

    host: HostSpec
    workload: WorkloadSpec
    seed: int = 42
    #: overrides the scenario's measurement duration when set
    duration_s: Optional[float] = None
    #: overrides the scenario's warm-up duration when set
    warmup_s: Optional[float] = None
    #: fault-plan overrides (see :mod:`repro.faults.plan`); None inherits the
    #: scenario's plan, ``{}`` explicitly disables faults (the empty plan)
    faults: Optional[dict] = None
    #: telemetry configuration (see :mod:`repro.obs.telemetry`); None keeps
    #: telemetry off entirely — the run is bit-identical to today
    telemetry: Optional[dict] = None

    def __post_init__(self) -> None:
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed!r}")
        if self.duration_s is not None:
            _require_number(self.duration_s, "duration_s")
            if not self.duration_s > 0:
                raise ValueError(f"duration_s must be positive, got {self.duration_s!r}")
        if self.warmup_s is not None:
            _require_number(self.warmup_s, "warmup_s")
            if self.warmup_s < 0:
                raise ValueError(f"warmup_s must be non-negative, got {self.warmup_s!r}")
        if self.faults is not None:
            _require_mapping(self.faults, "faults")
            # Validate eagerly (unknown keys, bad rates) but store the plain
            # dict so the spec round-trips losslessly.
            from repro.faults.plan import FaultPlan

            FaultPlan.from_dict(self.faults)
        if self.telemetry is not None:
            _require_mapping(self.telemetry, "telemetry")
            # Same pattern as faults: eager validation, plain-dict storage.
            from repro.obs.telemetry import TelemetryConfig

            TelemetryConfig.from_dict(self.telemetry)

    # -- serialization --------------------------------------------------------------

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunSpec":
        data = _require_mapping(data, "run spec")
        _check_keys(data, cls.KEYS, "run spec")
        for required in ("host", "workload"):
            if required not in data:
                raise ValueError(f"run spec requires a {required!r} section")
        return cls(
            host=HostSpec.from_dict(data["host"]),
            workload=WorkloadSpec.from_dict(data["workload"]),
            seed=data.get("seed", 42),
            duration_s=data.get("duration_s"),
            warmup_s=data.get("warmup_s"),
            faults=data.get("faults"),
            telemetry=data.get("telemetry"),
        )

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "host": self.host.to_dict(),
            "workload": self.workload.to_dict(),
            "seed": self.seed,
        }
        if self.duration_s is not None:
            out["duration_s"] = self.duration_s
        if self.warmup_s is not None:
            out["warmup_s"] = self.warmup_s
        if self.faults is not None:
            out["faults"] = dict(self.faults)
        if self.telemetry is not None:
            out["telemetry"] = dict(self.telemetry)
        return out

    @classmethod
    def from_json(cls, text: str) -> "RunSpec":
        return cls.from_dict(json.loads(text))

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_file(cls, path) -> "RunSpec":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))
