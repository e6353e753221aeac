"""`repro.api` — the public front door of the reproduction.

One declarative entry point for everything the repository can run:

* :class:`RunSpec` — a JSON-serializable description of one run (host
  topology + workload + seed/duration/warm-up) with ``from_dict``/``to_dict``
  round-tripping and eager validation.
* :func:`run_spec` — execute a spec and get a typed :class:`RunResult`
  (scenario measurements + host metrics, ``to_json``-able, deterministic
  summaries).
* :func:`register_host` / :func:`register_scenario` — self-registering
  registries.  Game variants and workload families plug in by decorator;
  nothing in the build path branches on names.
* The experiment layer re-exported lazily (``run_experiment``,
  ``EXPERIMENTS``, ``ExperimentSettings``, ``find_max_players``,
  ``format_table``, ``settings_for_scale``) so examples and scripts need a
  single import.
* ``python -m repro`` / the ``repro`` console script — the CLI over all of
  the above (see :mod:`repro.api.cli`).

Attributes resolve lazily (PEP 562): importing :mod:`repro.api` — which the
self-registration decorators in lower layers do transitively — stays cheap
and cycle-free.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any

#: public name -> defining module, resolved on first attribute access
_EXPORTS = {
    # registries
    "Registry": "repro.api.registry",
    "UnknownNameError": "repro.api.registry",
    "unknown_name_error": "repro.api.registry",
    # hosts
    "HOSTS": "repro.api.hosts",
    "HostEntry": "repro.api.hosts",
    "register_host": "repro.api.hosts",
    "build_host": "repro.api.hosts",
    "host_names": "repro.api.hosts",
    "cluster_host_names": "repro.api.hosts",
    # scenarios
    "SCENARIOS": "repro.api.scenarios",
    "register_scenario": "repro.api.scenarios",
    "build_scenario": "repro.api.scenarios",
    "scenario_names": "repro.api.scenarios",
    "scenario_parameters": "repro.api.scenarios",
    # specs, results, execution
    "RunSpec": "repro.api.spec",
    "HostSpec": "repro.api.spec",
    "WorkloadSpec": "repro.api.spec",
    "RunResult": "repro.api.result",
    "run_spec": "repro.api.run",
    # observability (see repro.obs for the full exporter/report surface)
    "Telemetry": "repro.obs.telemetry",
    "TelemetryConfig": "repro.obs.telemetry",
    "install_telemetry": "repro.obs.telemetry",
    # experiment layer (lazy keeps repro.api importable from lower layers)
    "ExperimentSettings": "repro.experiments.harness",
    "QUICK_SETTINGS": "repro.experiments.harness",
    "PAPER_SETTINGS": "repro.experiments.harness",
    "settings_for_scale": "repro.experiments.harness",
    "format_table": "repro.experiments.harness",
    "build_game_server": "repro.experiments.harness",
    "EXPERIMENTS": "repro.experiments.registry",
    "run_experiment": "repro.experiments.registry",
    "find_max_players": "repro.experiments.max_players",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> Any:
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(module_name), name)
    globals()[name] = value  # cache for subsequent lookups
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
