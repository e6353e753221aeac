"""A ratchet on the production surface: everything ``src/repro`` defines, ``src/repro`` uses.

A module-level function, class or constant, or a method, passes when some
production code other than its own definition refers to it: as a name, an
attribute, or a string equal to the name (``getattr``, the lazy export
tables).  Its ``__all__`` entry and its imports do not count.  A definition
decorated ``@register_...(...)`` passes, because its registry calls it, and
so does every name ``repro.api.__all__`` exports.  The match is by name: a
name two definitions share passes for both when either is used, so the
ratchet catches a dead name, not every dead definition.

A field is held to the same rule, read for use: a ``self.X`` assignment
or a class-level annotation in a class of ``src/repro`` passes when some
production code loads ``X``, as an attribute or a string equal to the name.
Writes (``self.X += 1`` included) and keyword arguments (a dataclass
constructor's ``X=``) do not count, so a counter nothing reads fails.

A name or field production does not use stays only on
``surface_allowlist.json``, keyed ``module:qualified.name`` with a one-line
reason: a test oracle (the reason names the test that reads it), or what
``bench/`` or ``examples/`` read.  An entry may also name a parameter that
``bench/`` passes.  Like ``tests/perf/call_budget.json``, the file is kept
exact: an entry fails once its definition is gone or nothing at all
(production, tests, ``bench/``, ``benchmarks/``, ``examples/``) uses it;
for a field, uses are loads.
"""

from __future__ import annotations

import ast
import json
import tomllib
from collections import defaultdict
from functools import lru_cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
ALLOWLIST = Path(__file__).resolve().parent / "surface_allowlist.json"
CONSUMERS = ("tests", "bench", "benchmarks", "examples")
#: the determinism gate's probe scripts are test code kept in TOML
PROBES = ROOT / "tests" / "mutation" / "mutants.toml"


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _registered(node: ast.AST) -> bool:
    return any(
        isinstance(decorator, ast.Call)
        and getattr(decorator.func, "id", "").startswith("register")
        for decorator in getattr(node, "decorator_list", [])
    )


def _fields(tree: ast.Module) -> tuple[tuple[str, str], ...]:
    """``(name, qualified name)`` of every field a class of the module defines.

    A field is a class-level annotation or an attribute a method of the class
    assigns on ``self``; nested classes are qualified by their outer ones.
    """
    found: dict[str, str] = {}

    def visit(node: ast.AST, prefix: str) -> None:
        for child in node.body:
            if not isinstance(child, ast.ClassDef):
                continue
            qualified = prefix + child.name
            for item in child.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    found.setdefault(f"{qualified}.{item.target.id}", item.target.id)
            for item in ast.walk(child):
                if (
                    isinstance(item, ast.Attribute) and isinstance(item.ctx, ast.Store)
                    and getattr(item.value, "id", "") == "self"
                ):
                    found.setdefault(f"{qualified}.{item.attr}", item.attr)
            visit(child, qualified + ".")

    visit(tree, "")
    return tuple((name, qualified) for qualified, name in found.items() if not _is_dunder(name))


@lru_cache(maxsize=None)
def analyse(source: str) -> tuple[tuple, tuple, frozenset, tuple, frozenset]:
    """(definitions, references, keyword names, fields, loads) of one module.

    A definition is ``(name, qualified name, first line, last line)``; a
    reference is ``(name, line)``; a field is ``(name, qualified name)``.
    The loads are the attribute names read and the identifier strings: what
    counts as a use of a field.
    """
    tree = ast.parse(source)
    definitions = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not (_is_dunder(node.name) or _registered(node)):
                definitions.append((node.name, node.name, node.lineno, node.end_lineno))
            if isinstance(node, ast.ClassDef):
                definitions.extend(
                    (item.name, f"{node.name}.{item.name}", item.lineno, item.end_lineno)
                    for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not _is_dunder(item.name)
                )
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Name) and not _is_dunder(target.id):
                    definitions.append((target.id, target.id, node.lineno, node.end_lineno))
    exported = {
        id(child)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(getattr(target, "id", "") == "__all__" for target in node.targets)
        for child in ast.walk(node)
    }
    references = []
    loads = set()
    for node in ast.walk(tree):
        if id(node) in exported:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            references.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            references.append((node.attr, node.lineno))
            loads.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                references.append((node.value, node.lineno))
                loads.add(node.value)
    keywords = frozenset(
        node.arg for node in ast.walk(tree) if isinstance(node, ast.keyword) and node.arg
    )
    return tuple(definitions), tuple(references), keywords, _fields(tree), frozenset(loads)


def production_sources() -> dict[str, str]:
    """Each production module's source, keyed by its dotted name."""
    return {
        ".".join(path.relative_to(SRC.parent).with_suffix("").parts): path.read_text("utf-8")
        for path in sorted(SRC.rglob("*.py"))
    }


def consumer_sources() -> list[str]:
    """The source of every module under tests, ``bench/``, ``benchmarks/`` and ``examples/``.

    The mutation probes count as tests.  This file is left out: it names
    deleted definitions on purpose.
    """
    modules = [
        path.read_text("utf-8")
        for tree in CONSUMERS
        for path in sorted((ROOT / tree).rglob("*.py"))
        if path != Path(__file__).resolve()
    ]
    return modules + list(tomllib.loads(PROBES.read_text("utf-8"))["probes"].values())


def consumer_references() -> set[str]:
    """Every name the tests, ``bench/``, ``benchmarks/`` and ``examples/`` use or pass."""
    names = set()
    for source in consumer_sources():
        _, references, keywords, _, _ = analyse(source)
        names.update(name for name, _ in references)
        names.update(keywords)
    return names


def loaded(sources) -> set[str]:
    """Every attribute name and identifier string the given modules read."""
    return {name for source in sources for name in analyse(source)[4]}


def public_api(sources: dict[str, str]) -> set[str]:
    """The names ``repro.api.__all__`` lists (the keys of its export table)."""
    for node in ast.parse(sources["repro.api.__init__"]).body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", "") == "_EXPORTS":
            return {key.value for key in node.value.keys}
    raise AssertionError("repro.api's export table moved; update public_api()")


def unused(sources: dict[str, str]) -> list[str]:
    """``module:qualified.name`` of every definition no other production code uses."""
    used_at = defaultdict(list)
    for module, source in sources.items():
        for name, line in analyse(source)[1]:
            used_at[name].append((module, line))
    api = public_api(sources)
    return sorted(
        f"{module}:{qualified}"
        for module, source in sources.items()
        for name, qualified, first, last in analyse(source)[0]
        if name not in api
        and not any(
            where != module or not first <= line <= last for where, line in used_at[name]
        )
    )


def unused_fields(sources: dict[str, str]) -> list[str]:
    """``module:Class.field`` of every field no production code loads."""
    production = loaded(sources.values())
    return sorted(
        f"{module}:{qualified}"
        for module, source in sources.items()
        for name, qualified in analyse(source)[3]
        if name not in production
    )


def allowlist() -> dict[str, str]:
    return json.loads(ALLOWLIST.read_text("utf-8"))


def defined(source: str, qualified: str) -> bool:
    """True when ``qualified`` is still defined in ``source``.

    It may name a function, class or method; a module constant; a class
    attribute or an attribute a method assigns on ``self``; or a parameter.
    """
    tree = ast.parse(source)
    scopes: dict[str, ast.AST] = {"": tree}

    def visit(node: ast.AST, prefix: str) -> None:
        for child in node.body:
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                scopes[prefix + child.name] = child
                visit(child, f"{prefix}{child.name}.")

    visit(tree, "")
    if qualified in scopes:
        return True
    scope, _, leaf = qualified.rpartition(".")
    owner = scopes.get(scope)
    if isinstance(owner, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return leaf in {argument.arg for argument in owner.args.args + owner.args.kwonlyargs}
    if owner is None:
        return False
    assigned = {
        target.id
        for node in owner.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name)
    }
    if isinstance(owner, ast.ClassDef):
        assigned |= {
            node.attr
            for node in ast.walk(owner)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
            and getattr(node.value, "id", "") == "self"
        }
    return leaf in assigned


def test_every_production_name_is_used_by_production_or_allowlisted():
    allowed = allowlist()
    found = [key for key in unused(production_sources()) if key not in allowed]
    assert not found, (
        "no production code uses these; delete them, move them under tests/, "
        f"or allowlist them with a reason in {ALLOWLIST.name}: {found}"
    )


def test_every_field_is_loaded_by_production_or_allowlisted():
    allowed = allowlist()
    found = [key for key in unused_fields(production_sources()) if key not in allowed]
    assert not found, (
        "no production code reads these fields; delete them (a field nothing reads "
        "at all), or allowlist them with the test or bench/ file that reads them "
        f"in {ALLOWLIST.name}: {found}"
    )


def stale(
    entries: dict[str, str], sources: dict[str, str], used: set[str], loads: set[str]
) -> list[str]:
    """The allowlist entries to remove or fix, each with why.

    ``used`` is every name anything uses and ``loads`` every name anything
    reads (see :func:`everything_used`); an entry naming a field needs a load.
    """
    found = []
    for key, reason in entries.items():
        module, _, qualified = key.partition(":")
        if not reason.strip() or "\n" in reason:
            found.append(f"{key}: the reason must be one line")
        elif module not in sources or not defined(sources[module], qualified):
            found.append(f"{key}: no longer defined")
        elif qualified.rpartition(".")[2] not in (
            loads if any(field == qualified for _, field in analyse(sources[module])[3]) else used
        ):
            found.append(f"{key}: used by nothing; delete it")
    return found


def everything_used(sources: dict[str, str]) -> tuple[set[str], set[str]]:
    """(every name used, every name loaded) anywhere: production and the consumers."""
    production = {name for source in sources.values() for name, _ in analyse(source)[1]}
    everywhere = [*sources.values(), *consumer_sources()]
    return production | consumer_references(), loaded(everywhere)


def test_every_allowlist_entry_is_defined_and_used():
    sources = production_sources()
    found = stale(allowlist(), sources, *everything_used(sources))
    assert not found, f"remove or fix these {ALLOWLIST.name} entries: {found}"


#: (module, class or None, name) of names this ratchet saw deleted
PUT_BACK = [
    ("repro.cluster.coordinator", "ClusterCoordinator", "migration_count"),
    ("repro.cluster.partition", "WorldPartitioner", "zone_of"),
    ("repro.sim.events", "Event", "cancel"),
    ("repro.sim.clock", "SimulationClock", "reset"),
    ("repro.faas.platform", "FaasPlatform", "invocations_for"),
    ("repro.faas.coldstart", "WarmInstancePool", "warm_count"),
    ("repro.server.chunkmanager", "ChunkManager", "pending_chunks"),
    ("repro.interest.subscriptions", "InterestMap", "subscriber_count"),
    ("repro.world.world", "VoxelWorld", "get_chunk"),
    ("repro.workload.bots", "BotSwarm", "connected_count"),
    ("repro.constructs.state", "ConstructState", "same_values"),
    ("repro.faults.injector", None, "make_injector"),
    ("repro.world.block", None, "is_stateful"),
    ("repro.constructs.components", None, "component_from_block"),
]


def put_back(source: str, cls: str | None, name: str) -> str:
    """``source`` with a method ``name`` appended to ``cls`` (or a module function)."""
    lines = source.splitlines()
    if cls is None:
        return "\n".join(lines + ["", "", f"def {name}(value):", "    return value", ""])
    node = next(
        node for node in ast.parse(source).body
        if isinstance(node, ast.ClassDef) and node.name == cls
    )
    method = ["", f"    def {name}(self):", "        return self", ""]
    return "\n".join(lines[: node.end_lineno] + method + lines[node.end_lineno :])


@pytest.mark.parametrize("module, cls, name", PUT_BACK, ids=[entry[2] for entry in PUT_BACK])
def test_a_deleted_name_put_back_fails_the_ratchet(module, cls, name):
    sources = production_sources()
    sources[module] = put_back(sources[module], cls, name)
    qualified = f"{cls}.{name}" if cls else name
    assert f"{module}:{qualified}" in unused(sources)


#: (module, class, name) of fields this ratchet saw deleted; a dataclass's
#: comes back as an annotation, any other class's as an assignment on ``self``
PUT_BACK_FIELDS = [
    ("repro.server.session", "PlayerSession", "connected_at_ms"),
    ("repro.storage.base", "StorageOperation", "operation"),
    ("repro.cluster.coordinator", "MigrationRecord", "player_name"),
    ("repro.cluster.coordinator", "ShardRecoveryRecord", "respawned_round"),
    ("repro.storage.cache", "CacheStatistics", "prefetches"),
    ("repro.storage.cache", "CacheStatistics", "writebacks"),
    ("repro.experiments.fig12_terrain_scalability", "TerrainScalabilityRun", "tick_series"),
    ("repro.experiments.availability", "AvailabilityMeasurement", "timeline_digest"),
    ("repro.faas.coldstart", "WarmInstancePool", "cold_starts"),
    ("repro.faas.coldstart", "WarmInstancePool", "warm_starts"),
    ("repro.faas.function", "Invocation", "timed_out"),
    ("repro.core.servo", "ServoRuntime", "construct_backend"),
    ("repro.faults.degradation", "DegradationController", "updates_shed"),
]


def put_back_field(source: str, cls: str, name: str) -> str:
    """``source`` with a field ``name`` written on ``cls`` again, and never read."""
    lines = source.splitlines()
    node = next(
        node for node in ast.parse(source).body
        if isinstance(node, ast.ClassDef) and node.name == cls
    )
    if node.decorator_list:  # a dataclass
        field = ["", f"    {name}: int = 0"]
    else:
        field = ["", "    def put_back(self):", f"        self.{name} = 0"]
    return "\n".join(lines[: node.end_lineno] + field + lines[node.end_lineno :])


@pytest.mark.parametrize(
    "module, cls, name", PUT_BACK_FIELDS, ids=[entry[2] for entry in PUT_BACK_FIELDS]
)
def test_a_deleted_field_put_back_fails_the_ratchet(module, cls, name):
    sources = production_sources()
    sources[module] = put_back_field(sources[module], cls, name)
    assert f"{module}:{cls}.{name}" in unused_fields(sources)


def test_an_entry_for_a_gone_or_unused_name_is_stale():
    sources = production_sources()
    module = "repro.cluster.coordinator"
    sources[module] = put_back(sources[module], "ClusterCoordinator", "migration_count")
    sources[module] = put_back_field(sources[module], "ShardRecoveryRecord", "respawned_round")
    entries = {
        f"{module}:ClusterCoordinator.migration_count": "put back, used by nothing",
        f"{module}:ShardRecoveryRecord.respawned_round": "put back, read by nothing",
        f"{module}:ClusterCoordinator.migration_total": "never defined",
        "repro.sim.engine:SimulationEngine.advance_to": "",
        "repro.api.hosts:build_host.workers": "a parameter bench/ passes",
        "repro.server.gameloop:GameServer.executor": "a class attribute bench/ reads",
        "repro.server.chunkmanager:ChunkManager.center_listeners": "an attribute on self",
    }
    assert stale(entries, sources, *everything_used(sources)) == [
        f"{module}:ClusterCoordinator.migration_count: used by nothing; delete it",
        f"{module}:ShardRecoveryRecord.respawned_round: used by nothing; delete it",
        f"{module}:ClusterCoordinator.migration_total: no longer defined",
        "repro.sim.engine:SimulationEngine.advance_to: the reason must be one line",
    ]
