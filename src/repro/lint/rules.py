"""The determinism rules: one suppressible, named check per invariant.

Every rule is a class with an id, a one-line docstring and a fix hint; its
``check`` walks one :class:`~repro.lint.model.ModuleInfo` and yields
:class:`~repro.lint.findings.Finding` objects.  The engine owns the
quarantine and pragma suppression — rules always report raw violations.

Each rule stays because a seeded violation of it survives every test that
compares two same-seed runs; its justification rows in the kill table
(``tests/mutation/mutants.toml``, see README "Static analysis") are named:

* **DET001** — no wall-clock reads outside the profiling quarantine
  (``det001-sweep-seed``).
* **DET002** — no ambient randomness; draw from named streams (sim/rng.py)
  (``det002-terrain-seed``).
* **DET003** — no iteration over set-typed values feeding order-sensitive
  sinks without an explicit ``sorted()`` (every ``det003-*`` row).
* **DET005** — no ``id()`` / ``hash(object)`` / address-dependent ordering
  (``det005-shed-budget``, ``det005-availability-seed``).

(The id between DET003 and DET005 belonged to a rule that was deleted with
the code it guarded; ids are not renumbered.)
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.findings import Finding
from repro.lint.model import ModuleInfo, is_set_annotation


class Rule:
    """Base class: id and fix hint, plus the per-module check."""

    rule_id: str = ""
    hint: str = ""

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, module: ModuleInfo, node: ast.AST, message: str) -> Finding:
        return Finding(
            rule=self.rule_id,
            path=module.rel_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
            hint=self.hint,
        )


# -- DET001: wall clock ---------------------------------------------------------------

#: resolved dotted names that read the host's wall clock
_WALL_CLOCK_CALLS = frozenset({
    "time.time", "time.time_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.process_time", "time.process_time_ns",
    "time.clock_gettime", "time.clock_gettime_ns",
    "time.localtime", "time.gmtime",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
})


class WallClockRule(Rule):
    """No wall-clock reads outside the profiling quarantine."""

    rule_id = "DET001"
    hint = (
        "simulation code must read virtual time from the engine clock; "
        "wall-clock measurement belongs in repro.obs.profiling.WallClockProfiler"
    )

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = module.resolve(node.func)
            if resolved in _WALL_CLOCK_CALLS:
                yield self.finding(module, node, f"wall-clock read {resolved}()")


# -- DET002: ambient randomness -------------------------------------------------------

#: numpy.random names that are *not* global mutable state (explicitly-seeded
#: construction surface)
_NUMPY_RANDOM_CONSTRUCTORS = frozenset({
    "default_rng", "Generator", "SeedSequence", "BitGenerator",
    "PCG64", "PCG64DXSM", "MT19937", "Philox", "SFC64",
})


class AmbientRandomnessRule(Rule):
    """No ambient randomness; draw from named streams."""

    rule_id = "DET002"
    hint = (
        "draw from a named stream: engine.rng('subsystem') / "
        "repro.sim.rng.RandomStreams — never from process-global RNG state"
    )

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = module.resolve(node.func)
            if resolved is None:
                continue
            if resolved.startswith("random.") or resolved == "random":
                yield self.finding(
                    module, node, f"ambient stdlib randomness {resolved}()"
                )
            elif resolved == "os.urandom" or resolved.startswith("secrets.") or resolved == "uuid.uuid4":
                yield self.finding(module, node, f"OS entropy source {resolved}()")
            elif resolved.startswith("numpy.random."):
                tail = resolved[len("numpy.random."):]
                if tail == "default_rng" and not node.args and not node.keywords:
                    yield self.finding(
                        module, node,
                        "unseeded numpy.random.default_rng() (seeds itself from OS entropy)",
                    )
                elif tail.split(".", 1)[0] not in _NUMPY_RANDOM_CONSTRUCTORS:
                    yield self.finding(
                        module, node, f"numpy global RNG state {resolved}()"
                    )


# -- DET003: unordered-set iteration --------------------------------------------------

#: callables whose result does not depend on argument iteration order
_ORDER_INSENSITIVE_CONSUMERS = frozenset({
    "sorted", "set", "frozenset", "sum", "min", "max", "any", "all", "len",
    "collections.Counter",
})

_SET_OPS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)


def _walk_scope(root: ast.AST):
    """Walk one scope's nodes without descending into nested def/class bodies."""
    stack = list(ast.iter_child_nodes(root))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


class _FunctionSetScope:
    """Set-typed names visible inside one function (or the module body)."""

    def __init__(self, module: ModuleInfo, func: ast.AST, class_name: str | None) -> None:
        self.module = module
        self.class_name = class_name
        self.set_locals: set[str] = set()
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for arg in (
                *func.args.posonlyargs, *func.args.args, *func.args.kwonlyargs
            ):
                if is_set_annotation(arg.annotation):
                    self.set_locals.add(arg.arg)
        for stmt in _walk_scope(func):
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                if is_set_annotation(stmt.annotation):
                    self.set_locals.add(stmt.target.id)
            elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target = stmt.targets[0]
                if isinstance(target, ast.Name) and self.is_set_expr(stmt.value):
                    self.set_locals.add(target.id)

    def is_set_expr(self, expr: ast.AST) -> bool:
        """Best-effort: does this expression statically evaluate to a set?"""
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return True
        if isinstance(expr, ast.Name):
            return expr.id in self.set_locals
        if isinstance(expr, ast.Attribute):
            if isinstance(expr.value, ast.Name) and expr.value.id == "self" and self.class_name:
                info = self.module.classes.get(self.class_name)
                return info is not None and expr.attr in info.set_attrs
            return False
        if isinstance(expr, ast.BinOp) and isinstance(expr.op, _SET_OPS):
            return self.is_set_expr(expr.left) or self.is_set_expr(expr.right)
        if isinstance(expr, ast.Call):
            func = expr.func
            if isinstance(func, ast.Name):
                if func.id in ("set", "frozenset"):
                    return True
                # A module-level function annotated to return a set.
                return func.id in self.module.set_returning_functions
            if isinstance(func, ast.Attribute):
                # some_set.union(...) and friends return sets …
                if func.attr in ("union", "intersection", "difference",
                                 "symmetric_difference", "copy"):
                    return self.is_set_expr(func.value)
                # … and so do self-methods annotated -> set[...].
                if (
                    isinstance(func.value, ast.Name)
                    and func.value.id == "self"
                    and self.class_name
                ):
                    info = self.module.classes.get(self.class_name)
                    return info is not None and func.attr in info.set_returning_methods
        return False


class SetIterationRule(Rule):
    """No unordered-set iteration feeding order-sensitive sinks."""

    rule_id = "DET003"
    hint = (
        "iterate sorted(the_set) (or keep the result itself order-insensitive: "
        "a set/frozenset comprehension, sum/min/max/any/all)"
    )

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        for scope_node, class_name in _iter_scopes(module.tree):
            scope = _FunctionSetScope(module, scope_node, class_name)
            yield from self._check_scope(module, scope, scope_node)

    def _check_scope(self, module: ModuleInfo, scope: _FunctionSetScope, root: ast.AST):
        for node in _walk_scope(root):
            if isinstance(node, ast.For) and scope.is_set_expr(node.iter):
                yield self.finding(
                    module, node.iter,
                    f"iteration over unordered set {_describe(node.iter)} "
                    "(loop bodies are order-sensitive sinks)",
                )
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp)):
                for comp in node.generators:
                    if not scope.is_set_expr(comp.iter):
                        continue
                    if self._consumer_is_order_insensitive(module, node):
                        continue
                    kind = "list" if isinstance(node, ast.ListComp) else "generator"
                    yield self.finding(
                        module, comp.iter,
                        f"{kind} comprehension over unordered set {_describe(comp.iter)} "
                        "feeds an order-sensitive consumer",
                    )

    def _consumer_is_order_insensitive(self, module: ModuleInfo, node: ast.AST) -> bool:
        parent = module.parents.get(node)
        if not isinstance(parent, ast.Call) or node not in parent.args:
            return False
        resolved = module.resolve(parent.func)
        return resolved in _ORDER_INSENSITIVE_CONSUMERS


def _iter_scopes(tree: ast.Module):
    """Yield (function-or-module, enclosing class name) analysis scopes."""
    yield tree, None

    def walk(node: ast.AST, class_name: str | None):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield child, class_name
                yield from walk(child, class_name)
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, child.name)
            else:
                yield from walk(child, class_name)

    yield from walk(tree, None)


def _describe(expr: ast.AST) -> str:
    try:
        return repr(ast.unparse(expr))
    except Exception:  # pragma: no cover - unparse failure is cosmetic only
        return "<expression>"


# -- DET005: address-dependent values -------------------------------------------------


class AddressDependenceRule(Rule):
    """No id()/hash(object)/address-dependent ordering."""

    rule_id = "DET005"
    hint = (
        "CPython id() is a memory address and hash() of str/bytes/object is "
        "salted per process; derive stable keys from content "
        "(hashlib, repro.constructs.state.state_hash) instead"
    )

    def check(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                resolved = module.resolve(node.func)
                if resolved == "id" and len(node.args) == 1:
                    yield self.finding(
                        module, node, "id() is a process-dependent memory address"
                    )
                elif resolved == "hash" and len(node.args) == 1:
                    yield self.finding(
                        module, node,
                        "builtin hash() is salted per process (PYTHONHASHSEED)",
                    )
                for keyword in node.keywords:
                    if (
                        keyword.arg == "key"
                        and isinstance(keyword.value, ast.Name)
                        and keyword.value.id == "id"
                    ):
                        yield self.finding(
                            module, keyword.value, "ordering by key=id is address-dependent"
                        )


#: the rules, in report order
MODULE_RULES: tuple[Rule, ...] = (
    WallClockRule(),
    AmbientRandomnessRule(),
    SetIterationRule(),
    AddressDependenceRule(),
)
