"""The per-module analysis model every lint rule works from.

One :class:`ModuleInfo` per source file: the parsed AST, an import-alias
table for resolving dotted call targets, the module's top-level names and
functions, per-class tables of set-typed attributes and set-returning
methods, and the file's suppression pragmas.  Everything here is built with
the stdlib :mod:`ast` only — the linter never imports the code it analyses.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from repro.lint.findings import Pragma, extract_pragmas

#: annotation heads that denote an unordered set type
_SET_ANNOTATION_NAMES = {"set", "frozenset", "Set", "FrozenSet", "AbstractSet", "MutableSet"}


@dataclass
class ClassInfo:
    """Set-typing facts about one class body."""

    name: str
    #: attribute names assigned or annotated as set/frozenset anywhere in the class
    set_attrs: set[str] = field(default_factory=set)
    #: method names whose return annotation is a set type
    set_returning_methods: set[str] = field(default_factory=set)


@dataclass
class ModuleInfo:
    """Everything the rules need to know about one parsed source file."""

    path: Path
    rel_path: str  # package-relative posix path, e.g. "server/chunkmanager.py"
    source: str
    lines: list[str]
    tree: ast.Module
    aliases: dict[str, str] = field(default_factory=dict)
    set_returning_functions: set[str] = field(default_factory=set)
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    pragmas: dict[int, Pragma] = field(default_factory=dict)
    parents: dict[ast.AST, ast.AST] = field(default_factory=dict)

    def resolve(self, node: ast.AST) -> str | None:
        """Resolve a Name/Attribute chain to a dotted name through the imports.

        ``np.random.default_rng`` resolves to ``numpy.random.default_rng``;
        un-imported bare names resolve to themselves (builtins), and anything
        rooted in a non-name expression resolves to ``None``.
        """
        parts: list[str] = []
        current = node
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return None
        root = self.aliases.get(current.id, current.id)
        parts.append(root)
        return ".".join(reversed(parts))


def is_set_annotation(annotation: ast.AST | None) -> bool:
    """True for ``set[...]``, ``frozenset``, ``typing.Set[...]`` and friends."""
    if annotation is None:
        return False
    head = annotation
    if isinstance(head, ast.Subscript):
        head = head.value
    if isinstance(head, ast.Attribute):
        return head.attr in _SET_ANNOTATION_NAMES
    if isinstance(head, ast.Name):
        return head.id in _SET_ANNOTATION_NAMES
    if isinstance(head, ast.Constant) and isinstance(head.value, str):
        # String annotations: a shallow textual check is enough here.
        text = head.value.split("[", 1)[0].strip()
        return text.rsplit(".", 1)[-1] in _SET_ANNOTATION_NAMES
    return False


def _collect_aliases(tree: ast.Module) -> dict[str, str]:
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                aliases[item.asname or item.name.split(".", 1)[0]] = (
                    item.name if item.asname else item.name.split(".", 1)[0]
                )
                if item.asname:
                    aliases[item.asname] = item.name
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for item in node.names:
                if item.name == "*":
                    continue
                aliases[item.asname or item.name] = f"{node.module}.{item.name}"
    return aliases


def _collect_class_info(node: ast.ClassDef) -> ClassInfo:
    info = ClassInfo(name=node.name)
    for child in node.body:
        if isinstance(child, ast.AnnAssign) and isinstance(child.target, ast.Name):
            if is_set_annotation(child.annotation):
                info.set_attrs.add(child.target.id)
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if is_set_annotation(child.returns):
                info.set_returning_methods.add(child.name)
            for stmt in ast.walk(child):
                target = None
                if isinstance(stmt, ast.AnnAssign) and is_set_annotation(stmt.annotation):
                    target = stmt.target
                elif isinstance(stmt, ast.Assign) and _is_set_literalish(stmt.value):
                    if len(stmt.targets) == 1:
                        target = stmt.targets[0]
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    info.set_attrs.add(target.attr)
    return info


def _is_set_literalish(expr: ast.AST) -> bool:
    """Shallow: is this expression unambiguously a set, with no context needed?"""
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return True
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
        return expr.func.id in ("set", "frozenset")
    return False


def build_module_info(path: Path, rel_path: str, source: str) -> ModuleInfo:
    tree = ast.parse(source, filename=str(path))
    lines = source.splitlines()
    info = ModuleInfo(
        path=path,
        rel_path=rel_path,
        source=source,
        lines=lines,
        tree=tree,
        aliases=_collect_aliases(tree),
        pragmas=extract_pragmas(lines),
    )
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and is_set_annotation(node.returns):
            info.set_returning_functions.add(node.name)
        elif isinstance(node, ast.ClassDef):
            info.classes[node.name] = _collect_class_info(node)
    for parent in ast.walk(tree):
        for child in ast.iter_child_nodes(parent):
            info.parents[child] = parent
    return info
