"""A ratchet on the production surface: everything ``src/repro`` defines, ``src/repro`` uses.

A module-level function, class or constant passes when some production
code other than its own definition refers to it: as a name, an attribute,
or a string equal to the name (the lazy export tables, the registries).
Its ``__all__`` entry and its imports do not count.  A definition decorated
``@register_...(...)`` passes, because its registry calls it, and so does
every name ``repro.api.__all__`` exports.

A method or field passes when production reads it.  Each attribute load's
receiver is resolved to the classes it can be (:class:`_Program`): ``self``
and ``cls``; parameters and locals annotated with a class (``Optional[X]``,
``X | None`` and string annotations included); ``X(...)`` results and the
module-level instances they make; fields assigned such values or annotated
parameters; and chains through annotated fields, properties, return types
and containers.  A resolved load uses the member it finds up the class's
MRO and every override below it, because a base's ``self.m()`` dispatches
there; a load on a value production does not define (an ``int``, a numpy
array, a module outside ``repro``) uses nothing.  A load whose receiver stays
unresolved, or is a ``Protocol`` or a callable, uses every same-named
member: the name rule is the fallback, so nothing the name rule fails passes.
A string counts as a member's name only as the attribute ``getattr``,
``hasattr`` or ``attrgetter`` reads, or as a key of a lazy export table.
A field is a ``self.X`` assignment or a class-level annotation; writes
(``self.X += 1`` included) and keyword arguments (a dataclass
constructor's ``X=``) do not count, so a counter nothing reads fails.
``python tests/test_surface.py`` lists the members that pass only through
an unresolved load: where the next batch of dead surface is looked for.

A name or field production does not use stays only on
``surface_allowlist.json``, keyed ``module:qualified.name`` with a one-line
reason: a test oracle (the reason names the test that reads it), or what
``bench/`` or ``examples/`` read.  An entry covers the overrides of the
method it names, and a protocol's method is covered while a class that
implements the protocol has it in use.  An entry may also name a parameter
that ``bench/`` passes.  Like ``tests/perf/call_budget.json``, the file is
kept exact: an entry fails once its definition is gone or nothing at all
(production, tests, ``bench/``, ``benchmarks/``, ``examples/``) uses it;
for a field, uses are loads.
"""

from __future__ import annotations

import ast
import builtins
import json
import tomllib
from collections import Counter, defaultdict
from functools import cached_property, lru_cache
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
def parse(source: str) -> ast.Module:
    return ast.parse(source)


@lru_cache(maxsize=None)
def analyse(source: str) -> tuple[tuple, tuple, frozenset, tuple, frozenset]:
    """(definitions, references, keyword names, fields, loads) of one module.

    A definition is ``(name, qualified name, first line, last line)``; a
    reference is ``(name, line)``; a field is ``(name, qualified name)``.
    The loads are the attribute names read and the identifier strings: what
    counts as a use of a field.
    """
    tree = parse(source)
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
    named, strings = [], []
    loads = set()
    for node in ast.walk(tree):
        if id(node) in exported:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            references.append((node.id, node.lineno))
            named.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            references.append((node.attr, node.lineno))
            loads.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                references.append((node.value, node.lineno))
                strings.append((node.value, node.lineno))
                loads.add(node.value)
    keywords = frozenset(
        node.arg for node in ast.walk(tree) if isinstance(node, ast.keyword) and node.arg
    )
    return (
        tuple(definitions), tuple(references), keywords, _fields(tree), frozenset(loads),
        tuple(named), tuple(strings),
    )


# -- receivers ------------------------------------------------------------------

#: a value of a type production does not define: a load on it uses no production definition
EXT = ("ext",)
NONE = ("none",)
_SCALARS = {"int", "float", "str", "bool", "bytes"}
_SEQUENCES = {
    "list", "set", "frozenset", "deque", "Iterable", "Iterator", "Sequence", "Collection",
    "Generator",
}
_MAPPINGS = {"dict", "Mapping", "OrderedDict"}
#: builtins that return a sequence of their argument's elements
_SEQUENCE_BUILTINS = {"list", "set", "frozenset", "sorted", "reversed", "iter", "tuple"}
_BASE_CLASSES = {"object", "ABC", "Generic"}
#: annotations that say nothing of the value's type
_UNKNOWN = {"object", "Any", "Callable"}


def _union(*syms):
    """The sym of a value that may be any of ``syms``; None (unresolved) if any is."""
    flat = set()
    for sym in syms:
        if sym is None:
            return None
        flat.update(sym[1] if sym[0] == "union" else (sym,))
    return flat.pop() if len(flat) == 1 else ("union", frozenset(flat))


def _wrap(kind, sym, *rest):
    return None if sym is None else (kind, sym, *rest)


class _Class:
    """What a class body says: its bases and the types of its members."""

    def __init__(self, bases):
        self.bases = bases
        self.methods = {}  # name -> (return annotation, is a property)
        self.declared = defaultdict(list)  # name -> annotations
        self.assigned = defaultdict(list)  # name -> (scope, thunk, path)
        self.nested = {}  # name -> qualified name
        self.members = frozenset()


class _Scope:
    """One function, lambda, comprehension or module: its bindings, resolved lazily."""

    def __init__(self, facts, parent=None):
        self.facts, self.parent = facts, parent
        self.bindings = defaultdict(list)  # name -> (thunk, path)
        self.declared = defaultdict(list)  # name -> annotations
        self.owner = self.self_name = self.self_sym = None
        self.memo = {}

    def resolve(self, name):
        if name not in self.memo:
            self.memo[name] = None  # a binding that reads itself is unresolved
            if self.declared.get(name):
                sym = _union(*map(self.facts.annotation, self.declared[name]))
            else:
                sym = _union(*(self.thunk(*binding) for binding in self.bindings[name]))
            self.memo[name] = sym
        return self.memo[name]

    def lookup(self, name):
        scope = self
        while scope is not None:
            if name in scope.bindings or name in scope.declared:
                return scope.resolve(name)
            scope = scope.parent
        return ("builtin", name) if name in _BUILTINS else None

    def thunk(self, thunk, path):
        if thunk is None:
            sym = None
        elif thunk[0] == "expr":
            sym = self.facts.expr(thunk[1], self)
        elif thunk[0] == "iter":
            sym = _wrap("iter", self.facts.expr(thunk[1], self))
        else:
            sym = thunk[1]
        for index in path:
            if sym is not None and sym[0] == "tup" and index < len(sym[1]):
                sym = sym[1][index]
            else:
                sym = _wrap("index", sym, index)
        return sym

    def enclosing_self(self):
        scope = self
        while scope is not None and scope.self_sym is None:
            scope = scope.parent
        return None if scope is None else scope.self_sym


_BUILTINS = frozenset(dir(builtins))
_SCOPES = (
    ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda,
    ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp,
)


def _shallow(nodes):
    """Every node under ``nodes`` that belongs to their scope (nested scopes are yielded, not entered)."""
    stack = list(nodes)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def _decorated(node, *names):
    return any(
        getattr(decorator, "id", None) in names or getattr(decorator, "attr", None) in names
        for decorator in node.decorator_list
    )


class _Facts:
    """One module's receivers, symbolically: what each name, member and attribute load can be.

    A sym is a tuple naming a value's type in terms the whole program
    resolves (see :class:`_Program`): ``("class", module, qualified)``,
    ``("from", module, name)`` for an import, ``("attr", sym, name)``,
    ``("call", sym, name)``, ``("new", sym)`` for a call of a name, and
    containers (``seq``, ``map``, ``tup``) with ``iter``, ``item`` and
    ``index`` into them.  None is a value nothing resolves.
    """

    def __init__(self, module: str, tree: ast.Module):
        self.module, self.package = module, module.rpartition(".")[0]
        self.classes = {}  # qualified name -> _Class
        self.returns = {}  # module function -> return annotation
        self.loads = defaultdict(list)  # (attribute, receiver sym) -> lines
        self.strings = set()  # getattr/hasattr/attrgetter names and lazy export keys
        self.comprehensions = {}
        self.getters, self.name_loads, self.mapped = [], Counter(), Counter()
        self.scope = _Scope(self)
        self.collect(self.scope, tree.body)
        self.visit(self.scope, tree.body)
        self.spell_getters()
        for cls in self.classes.values():
            cls.members = frozenset([*cls.methods, *cls.declared, *cls.assigned, *cls.nested])
            cls.declared = {k: _union(*map(self.annotation, v)) for k, v in cls.declared.items()}
            cls.assigned = {
                k: _union(*(scope.thunk(thunk, path) for scope, thunk, path in v))
                for k, v in cls.assigned.items()
            }
            cls.methods = {
                k: (self.annotation(returns) if returns else None, prop)
                for k, (returns, prop) in cls.methods.items()
            }
        self.returns = {k: self.annotation(v) if v else None for k, v in self.returns.items()}
        self.tops = {name: self.scope.resolve(name) for name in list(self.scope.bindings)}

    # -- pass 1: what each name of a scope is bound to ------------------------------

    def bind(self, scope, target, thunk, path=()):
        if isinstance(target, ast.Name):
            scope.bindings[target.id].append((thunk, path))
        elif isinstance(target, (ast.Tuple, ast.List)):
            for index, element in enumerate(target.elts):
                self.bind(scope, element, thunk, path + (index,))
        elif isinstance(target, ast.Starred):
            self.bind(scope, target.value, None)
        elif (
            isinstance(target, ast.Attribute) and scope.owner is not None
            and getattr(target.value, "id", None) == scope.self_name
        ):
            scope.owner.assigned[target.attr].append((scope, thunk, path))

    def collect(self, scope, body):
        for node in _shallow(body):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    self.bind(scope, target, ("expr", node.value))
            elif isinstance(node, ast.AnnAssign):
                if isinstance(node.target, ast.Name):
                    scope.declared[node.target.id].append(node.annotation)
                elif scope.owner is not None and getattr(node.target.value, "id", None) == scope.self_name:
                    scope.owner.declared[node.target.attr].append(node.annotation)
            elif isinstance(node, (ast.AugAssign, ast.withitem)):
                self.bind(scope, getattr(node, "target", None) or node.optional_vars, None)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                self.bind(scope, node.target, ("iter", node.iter))
            elif isinstance(node, ast.NamedExpr):
                self.bind(scope, node.target, ("expr", node.value))
            elif isinstance(node, ast.ExceptHandler) and node.name:
                scope.bindings[node.name].append((None, ()))
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if scope.parent is not None:
                    sym = None
                elif isinstance(node, ast.ClassDef):
                    sym = ("class", self.module, node.name)
                else:
                    sym = ("func", self.module, node.name)
                    self.returns[node.name] = node.returns
                scope.bindings[node.name].append((("sym", sym), ()))
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    name = alias.name if alias.asname else alias.name.partition(".")[0]
                    sym = ("pmod", name) if name.split(".")[0] == "repro" else ("extmod", name)
                    scope.bindings[alias.asname or name].append((("sym", sym), ()))
            elif isinstance(node, ast.ImportFrom):
                base = self.package
                for _ in range(node.level - 1):
                    base = base.rpartition(".")[0]
                source = f"{base}.{node.module}" if node.level and node.module else (
                    base if node.level else node.module
                )
                for alias in node.names:
                    sym = ("from", source, alias.name) if source.split(".")[0] == "repro" else (
                        "extname", alias.name
                    )
                    scope.bindings[alias.asname or alias.name].append((("sym", sym), ()))
            if (
                scope.parent is None and isinstance(node, ast.Assign)
                and getattr(node.targets[0], "id", None) == "_EXPORTS"
                and isinstance(node.value, ast.Dict)
            ):
                for key, value in zip(node.value.keys, node.value.values):
                    self.strings.add(key.value)
                    scope.bindings.setdefault(key.value, [(("sym", ("from", value.value, key.value)), ())])

    # -- pass 2: every attribute load and its receiver -------------------------------

    def visit(self, scope, body, owner=None, prefix=""):
        stack = list(body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                stack.extend([*node.decorator_list, node.args])
                stack.extend([node.returns] if node.returns else [])
                self.function(scope, node, owner, prefix)
                continue
            if isinstance(node, ast.ClassDef):
                stack.extend([*node.decorator_list, *node.bases, *node.keywords])
                if scope.parent is None or owner is not None:
                    self.cls(scope, node, owner, prefix)
                else:
                    self.visit(scope, node.body)
                continue
            if isinstance(node, ast.Lambda):
                stack.extend(node.args.defaults)
                child = _Scope(self, scope)
                for argument in node.args.args + node.args.kwonlyargs:
                    child.bindings[argument.arg].append((None, ()))
                self.visit(child, [node.body])
                continue
            if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                child = self.comprehension(node, scope)
                parts = [node.key, node.value] if isinstance(node, ast.DictComp) else [node.elt]
                self.visit(child, parts + node.generators)
                continue
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                self.loads[node.attr, self.expr(node.value, scope)].append(node.lineno)
            elif isinstance(node, ast.Call):
                self.note_call(node, scope)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                self.name_loads[node.id] += 1
            stack.extend(ast.iter_child_nodes(node))

    def comprehension(self, node, scope):
        """The scope a comprehension binds its targets in (one per comprehension)."""
        if node not in self.comprehensions:
            child = self.comprehensions[node] = _Scope(self, scope)
            for generator in node.generators:
                self.bind(child, generator.target, ("iter", generator.iter))
        return self.comprehensions[node]

    def note_call(self, node, scope):
        """Note the names ``getattr``, ``hasattr`` and ``attrgetter`` read, and ``map(getter, xs)``."""
        callee = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        if callee in ("getattr", "hasattr"):
            self.spell(node.args[1:2])
        elif callee == "attrgetter":
            self.getters.append(node)
        elif callee == "map" and len(node.args) == 2 and isinstance(node.args[0], ast.Name):
            getter = self.expr(node.args[0], scope)
            if getter is not None and getter[0] == "getter":
                self.mapped[node.args[0].id] += 1
                receiver = _wrap("iter", self.expr(node.args[1], scope))
                self.loads[getter[1], receiver].append(node.lineno)

    def spell(self, names):
        for name in names:
            if isinstance(name, ast.Constant) and isinstance(name.value, str):
                self.strings.update(name.value.split("."))

    def spell_getters(self):
        """The names of every ``attrgetter`` but a module-level one only ``map`` applies.

        ``map`` applying one was a load on its iterable's elements (see
        :meth:`note_call`), so its name need not match every same-named field.
        """
        mapped = set()
        for name, count in self.mapped.items():
            bindings = self.scope.bindings[name]
            if count == self.name_loads[name] and len(bindings) == 1 and bindings[0][0]:
                (_, value), path = bindings[0]
                for index in path:
                    value = value.elts[index]
                mapped.add(value)
        for node in self.getters:
            if node not in mapped:
                self.spell(node.args)

    def function(self, scope, node, owner, prefix):
        child = _Scope(self, scope)
        positional = node.args.posonlyargs + node.args.args
        for index, argument in enumerate(positional + node.args.kwonlyargs):
            if argument.annotation is not None:
                child.declared[argument.arg].append(argument.annotation)
            elif index == 0 and owner is not None and not _decorated(node, "staticmethod"):
                child.self_sym = ("class", self.module, prefix.rstrip("."))
                child.owner, child.self_name = owner, argument.arg
                child.bindings[argument.arg].append((("sym", child.self_sym), ()))
            else:
                child.bindings[argument.arg].append((None, ()))
        for argument in (node.args.vararg, node.args.kwarg):
            if argument is not None:
                child.bindings[argument.arg].append((None, ()))
        self.collect(child, node.body)
        self.visit(child, node.body)

    def cls(self, scope, node, outer, prefix):
        qualified = prefix + node.name
        bases = [
            self.expr(base.value if isinstance(base, ast.Subscript) else base, self.scope)
            for base in node.bases
        ]
        cls = self.classes[qualified] = _Class(bases)
        if outer is not None:
            outer.nested[node.name] = qualified
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not _decorated(item, "setter", "deleter"):
                    cls.methods[item.name] = (
                        item.returns, _decorated(item, "property", "cached_property")
                    )
            elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                cls.declared[item.target.id].append(item.annotation)
            elif isinstance(item, ast.Assign):
                for target in item.targets:
                    if isinstance(target, ast.Name):
                        cls.assigned[target.id].append((scope, ("expr", item.value), ()))
        self.visit(scope, node.body, cls, qualified + ".")

    # -- syms ----------------------------------------------------------------------

    def annotation(self, node):
        if isinstance(node, ast.Constant):
            if node.value is None:
                return NONE
            if not isinstance(node.value, str):
                return None
            try:
                node = ast.parse(node.value, mode="eval").body
            except SyntaxError:
                return None
            return self.annotation(node)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
            return _union(self.annotation(node.left), self.annotation(node.right))
        if isinstance(node, ast.Subscript):
            head = getattr(node.value, "id", None) or getattr(node.value, "attr", None)
            args = node.slice.elts if isinstance(node.slice, ast.Tuple) else [node.slice]
            if head == "Optional":
                return _union(self.annotation(args[0]), NONE)
            if head == "Union":
                return _union(*map(self.annotation, args))
            if head == "Callable":
                return ("fn", self.annotation(args[-1]))
            if head in _MAPPINGS:
                value = self.annotation(args[1]) if len(args) > 1 else EXT
                return ("map", self.annotation(args[0]), value)
            if head == "tuple":
                if len(args) == 2 and getattr(args[1], "value", None) is Ellipsis:
                    return ("seq", self.annotation(args[0]))
                return ("tup", tuple(map(self.annotation, args)))
            return ("seq", self.annotation(args[0])) if head in _SEQUENCES else None
        if isinstance(node, ast.Name):
            if node.id in _SCALARS:
                return EXT
            bindings = self.scope.bindings.get(node.id, ())
            thunk = bindings[0][0] if len(bindings) == 1 else None
            if thunk and thunk[0] == "expr" and isinstance(thunk[1], (ast.Subscript, ast.BinOp)):
                return self.annotation(thunk[1])  # a type alias: the type it names
            sym = self.scope.lookup(node.id)
            return None if sym is None or sym[-1] in _UNKNOWN else sym
        if isinstance(node, ast.Attribute):
            sym = self.expr(node.value, self.scope)
            return EXT if sym is not None and sym[0] == "extmod" else _wrap("attr", sym, node.attr)
        return None

    def expr(self, node, scope):
        if isinstance(node, ast.Name):
            return scope.lookup(node.id)
        if isinstance(node, ast.Attribute):
            return _wrap("attr", self.expr(node.value, scope), node.attr)
        if isinstance(node, ast.Call):
            return self.call(node, scope)
        if isinstance(node, ast.Subscript):
            value = self.expr(node.value, scope)
            return value if isinstance(node.slice, ast.Slice) else _wrap("item", value)
        if isinstance(node, ast.IfExp):
            return _union(self.expr(node.body, scope), self.expr(node.orelse, scope))
        if isinstance(node, ast.BoolOp):
            return _union(*(self.expr(value, scope) for value in node.values))
        if isinstance(node, ast.Tuple):
            return ("tup", tuple(self.expr(element, scope) for element in node.elts))
        if isinstance(node, (ast.List, ast.Set)):
            elements = [self.expr(element, scope) for element in node.elts]
            return ("seq", _union(*elements) if elements else None)
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            return ("seq", self.expr(node.elt, self.comprehension(node, scope)))
        if isinstance(node, ast.DictComp):
            child = self.comprehension(node, scope)
            return ("map", self.expr(node.key, child), self.expr(node.value, child))
        if isinstance(node, ast.Constant):
            return NONE if node.value is None else EXT
        if isinstance(node, (ast.JoinedStr, ast.Compare)):
            return EXT
        return None

    def call(self, node, scope):
        args = [self.expr(arg, scope) for arg in node.args]
        if isinstance(node.func, ast.Attribute):
            return _wrap("call", self.expr(node.func.value, scope), node.func.attr)
        if not isinstance(node.func, ast.Name):
            return None
        callee = scope.lookup(node.func.id)
        if callee is None or callee[0] not in ("builtin", "extname"):
            return _wrap("new", callee)
        name = callee[1]
        if callee[0] == "extname":
            attribute = getattr(node.args[0], "value", None) if len(node.args) == 1 else None
            is_getter = name == "attrgetter" and str(attribute).isidentifier()
            return ("getter", attribute) if is_getter else None
        if name == "super":
            return scope.enclosing_self()
        if name in _SEQUENCE_BUILTINS:
            return ("seq", _wrap("iter", args[0]) if args else None)
        if name == "enumerate" and args:
            return ("seq", ("tup", (EXT, _wrap("iter", args[0]))))
        if name == "zip":
            return ("seq", ("tup", tuple(_wrap("iter", arg) for arg in args)))
        return None


@lru_cache(maxsize=None)
def facts(module: str, source: str) -> _Facts:
    return _Facts(module, parse(source))


def _merge(parts):
    """The union of atom sets; None (unresolved) when any part is."""
    out = set()
    for part in parts:
        if part is None:
            return None
        out |= part
    return frozenset(out)


class _Program:
    """Every production module's facts, joined: what each sym can be, and what each load uses.

    An atom is ``("cls", module, qualified)``, ``("func", module, name)``,
    ``("mod", module)``, :data:`EXT`, or a container ``("seq", atoms)``,
    ``("map", atoms, atoms)``, ``("tup", (atoms, ...))``.  ``only``, when
    given, limits the uses noted to those of the names it holds.
    """

    def __init__(self, sources: dict[str, str], only: frozenset[str] | None = None):
        self.facts = {module: facts(module, source) for module, source in sources.items()}
        self.classes = {
            (module, qualified): cls
            for module, found in self.facts.items()
            for qualified, cls in found.classes.items()
        }
        self.memo = {}
        self.bases = {key: [] for key in self.classes}
        self.subclasses = defaultdict(list)
        self.protocols, self.external = set(), set()
        for key, cls in self.classes.items():
            for base in cls.bases:
                if base == ("extname", "Protocol"):
                    self.protocols.add(key)
                    continue
                atoms = self.atoms(base) or frozenset()
                production = [atom[1:] for atom in atoms if atom[0] == "cls"]
                self.bases[key] += production
                for parent in production:
                    self.subclasses[parent].append(key)
                if not production and (base is None or base[-1] not in _BASE_CLASSES):
                    self.external.add(key)
        self.sources, self.only = sources, only
        self.mros, self.found, self.verdicts = {}, {}, {}
        self.used, self.fallback = defaultdict(list), defaultdict(list)
        self.strings = set()
        for module, found in self.facts.items():
            self.strings |= found.strings
            for (attribute, sym), lines in found.loads.items():
                if only is not None and attribute not in only:
                    continue
                sites = [(module, line) for line in lines]
                targets = self.targets(attribute, self.atoms(sym))
                if targets is None:
                    self.fallback[attribute] += sites
                for cls in targets or ():
                    self.used[cls + (attribute,)] += sites

    def sites(self, part):
        """``(module, line)`` of the name loads (``part`` 5) or identifier strings (6), by name."""
        found = defaultdict(list)
        for module, source in self.sources.items():
            for name, line in analyse(source)[part]:
                if self.only is None or name in self.only:
                    found[name].append((module, line))
        return found

    @cached_property
    def named(self):
        return self.sites(5)

    @cached_property
    def spelled(self):
        return self.sites(6)

    def mro(self, key):
        if key not in self.mros:
            self.mros[key] = order = [key]
            for base in self.bases[key]:
                order += [cls for cls in self.mro(base) if cls not in order]
        return self.mros[key]

    def below(self, key):
        found, stack = [], list(self.subclasses[key])
        while stack:
            cls = stack.pop()
            if cls not in found:
                found.append(cls)
                stack.extend(self.subclasses[cls])
        return found

    def defining(self, key, name):
        """The classes a load of ``name`` on ``key`` may read it from: up the MRO and overrides below."""
        if (key, name) not in self.found:
            self.found[key, name] = [
                cls for cls in self.mro(key) + self.below(key) if name in self.classes[cls].members
            ]
        return self.found[key, name]

    def targets(self, attribute, atoms):
        """The classes a load of ``attribute`` on ``atoms`` reads, or None for a name match.

        A module receiver reads the module's own definitions: ``("mod",)``.
        """
        if (attribute, atoms) not in self.verdicts:
            targets = []
            for atom in atoms or (None,):
                if atom is None or atom[0] == "fn" or atom[0] == "cls" and (
                    any(cls in self.protocols for cls in self.mro(atom[1:]))
                    or not self.defining(atom[1:], attribute) and not any(
                        cls in self.external for cls in self.mro(atom[1:])
                    )
                ):
                    targets = None
                    break
                if atom[0] == "cls":
                    targets += self.defining(atom[1:], attribute)
                elif atom[0] == "mod":
                    targets.append(("mod",))
            self.verdicts[attribute, atoms] = targets
        return self.verdicts[attribute, atoms]

    def key(self, module):
        for key in (module, f"{module}.__init__"):
            if key in self.facts:
                return key
        return None

    def global_(self, key, name):
        found = self.facts[key]
        if name in found.tops:
            return self.atoms(found.tops[name])
        package = key.removesuffix(".__init__")
        submodule = self.key(f"{package}.{name}")
        return frozenset({("mod", submodule)}) if submodule else None

    def atoms(self, sym):
        if sym is None:
            return None
        if sym not in self.memo:
            self.memo[sym] = None  # a sym that needs itself is unresolved
            self.memo[sym] = self.resolve(sym)
        return self.memo[sym]

    def resolve(self, sym):
        kind = sym[0]
        if kind == "class":
            return frozenset({("cls", sym[1], sym[2])})
        if kind == "func":
            return frozenset({sym})
        if kind in ("ext", "extname", "extmod", "builtin", "getter"):
            return frozenset({EXT})
        if kind == "none":
            return frozenset()
        if kind == "union":
            return _merge(map(self.atoms, sym[1]))
        if kind == "pmod":
            key = self.key(sym[1])
            return frozenset({("mod", key)}) if key else None
        if kind == "from":
            submodule, key = self.key(f"{sym[1]}.{sym[2]}"), self.key(sym[1])
            if submodule:
                return frozenset({("mod", submodule)})
            return self.global_(key, sym[2]) if key else None
        if kind in ("seq", "fn"):
            return frozenset({(kind, self.atoms(sym[1]))})
        if kind == "map":
            return frozenset({("map", self.atoms(sym[1]), self.atoms(sym[2]))})
        if kind == "tup":
            return frozenset({("tup", tuple(map(self.atoms, sym[1])))})
        inner = self.atoms(sym[1])
        if inner is None:
            return None
        return _merge(self.apply(kind, atom, sym[2:]) for atom in inner)

    def apply(self, kind, atom, rest):
        """What ``kind`` (``new``, ``attr``, ``call``, ``iter``, ``item``, ``index``) of ``atom`` is."""
        what = atom[0]
        if kind == "new":
            if what == "cls":
                return frozenset({atom})
            return self.atoms(self.facts[atom[1]].returns.get(atom[2])) if what == "func" else None
        if kind in ("attr", "call"):
            name = rest[0]
            if what == "mod":
                found = self.global_(atom[1], name)
                if kind == "attr" or found is None:
                    return found
                return _merge(self.apply("new", inner, ()) for inner in found)
            if what == "map" and kind == "call":
                key, value = atom[1], atom[2]
                if name in ("get", "pop", "setdefault"):
                    return value
                views = {"keys": key, "values": value, "items": frozenset({("tup", (key, value))})}
                return frozenset({("seq", views[name])}) if name in views else None
            if what != "cls":
                return None
            parts = []
            for cls in self.defining(atom[1:], name) or [None]:
                if cls is None:
                    return None
                found = self.classes[cls]
                if name in found.nested:
                    parts.append(frozenset({("cls", cls[0], found.nested[name])}))
                elif name in found.methods:
                    returns, prop = found.methods[name]
                    parts.append(self.atoms(returns) if prop == (kind == "attr") else None)
                else:
                    value = self.atoms(found.declared.get(name, found.assigned.get(name)))
                    if kind == "call":  # a callable field: what it returns
                        callable_ = value is not None and all(part[0] == "fn" for part in value)
                        value = _merge(part[1] for part in value) if callable_ else None
                    parts.append(value)
            return _merge(parts)
        if what == "seq" and kind in ("iter", "item", "index"):
            return atom[1]
        if what == "map" and kind in ("iter", "item"):
            return atom[1] if kind == "iter" else atom[2]
        if what == "tup":
            if kind == "index":
                return atom[1][rest[0]] if rest[0] < len(atom[1]) else None
            return _merge(atom[1])
        return None


@lru_cache(maxsize=1)
def _production_sources() -> tuple[tuple[str, str], ...]:
    return tuple(
        (".".join(path.relative_to(SRC.parent).with_suffix("").parts), path.read_text("utf-8"))
        for path in sorted(SRC.rglob("*.py"))
    )


def production_sources() -> dict[str, str]:
    """Each production module's source, keyed by its dotted name (a fresh dict to edit)."""
    return dict(_production_sources())


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
        _, references, keywords, *_ = analyse(source)
        names.update(name for name, _ in references)
        names.update(keywords)
    return names


def loaded(sources) -> set[str]:
    """Every attribute name and identifier string the given modules read."""
    return {name for source in sources for name in analyse(source)[4]}


def public_api(sources: dict[str, str]) -> set[str]:
    """The names ``repro.api.__all__`` lists (the keys of its export table)."""
    for node in parse(sources["repro.api.__init__"]).body:
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", "") == "_EXPORTS":
            return {key.value for key in node.value.keys}
    raise AssertionError("repro.api's export table moved; update public_api()")


@lru_cache(maxsize=4)
def _program(sources: tuple[tuple[str, str], ...], only: frozenset[str] | None) -> _Program:
    return _Program(dict(sources), only)


def unused(
    sources: dict[str, str], strict: bool = False, only: frozenset[str] | None = None
) -> list[str]:
    """``module:qualified.name`` of every definition no other production code uses.

    ``strict`` counts only the loads whose receiver resolves to the
    method's class: a method that passes without it survives on a name match.
    ``only`` judges just the definitions of the names it holds.
    """
    program = _program(tuple(sources.items()), only)
    named, spelled = program.named, program.spelled
    api = public_api(sources)
    found = []
    for module, source in sources.items():
        for name, qualified, first, last in analyse(source)[0]:
            cls = qualified.rpartition(".")[0]
            if name in api or only is not None and name not in only:
                continue
            if cls:
                sites = program.used[module, cls, name]
                if name in program.strings:
                    continue
                if not strict:
                    sites = sites + program.fallback[name]
            else:
                sites = named[name] + spelled[name] + program.fallback[name] + program.used["mod", name]
            if not any(where != module or not first <= line <= last for where, line in sites):
                found.append(f"{module}:{qualified}")
    return sorted(found)


def unused_fields(
    sources: dict[str, str], strict: bool = False, only: frozenset[str] | None = None
) -> list[str]:
    """``module:Class.field`` of every field no production code loads (see :func:`unused`)."""
    program = _program(tuple(sources.items()), only)
    return sorted(
        f"{module}:{qualified}"
        for module, source in sources.items()
        for name, qualified in analyse(source)[3]
        if (only is None or name in only) and not (
            program.used[(module, qualified.rpartition(".")[0], name)]
            or name in program.strings
            or not strict and program.fallback[name]
        )
    )


def allowlist() -> dict[str, str]:
    return json.loads(ALLOWLIST.read_text("utf-8"))


def defined(source: str, qualified: str) -> bool:
    """True when ``qualified`` is still defined in ``source``.

    It may name a function, class or method; a module constant; a class
    attribute or an attribute a method assigns on ``self``; or a parameter.
    """
    tree = parse(source)
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


def covered(sources: dict[str, str], dead: list[str]) -> set[str]:
    """The allowlist's keys, with the methods its entries and live code cover.

    A use of an allowlisted method may dispatch to any override of it, and
    a protocol's method is live while a class that implements the protocol
    has that method live (used by production or allowlisted).
    """
    allowed = set(allowlist())
    program = _program(tuple(sources.items()), None)

    def key(cls, name):
        return f"{cls[0]}:{cls[1]}.{name}"

    for cls, found in program.classes.items():
        for name in found.methods:
            if any(key(base, name) in allowed for base in program.mro(cls)[1:]):
                allowed.add(key(cls, name))
    live = {key(cls, name) for cls, found in program.classes.items() for name in found.methods}
    live = (live - set(dead)) | allowed
    for protocol in program.protocols:
        declared = program.classes[protocol]
        for cls in program.classes.keys() - program.protocols:
            has = {name for base in program.mro(cls) for name in program.classes[base].members}
            if declared.members <= has:
                allowed.update(
                    key(protocol, name) for name in declared.methods
                    if any(key(base, name) in live for base in program.mro(cls))
                )
    return allowed


def test_every_production_name_is_used_by_production_or_allowlisted():
    sources = production_sources()
    dead = unused(sources)
    allowed = covered(sources, dead)
    found = [key for key in dead if key not in allowed]
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
    # escapes a same-named use let through the name rule
    ("repro.world.coords", "ChunkPos", "neighbours"),
    ("repro.sim.rng", "RandomStreams", "seed"),
    ("repro.faults.plan", "FaultPlan", "empty"),
    # batch 5
    ("repro.constructs.circuit", "SimulatedConstruct", "contains"),
    ("repro.world.chunk", "Chunk", "contains"),
    ("repro.world.chunk", "Chunk", "block_count"),
    ("repro.constructs.state", "ConstructState", "value"),
    ("repro.faults.injector", "FaultTimeline", "count"),
    ("repro.sim.clock", "SimulationClock", "advance"),
    ("repro.experiments.cluster_scalability", "ClusterScalabilityResult", "row"),
    ("repro.faas.function", "Invocation", "overhead_ms"),
    ("repro.core.speculative", "SpeculativeConstructBackend", "efficiency_samples"),
    ("repro.cluster.coordinator", "ClusterCoordinator", "remove_construct"),
    ("repro.core.servo", "ServoRuntime", "cost_per_hour_usd"),
    ("repro.faas.billing", "BillingModel", "cost_per_hour_usd"),
    ("repro.faas.billing", "BillingModel", "invocations_per_minute"),
    ("repro.faas.billing", "BillingModel", "invocation_count"),
    ("repro.experiments.fig09_latency_invocations", "Fig09Result", "cost_per_hour_usd"),
    ("repro.experiments.fig09_latency_invocations", "Fig09Result", "invocations_per_minute"),
    ("repro.faults.plan", "FaultPlan", "to_json"),
    ("repro.faults.plan", "FaultPlan", "from_json"),
]


def put_back(source: str, cls: str | None, name: str) -> str:
    """``source`` with a method ``name`` appended to ``cls`` (or a module function)."""
    lines = source.splitlines()
    if cls is None:
        return "\n".join(lines + ["", "", f"def {name}(value):", "    return value", ""])
    node = next(
        node for node in parse(source).body
        if isinstance(node, ast.ClassDef) and node.name == cls
    )
    method = ["", f"    def {name}(self):", "        return self", ""]
    return "\n".join(lines[: node.end_lineno] + method + lines[node.end_lineno :])


def _ids(cases) -> list[str]:
    """Each case's name, qualified by its class where two cases share the name."""
    names = [name for _, _, name in cases]
    return [name if names.count(name) == 1 else f"{cls}.{name}" for _, cls, name in cases]


@pytest.mark.parametrize("module, cls, name", PUT_BACK, ids=_ids(PUT_BACK))
def test_a_deleted_name_put_back_fails_the_ratchet(module, cls, name):
    sources = production_sources()
    sources[module] = put_back(sources[module], cls, name)
    qualified = f"{cls}.{name}" if cls else name
    assert f"{module}:{qualified}" in unused(sources, only=frozenset({name}))


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
    # an escape: production passes the string "messages_rejected" to increment
    ("repro.server.gameloop", "ServerStatistics", "messages_rejected"),
    # batch 5
    ("repro.workload.scenarios", "ScenarioResult", "server_name"),
    ("repro.faas.billing", "InvocationCharge", "function_name"),
    ("repro.faas.billing", "InvocationCharge", "time_ms"),
    ("repro.faas.billing", "InvocationCharge", "memory_mb"),
    ("repro.faas.function", "Invocation", "memory_mb"),
    ("repro.experiments.fig08_efficiency", "OffloadRunResult", "tick_lead"),
    ("repro.experiments.fig08_efficiency", "OffloadRunResult", "steps"),
    ("repro.server.gameloop", "ServerStatistics", "blocks_placed"),
    ("repro.server.gameloop", "ServerStatistics", "blocks_broken"),
    ("repro.server.chunkmanager", "OwnershipRegion", "zone_id"),
    ("repro.cluster.coordinator", "ShardRecoveryRecord", "shard_name"),
    ("repro.cluster.coordinator", "ShardRecoveryRecord", "killed_round"),
    ("repro.cluster.coordinator", "ShardRecoveryRecord", "killed_ms"),
    ("repro.cluster.coordinator", "_DeadShard", "shard_name"),
    ("repro.experiments.cluster_scalability", "ClusterMeasurement", "round_p99_ms"),
    ("repro.experiments.fig10_terrain_qos", "Fig10Result", "speed_increase_interval_s"),
    ("repro.experiments.fig12_terrain_scalability", "TerrainScalabilityRun", "workload"),
    ("repro.core.offload", "OffloadReply", "construct_id"),
    ("repro.core.offload", "OffloadReply", "simulated_steps"),
    ("repro.interest.subscriptions", "FlushReport", "far_due"),
    ("repro.faults.degradation", "DegradationController", "shedding_ticks"),
    ("repro.world.terrain", "TerrainGenerator", "world_type"),
    ("repro.core.offload", "OffloadReply", "loop_detected"),
]


def put_back_field(source: str, cls: str, name: str) -> str:
    """``source`` with a field ``name`` written on ``cls`` again, and never read."""
    lines = source.splitlines()
    node = next(
        node for node in parse(source).body
        if isinstance(node, ast.ClassDef) and node.name == cls
    )
    if node.decorator_list:  # a dataclass
        field = ["", f"    {name}: int = 0"]
    else:
        field = ["", "    def put_back(self):", f"        self.{name} = 0"]
    return "\n".join(lines[: node.end_lineno] + field + lines[node.end_lineno :])


@pytest.mark.parametrize("module, cls, name", PUT_BACK_FIELDS, ids=_ids(PUT_BACK_FIELDS))
def test_a_deleted_field_put_back_fails_the_ratchet(module, cls, name):
    sources = production_sources()
    sources[module] = put_back_field(sources[module], cls, name)
    assert f"{module}:{cls}.{name}" in unused_fields(sources, only=frozenset({name}))


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


if __name__ == "__main__":
    sources = production_sources()
    survivors = sorted(
        set(unused(sources, strict=True)) - set(unused(sources))
        | set(unused_fields(sources, strict=True)) - set(unused_fields(sources))
    )
    print(f"{len(survivors)} definitions production uses only through a name match:")
    print("\n".join(survivors))
