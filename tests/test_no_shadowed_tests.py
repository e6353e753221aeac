"""No test is silently replaced by a later definition of the same name.

Python keeps the last ``def`` of a name in a module or class body, so a
duplicated test name means the earlier test is collected never — it looks
covered and has not run since the copy was pasted.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TEST_TREES = ("tests", "bench/tests", "benchmarks")


def shadowed_tests(source: str) -> list[str]:
    """``scope.name`` of every test defined more than once in one module or class body."""
    tree = ast.parse(source)
    bodies = [("", tree.body)] + [
        (f"{node.name}.", node.body) for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
    ]
    return sorted(
        f"{scope}{name}"
        for scope, body in bodies
        for name, count in Counter(
            node.name
            for node in body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name.startswith(("test", "bench"))
        ).items()
        if count > 1
    )


def test_the_walk_finds_a_shadowed_test():
    source = "def test_a(): pass\nclass T:\n  def test_b(self): pass\n  def test_b(self): pass\n"
    assert shadowed_tests(source) == ["T.test_b"]
    assert shadowed_tests(source + "def test_a(): pass\n") == ["T.test_b", "test_a"]


def test_no_module_or_class_defines_a_test_name_twice():
    found = {
        str(path.relative_to(ROOT)): names
        for tree in TEST_TREES
        for path in sorted((ROOT / tree).rglob("*.py"))
        if (names := shadowed_tests(path.read_text(encoding="utf-8")))
    }
    assert not found
