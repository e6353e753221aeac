"""Shared fixture-tree helper for the determinism-linter suite."""

from __future__ import annotations

import textwrap

import pytest

from repro.lint.engine import LintReport, lint_tree


@pytest.fixture
def lint_snippets(tmp_path):
    """Write a {relative path: source} mapping under ``pkg/`` and lint it."""

    def _lint(files: dict[str, str]) -> LintReport:
        package_dir = tmp_path / "pkg"
        for rel, source in files.items():
            path = package_dir / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(textwrap.dedent(source), encoding="utf-8")
        return lint_tree(package_dir)

    return _lint
