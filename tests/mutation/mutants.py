"""The mutant kill table (``mutants.toml``): its rows, and whether a rule flags one."""

from __future__ import annotations

import tempfile
import tomllib
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
PACKAGE = Path("src") / "repro"


@dataclass(frozen=True)
class Mutant:
    """One row: a seeded rule violation and the tests recorded to kill it."""

    id: str
    rule: str
    file: str
    snippet: str
    replacement: str
    probe: str
    oracle: tuple[str, ...]
    pin: tuple[str, ...]

    def apply(self, source: str) -> str:
        """``source`` with the row applied; the snippet must occur exactly once."""
        count = source.count(self.snippet)
        if count != 1:
            raise ValueError(f"{self.id}: snippet occurs {count} times in {self.file}")
        return source.replace(self.snippet, self.replacement)


def load_table(path: Path = HERE / "mutants.toml") -> tuple[list[Mutant], dict[str, str]]:
    """The table's rows and its named probes."""
    with open(path, "rb") as handle:
        data = tomllib.load(handle)
    rows = [
        Mutant(**{**row, "oracle": tuple(row["oracle"]), "pin": tuple(row["pin"])})
        for row in data["mutant"]
    ]
    return rows, data["probes"]


def live_rules() -> frozenset[str]:
    """The rule ids the linter still enforces; a deleted rule keeps its rows."""
    from repro.lint.rules import MODULE_RULES

    return frozenset(rule.rule_id for rule in MODULE_RULES)


def _rule_findings(rule: str, rel_path: str, source: str) -> int:
    from repro.lint.engine import lint_tree

    with tempfile.TemporaryDirectory() as package_dir:
        path = Path(package_dir) / rel_path
        path.parent.mkdir(parents=True)
        path.write_text(source, encoding="utf-8")
        report = lint_tree(package_dir)
    return sum(1 for finding in report.unsuppressed if finding.rule == rule)


def flags(mutant: Mutant, source: str) -> bool:
    """Does the row's rule report more findings on its file once the row is applied?"""
    before = _rule_findings(mutant.rule, mutant.file, source)
    return _rule_findings(mutant.rule, mutant.file, mutant.apply(source)) > before
