"""The mutant kill table (``mutants.toml``): its rows and its probes."""

from __future__ import annotations

import tomllib
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
PACKAGE = Path("src") / "repro"


@dataclass(frozen=True)
class Mutant:
    """One row: a seeded determinism leak, the probe that shows it and its recorded killers."""

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

