"""Finding and pragma data types shared by every lint rule."""

from __future__ import annotations

import re
from dataclasses import dataclass, replace

#: inline suppression: ``# det: allow[DET003] reason text`` (reason required)
PRAGMA_PATTERN = re.compile(
    r"#\s*det:\s*allow\[(?P<rules>[A-Z]{3}\d{3}(?:\s*,\s*[A-Z]{3}\d{3})*)\]\s*(?P<reason>.*)"
)


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    hint: str = ""
    suppressed: bool = False
    reason: str = ""

    def suppress(self, reason: str) -> "Finding":
        return replace(self, suppressed=True, reason=reason)

    def format(self) -> str:
        text = f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"
        if self.hint:
            text += f"\n    hint: {self.hint}"
        return text


@dataclass(frozen=True)
class Pragma:
    """A parsed ``# det: allow[...]`` comment on one physical line."""

    line: int
    rules: tuple[str, ...]
    reason: str

    @property
    def has_reason(self) -> bool:
        return bool(self.reason.strip())

    def covers(self, rule_id: str) -> bool:
        return rule_id in self.rules


def extract_pragmas(lines: list[str]) -> dict[int, Pragma]:
    """Parse every suppression pragma in ``lines`` (1-based line keys).

    Malformed pragmas (missing reason, unknown rule ids) are still returned —
    the engine reports them as ``DET000`` findings and refuses to let them
    suppress anything.
    """
    pragmas: dict[int, Pragma] = {}
    for index, text in enumerate(lines, start=1):
        match = PRAGMA_PATTERN.search(text)
        if match is None:
            continue
        rules = tuple(
            part.strip() for part in match.group("rules").split(",") if part.strip()
        )
        pragmas[index] = Pragma(line=index, rules=rules, reason=match.group("reason").strip())
    return pragmas
