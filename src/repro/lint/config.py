"""Lint configuration: per-rule path allowlists.

The defaults below are the repo's determinism contract in table form.  A
``lint.toml`` next to the source tree (searched upward from the linted
package) can extend them, so the quarantine is version-controlled alongside
the code it exempts::

    [lint.allow]
    # package-relative fnmatch globs, forward slashes
    DET001 = ["obs/profiling.py"]
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fnmatch import fnmatch
from pathlib import Path

#: files allowed to break a rule wholesale, keyed by rule id.
#: DET001: obs/profiling.py is *the* wall-clock quarantine — everything it
#: measures is exported under its own ``wallProfile`` key and never feeds a
#: virtual result or determinism hash.
DEFAULT_ALLOWLIST: dict[str, tuple[str, ...]] = {
    "DET001": ("obs/profiling.py",),
}

CONFIG_FILENAME = "lint.toml"


@dataclass(frozen=True)
class LintConfig:
    """Resolved lint configuration (defaults merged with an optional file)."""

    allowlist: dict[str, tuple[str, ...]] = field(
        default_factory=lambda: dict(DEFAULT_ALLOWLIST)
    )
    source: str = "<defaults>"

    def is_path_allowed(self, rule_id: str, rel_path: str) -> bool:
        """True when ``rel_path`` (package-relative, posix) is quarantined for ``rule_id``."""
        return any(fnmatch(rel_path, pattern) for pattern in self.allowlist.get(rule_id, ()))


def _parse_toml(path: Path) -> dict:
    import tomllib

    with open(path, "rb") as handle:
        return tomllib.load(handle)


def load_config(explicit_path: Path | None = None, search_from: Path | None = None) -> LintConfig:
    """Load ``lint.toml`` (explicit, or searched upward from ``search_from``).

    Returns the pure defaults when no file exists.  File entries *extend*
    the defaults — the in-package table is the contract's floor, not a
    suggestion.
    """
    path: Path | None = None
    if explicit_path is not None:
        path = Path(explicit_path)
        if not path.is_file():
            raise FileNotFoundError(f"lint config not found: {path}")
    elif search_from is not None:
        for candidate_dir in (Path(search_from), *Path(search_from).parents):
            candidate = candidate_dir / CONFIG_FILENAME
            if candidate.is_file():
                path = candidate
                break
    if path is None:
        return LintConfig()

    data = _parse_toml(path).get("lint", {})
    if not isinstance(data, dict):
        raise ValueError(f"{path}: [lint] must be a table")
    allowlist = {rule: list(patterns) for rule, patterns in DEFAULT_ALLOWLIST.items()}
    for rule, patterns in (data.get("allow") or {}).items():
        if not isinstance(patterns, list) or not all(isinstance(p, str) for p in patterns):
            raise ValueError(f"{path}: lint.allow.{rule} must be a list of path globs")
        allowlist.setdefault(str(rule), [])
        allowlist[str(rule)].extend(patterns)
    return LintConfig(
        allowlist={rule: tuple(patterns) for rule, patterns in allowlist.items()},
        source=str(path),
    )
