"""Lint engine: file discovery, pragma and quarantine suppression, the report.

:func:`lint_tree` lints one package source root (the tier-1 gate and the test
fixtures call it directly); :func:`run_lint` is ``repro lint``: it lints the
installed package, prints the findings and returns the exit code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.lint.findings import Finding
from repro.lint.model import ModuleInfo, build_module_info
from repro.lint.rules import MODULE_RULES

#: rule id used for lint-infrastructure problems (malformed pragmas, parse
#: errors) — never suppressible, by construction
META_RULE = "DET000"
META_HINT = "pragmas are '# det: allow[DET00x] <reason>'; the reason is mandatory"

#: every rule id the pragma parser accepts
KNOWN_RULES = frozenset(rule.rule_id for rule in MODULE_RULES)

#: the one file allowed to read the wall clock (DET001): WallClockProfiler's
#: numbers are exported only under their own ``wallProfile`` key and never
#: feed a virtual result or determinism hash
WALL_CLOCK_QUARANTINE = "obs/profiling.py"


@dataclass
class LintReport:
    """Every finding of one lint run, suppressed ones included."""

    files: int = 0
    findings: list[Finding] = field(default_factory=list)

    @property
    def unsuppressed(self) -> list[Finding]:
        return [finding for finding in self.findings if not finding.suppressed]

    @property
    def suppressed(self) -> list[Finding]:
        return [finding for finding in self.findings if finding.suppressed]

    @property
    def clean(self) -> bool:
        return not self.unsuppressed

    def format_text(self) -> str:
        lines = [finding.format() for finding in self.unsuppressed]
        lines.append(
            f"{len(self.unsuppressed)} finding(s), {len(self.suppressed)} suppressed, "
            f"{self.files} file(s) checked"
        )
        if self.clean:
            lines.append("determinism contract: CLEAN")
        return "\n".join(lines)


def _sort_key(finding: Finding) -> tuple:
    return (finding.path, finding.line, finding.col, finding.rule, finding.message)


def _pragma_problems(module: ModuleInfo) -> list[Finding]:
    problems = []
    for pragma in module.pragmas.values():
        unknown = [rule for rule in pragma.rules if rule not in KNOWN_RULES]
        if unknown:
            problems.append(Finding(
                rule=META_RULE, path=module.rel_path, line=pragma.line, col=1,
                message=f"pragma names unknown rule id(s) {', '.join(unknown)}",
                hint=META_HINT,
            ))
        if not pragma.has_reason:
            problems.append(Finding(
                rule=META_RULE, path=module.rel_path, line=pragma.line, col=1,
                message="suppression pragma is missing its mandatory reason",
                hint=META_HINT,
            ))
    return problems


def _apply_suppressions(finding: Finding, module: ModuleInfo) -> Finding:
    if finding.rule == "DET001" and finding.path == WALL_CLOCK_QUARANTINE:
        return finding.suppress("the wall-clock quarantine")
    pragma = module.pragmas.get(finding.line)
    if pragma is not None and pragma.covers(finding.rule) and pragma.has_reason:
        return finding.suppress(pragma.reason)
    return finding


def lint_tree(package_dir: Path | str) -> LintReport:
    """Lint every ``*.py`` under ``package_dir`` (a package source root)."""
    package_dir = Path(package_dir)
    report = LintReport()

    findings: list[Finding] = []
    for path in sorted(package_dir.rglob("*.py")):
        rel = path.relative_to(package_dir).as_posix()
        report.files += 1
        try:
            source = path.read_text(encoding="utf-8")
            module = build_module_info(path, rel, source)
        except (SyntaxError, UnicodeDecodeError) as error:
            findings.append(Finding(
                rule=META_RULE, path=rel,
                line=getattr(error, "lineno", 1) or 1, col=1,
                message=f"file does not parse: {error.msg if isinstance(error, SyntaxError) else error}",
                hint="the linter cannot vouch for a file it cannot read",
            ))
            continue
        findings.extend(_pragma_problems(module))
        for rule in MODULE_RULES:
            for finding in rule.check(module):
                findings.append(_apply_suppressions(finding, module))

    report.findings = sorted(findings, key=_sort_key)
    return report


def run_lint(package_dir: Path | str | None = None) -> int:
    """``repro lint``: lint ``package_dir`` (default: the installed package) and print.

    Returns the exit code: 0 clean, 1 unsuppressed findings.
    """
    if package_dir is None:
        import repro

        package_dir = Path(repro.__file__).parent
    report = lint_tree(package_dir)
    print(report.format_text())
    return 0 if report.clean else 1
