"""Lint engine: file discovery, pragma/quarantine application, output.

:func:`lint_tree` is the programmatic surface (the pytest gate and the test
fixtures call it directly); :func:`run_lint` backs the ``repro lint`` CLI
subcommand with text and JSON formats and a CI-friendly exit code.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.lint.config import LintConfig, load_config
from repro.lint.findings import SCHEMA_VERSION, Finding
from repro.lint.model import ModuleInfo, build_module_info
from repro.lint.rules import MODULE_RULES

#: rule id used for lint-infrastructure problems (malformed pragmas, parse
#: errors) — never suppressible, by construction
META_RULE = "DET000"

#: every rule id the pragma parser accepts
KNOWN_RULES = ("DET001", "DET002", "DET003", "DET005")

RULE_TABLE: dict[str, dict[str, str]] = {
    META_RULE: {
        "title": "lint infrastructure (malformed pragma, unparsable file)",
        "hint": "pragmas are '# det: allow[DET00x] <reason>'; the reason is mandatory",
    },
    **{
        rule.rule_id: {"title": rule.title, "hint": rule.hint}
        for rule in MODULE_RULES
    },
}


@dataclass
class LintReport:
    """Every finding of one lint run, suppressed ones included."""

    target: str
    config_source: str
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

    def to_dict(self) -> dict:
        counts: dict[str, int] = {}
        for finding in self.unsuppressed:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return {
            "version": SCHEMA_VERSION,
            "target": self.target,
            "config": self.config_source,
            "rules": {rule_id: dict(meta) for rule_id, meta in sorted(RULE_TABLE.items())},
            "findings": [finding.to_dict() for finding in self.findings],
            "summary": {
                "files": self.files,
                "findings": len(self.unsuppressed),
                "suppressed": len(self.suppressed),
                "by_rule": counts,
                "clean": self.clean,
            },
        }

    def format_text(self, show_suppressed: bool = False) -> str:
        lines = []
        for finding in self.findings:
            if finding.suppressed and not show_suppressed:
                continue
            lines.append(finding.format())
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
                hint=RULE_TABLE[META_RULE]["hint"],
            ))
        if not pragma.has_reason:
            problems.append(Finding(
                rule=META_RULE, path=module.rel_path, line=pragma.line, col=1,
                message="suppression pragma is missing its mandatory reason",
                hint=RULE_TABLE[META_RULE]["hint"],
            ))
    return problems


def _apply_suppressions(finding: Finding, module: ModuleInfo, config: LintConfig) -> Finding:
    if config.is_path_allowed(finding.rule, finding.path):
        return finding.suppress(f"allowlisted for {finding.rule} in {config.source}")
    pragma = module.pragmas.get(finding.line)
    if pragma is not None and pragma.covers(finding.rule) and pragma.has_reason:
        pragma.used.add(finding.rule)
        return finding.suppress(pragma.reason)
    return finding


def lint_tree(package_dir: Path | str, config: LintConfig | None = None) -> LintReport:
    """Lint every ``*.py`` under ``package_dir`` (a package source root)."""
    package_dir = Path(package_dir)
    if config is None:
        config = load_config(search_from=package_dir)
    report = LintReport(target=str(package_dir), config_source=config.source)

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
                findings.append(_apply_suppressions(finding, module, config))

    report.findings = sorted(findings, key=_sort_key)
    return report


def run_lint(
    paths: list[str] | None = None,
    output_format: str = "text",
    config_path: str | None = None,
    show_suppressed: bool = False,
    out=None,
) -> int:
    """CLI driver: lint the package (or explicit paths), print, return exit code.

    Exit codes: 0 clean, 1 unsuppressed findings, 2 usage/config error.
    """
    import sys

    out = out or sys.stdout
    if paths:
        targets = [Path(raw) for raw in paths]
    else:
        import repro

        targets = [Path(repro.__file__).parent]
    reports = []
    for target in targets:
        if not target.exists():
            print(f"error: no such path: {target}", file=sys.stderr)
            return 2
        config = load_config(
            explicit_path=Path(config_path) if config_path else None,
            search_from=target.resolve(),
        )
        reports.append(lint_tree(target, config=config))

    if len(reports) == 1:
        merged = reports[0]
    else:
        merged = LintReport(
            target=", ".join(report.target for report in reports),
            config_source=reports[0].config_source,
            files=sum(report.files for report in reports),
        )
        merged.findings = sorted(
            (finding for report in reports for finding in report.findings),
            key=_sort_key,
        )

    if output_format == "json":
        json.dump(merged.to_dict(), out, indent=2, sort_keys=True)
        out.write("\n")
    else:
        out.write(merged.format_text(show_suppressed=show_suppressed) + "\n")
    return 0 if merged.clean else 1
