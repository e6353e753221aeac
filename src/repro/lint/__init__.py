"""Determinism linter: the repo's reproducibility contract as static rules.

``repro lint`` (see :mod:`repro.lint.engine`) walks the package source with
the stdlib :mod:`ast` and enforces four named, suppressible rules — DET001
wall clock, DET002 ambient randomness, DET003 unordered-set iteration,
DET005 address-dependent values.  Inline ``# det: allow[DET00x] reason``
pragmas (reason mandatory) and the ``lint.toml`` quarantine table are the only
ways to silence a finding.

The exports load lazily (PEP 562), so importing the package stays cheap.
"""

_LAZY = {
    "Finding": ("repro.lint.findings", "Finding"),
    "LintConfig": ("repro.lint.config", "LintConfig"),
    "LintReport": ("repro.lint.engine", "LintReport"),
    "lint_tree": ("repro.lint.engine", "lint_tree"),
    "run_lint": ("repro.lint.engine", "run_lint"),
    "load_config": ("repro.lint.config", "load_config"),
}

__all__ = sorted(_LAZY)


def __getattr__(name: str):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    return getattr(importlib.import_module(module_name), attr)


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
