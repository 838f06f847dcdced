"""Lint orchestration: file walking, rule dispatch, the report.

:func:`run_lint` is the one entry point the CLI and the test suite
share.  The project policy — the layer map, the frozen-store provenance
lists, the monotonic-clock exemptions — is written as constants beside
the rule that reads each (:mod:`repro.analysis.rules`), so a bare
``repro lint`` enforces exactly what CI enforces.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from repro.analysis.rulebase import Finding
from repro.analysis.rules import ALL_RULES, RULES_BY_NAME
from repro.analysis.walker import ModuleInfo, iter_python_files, load_module
from repro.exceptions import LintError


@dataclass
class LintReport:
    """Everything one run produced; any finding fails it."""

    findings: tuple[Finding, ...]
    files_scanned: int
    rules_run: tuple[str, ...]
    suppressed: int

    @property
    def ok(self) -> bool:
        return not self.findings


def package_identity(path: Path) -> tuple[str, str]:
    """``(relpath, module)`` of a file, anchored at its package root.

    Walks up through ``__init__.py``-bearing directories so the identity
    is stable no matter where the tree is checked out:
    ``/anywhere/src/repro/serve/engine.py`` ->
    (``repro/serve/engine.py``, ``repro.serve.engine``).  A file outside
    any package is identified by its own name.
    """
    parts = [path.stem] if path.stem != "__init__" else []
    directory = path.parent
    package_dirs: list[str] = []
    while (directory / "__init__.py").exists():
        package_dirs.append(directory.name)
        directory = directory.parent
    package_dirs.reverse()
    module_parts = package_dirs + parts
    if not module_parts:
        module_parts = [path.stem]
    relpath = "/".join(package_dirs + [path.name]) if package_dirs else path.name
    return relpath, ".".join(module_parts)


def scan(paths: Iterable[Path]) -> list[ModuleInfo]:
    modules: list[ModuleInfo] = []
    seen: set[Path] = set()
    for root in paths:
        root = root.resolve()
        if not root.exists():
            raise LintError(f"lint path does not exist: {root}")
        for file_path in iter_python_files(root):
            if file_path in seen:
                continue
            seen.add(file_path)
            relpath, module = package_identity(file_path)
            modules.append(load_module(file_path, relpath, module))
    return modules


def run_lint(
    paths: Iterable[Path], rules: Sequence[str] | None = None
) -> LintReport:
    """Scan ``paths`` and run the named rules (``None`` runs every rule)."""
    if rules is None:
        selected = ALL_RULES
    else:
        unknown = [name for name in rules if name not in RULES_BY_NAME]
        if unknown:
            known = ", ".join(sorted(RULES_BY_NAME))
            raise LintError(f"unknown rule(s) {unknown}; known rules: {known}")
        selected = tuple(RULES_BY_NAME[name] for name in rules)
    modules = scan(paths)
    findings: list[Finding] = []
    suppressed = 0
    for module in modules:
        for rule in selected:
            for finding in rule.check(module):
                if module.suppressed(rule.name, finding.line):
                    suppressed += 1
                    continue
                findings.append(finding)
    findings.sort(key=lambda f: (f.relpath, f.line, f.col, f.rule))
    return LintReport(
        findings=tuple(findings),
        files_scanned=len(modules),
        rules_run=tuple(rule.name for rule in selected),
        suppressed=suppressed,
    )
