"""Lint orchestration: configuration, file walking, rule dispatch.

:func:`run_lint` is the one entry point the CLI, the baseline
regenerator, and the test suite share.  The default :class:`LintConfig`
*is* the project policy — the layer map, the frozen-store provenance
lists, the monotonic-clock exemptions — so a bare ``repro lint`` enforces
exactly what CI enforces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

from repro.analysis.baseline import (
    BaselineDiff,
    diff_against_baseline,
    load_baseline,
)
from repro.analysis.rulebase import Finding
from repro.analysis.rules import ALL_RULES, RULES_BY_NAME
from repro.analysis.walker import ModuleInfo, iter_python_files, load_module
from repro.exceptions import LintError

#: Packages below the serving layer must not reach up into it (or into
#: the CLI / the experiment harness / this analysis package).  Keys are
#: longest-prefix matched, so a deeper entry can carve out an exception.
DEFAULT_LAYERING: Mapping[str, tuple[str, ...]] = {
    prefix: ("repro.serve", "repro.cli", "repro.experiments", "repro.analysis")
    for prefix in (
        "repro.rdf",
        "repro.nlp",
        "repro.obs",
        "repro.match",
        "repro.core",
        "repro.linking",
        "repro.paraphrase",
        "repro.sparql",
        "repro.eval",
        "repro.datasets",
        "repro.baselines",
    )
} | {
    "repro.serve": ("repro.cli", "repro.experiments", "repro.analysis"),
    "repro.analysis": ("repro.serve", "repro.cli", "repro.experiments"),
}

@dataclass(frozen=True)
class LintConfig:
    """Tunable policy of one lint run (defaults = the project policy)."""

    #: rule names to run; None runs every registered rule.
    rules: tuple[str, ...] | None = None
    layering: Mapping[str, tuple[str, ...]] = field(
        default_factory=lambda: dict(DEFAULT_LAYERING)
    )
    mutating_store_methods: tuple[str, ...] = (
        "add", "add_all", "add_all_ids", "remove",
    )
    frozen_constructors: tuple[str, ...] = (
        "CompactBackend",
        "CompactBackend.from_triples",
        "ShardedBackend",
        "ShardedBackend.from_triples",
        "ShardedBackend.lazy",
    )
    frozen_provenance_calls: tuple[str, ...] = ("compacted", "sharded", "load_snapshot")
    #: method calls whose *receiver* is thereby known frozen: calling
    #: .overlay() requires (and forever after assumes) a frozen base.
    frozen_receiver_calls: tuple[str, ...] = ("overlay",)
    #: constructors that capture their first argument as a frozen base —
    #: OverlayBackend(base) promises never to mutate base, and neither
    #: may anyone else for the overlay's lifetime.
    frozen_capture_constructors: tuple[str, ...] = ("OverlayBackend",)
    #: annotation names that mark a parameter as a frozen store/backend.
    frozen_annotations: tuple[str, ...] = ("CompactBackend", "ShardedBackend")
    #: module prefixes where wall-clock time.time() is legitimate
    #: (harness timing reports wall time by design).
    monotonic_exempt_modules: tuple[str, ...] = ("repro.experiments",)
    banned_raises: tuple[str, ...] = ("Exception", "BaseException", "RuntimeError")
    private_access_checked: bool = True

    def selected_rules(self):
        if self.rules is None:
            return ALL_RULES
        unknown = [name for name in self.rules if name not in RULES_BY_NAME]
        if unknown:
            known = ", ".join(sorted(RULES_BY_NAME))
            raise LintError(f"unknown rule(s) {unknown}; known rules: {known}")
        return tuple(RULES_BY_NAME[name] for name in self.rules)


@dataclass
class LintReport:
    """Everything one run produced, pre-split against the baseline."""

    new_findings: tuple[Finding, ...]
    known_findings: tuple[Finding, ...]
    stale_baseline: tuple[tuple[str, str, str], ...]
    files_scanned: int
    rules_run: tuple[str, ...]
    suppressed: int

    @property
    def ok(self) -> bool:
        return not self.new_findings

    @property
    def all_findings(self) -> tuple[Finding, ...]:
        return tuple(
            sorted(
                self.new_findings + self.known_findings,
                key=lambda f: (f.relpath, f.line, f.col, f.rule),
            )
        )


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
    paths: Iterable[Path],
    config: LintConfig | None = None,
    baseline_path: Path | None = None,
) -> LintReport:
    """Scan ``paths``, run the selected rules, and diff the baseline."""
    config = config if config is not None else LintConfig()
    rules = config.selected_rules()
    modules = scan(paths)
    findings: list[Finding] = []
    suppressed = 0
    for module in modules:
        for rule in rules:
            for finding in rule.check(module, config):
                if module.suppressed(rule.name, finding.line):
                    suppressed += 1
                    continue
                findings.append(finding)
    findings.sort(key=lambda f: (f.relpath, f.line, f.col, f.rule))
    if baseline_path is not None:
        diff = diff_against_baseline(findings, load_baseline(baseline_path))
    else:
        diff = BaselineDiff(new=tuple(findings), known=(), stale=())
    return LintReport(
        new_findings=diff.new,
        known_findings=diff.known,
        stale_baseline=diff.stale,
        files_scanned=len(modules),
        rules_run=tuple(rule.name for rule in rules),
        suppressed=suppressed,
    )
