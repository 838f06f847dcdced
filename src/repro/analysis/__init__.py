"""Project lint engine: static enforcement of repro's own invariants.

The serving refactors (PRs 4-6) introduced contracts that ordinary
tooling cannot check: lock-guarded fields, frozen-store discipline, monotonic-clock arithmetic, layer boundaries,
and the :class:`~repro.exceptions.ReproError` hierarchy.  This package
walks the source tree with :mod:`ast` (no third-party dependencies) and
enforces each invariant as a named rule — see docs/static-analysis.md
for the catalog.

Entry points:

* ``repro lint`` — the CLI (JSON output, rule selection);
* :func:`run_lint` — the library call the CLI and the tests share;
* :data:`repro.analysis.rules.ALL_RULES` — the rule registry.
"""

from repro.analysis.engine import LintReport, run_lint
from repro.analysis.rulebase import Finding, Rule

__all__ = ["Finding", "LintReport", "Rule", "run_lint"]
