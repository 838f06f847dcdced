"""Render a lint run for humans (text) and machines (``--json``)."""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.engine import LintReport


def render_text(report: "LintReport") -> str:
    lines = [finding.render() for finding in report.findings]
    summary = (
        f"repro lint: {report.files_scanned} files, "
        f"{len(report.rules_run)} rules, "
        f"{len(report.findings)} finding(s)"
    )
    if report.suppressed:
        summary += f", {report.suppressed} pragma-suppressed"
    lines.append(summary)
    return "\n".join(lines)


def render_json(report: "LintReport") -> str:
    per_rule: dict[str, int] = {}
    for finding in report.findings:
        per_rule[finding.rule] = per_rule.get(finding.rule, 0) + 1
    payload = {
        "files_scanned": report.files_scanned,
        "rules": list(report.rules_run),
        "findings": [finding.to_json() for finding in report.findings],
        "suppressed": report.suppressed,
        "counts_by_rule": dict(sorted(per_rule.items())),
        "ok": report.ok,
    }
    return json.dumps(payload, indent=2)
