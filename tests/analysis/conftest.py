"""Harness for rule fixtures: lint an inline source string as one module."""

import textwrap

import pytest

from repro.analysis.rules import ALL_RULES, RULES_BY_NAME
from repro.analysis.walker import load_module


@pytest.fixture
def lint_source(tmp_path):
    """Run rules over a source snippet; returns the surviving findings.

    ``module`` controls the dotted identity the layering and
    monotonic-time rules key on (default: a serve-layer module).
    Pragma suppressions are applied, mirroring ``run_lint``.
    """

    def run(source, *, module="repro.serve.fixture", rule=None):
        path = tmp_path / (module.rsplit(".", 1)[-1] + ".py")
        path.write_text(textwrap.dedent(source))
        relpath = module.replace(".", "/") + ".py"
        info = load_module(path, relpath, module)
        rules = (RULES_BY_NAME[rule],) if rule else ALL_RULES
        findings = []
        for r in rules:
            for finding in r.check(info):
                if not info.suppressed(r.name, finding.line):
                    findings.append(finding)
        return findings

    return run
