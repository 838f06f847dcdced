"""Baseline round-trip, multiset diff semantics, and malformed inputs."""

import json

import pytest

from repro.analysis.baseline import (
    BASELINE_VERSION,
    diff_against_baseline,
    load_baseline,
    save_baseline,
)
from repro.analysis.rulebase import Finding
from repro.exceptions import LintError


def make_finding(rule="layering", relpath="repro/rdf/store.py", line=3,
                 message="boundary crossed"):
    return Finding(rule=rule, relpath=relpath, line=line, col=0, message=message)


class TestRoundTrip:
    def test_save_then_load_preserves_the_multiset(self, tmp_path):
        path = tmp_path / "baseline.json"
        findings = [make_finding(), make_finding(), make_finding(rule="frozen-store")]
        save_baseline(path, findings)
        loaded = load_baseline(path)
        assert loaded[("layering", "repro/rdf/store.py", "boundary crossed")] == 2
        assert loaded[("frozen-store", "repro/rdf/store.py", "boundary crossed")] == 1

    def test_keys_ignore_line_numbers(self, tmp_path):
        # A baselined finding that drifts to another line stays baselined.
        path = tmp_path / "baseline.json"
        save_baseline(path, [make_finding(line=3)])
        diff = diff_against_baseline([make_finding(line=99)], load_baseline(path))
        assert diff.new == ()
        assert len(diff.known) == 1
        assert diff.stale == ()

    def test_empty_baseline_marks_everything_new(self, tmp_path):
        path = tmp_path / "baseline.json"
        save_baseline(path, [])
        diff = diff_against_baseline([make_finding()], load_baseline(path))
        assert len(diff.new) == 1
        assert diff.known == ()


class TestDiffSemantics:
    def test_multiset_counts_matter(self, tmp_path):
        # Two identical findings against one baseline entry: one known,
        # one new — a duplicate regression must not hide behind the first.
        path = tmp_path / "baseline.json"
        save_baseline(path, [make_finding()])
        diff = diff_against_baseline(
            [make_finding(), make_finding()], load_baseline(path)
        )
        assert len(diff.known) == 1
        assert len(diff.new) == 1

    def test_unmatched_entries_surface_as_stale(self, tmp_path):
        path = tmp_path / "baseline.json"
        save_baseline(path, [make_finding(message="since fixed")])
        diff = diff_against_baseline([], load_baseline(path))
        assert diff.stale == (
            ("layering", "repro/rdf/store.py", "since fixed"),
        )


class TestMalformedInputs:
    def test_missing_file(self, tmp_path):
        with pytest.raises(LintError, match="cannot read"):
            load_baseline(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text("{not json")
        with pytest.raises(LintError, match="not valid JSON"):
            load_baseline(path)

    def test_wrong_version(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"version": BASELINE_VERSION + 1, "findings": []}))
        with pytest.raises(LintError, match="unsupported format"):
            load_baseline(path)

    def test_malformed_entry(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps(
            {"version": BASELINE_VERSION, "findings": [{"rule": "layering"}]}
        ))
        with pytest.raises(LintError, match="malformed entry"):
            load_baseline(path)
