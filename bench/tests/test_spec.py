"""BENCHMARK.json: name grammar, count limits, and agreement with the code."""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_keys_and_count_limits(spec):
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert spec["paths"] == ["bench"]
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_names_follow_the_grammar_and_are_used_once(spec):
    names = [
        entry["name"]
        for entry in spec["workloads"] + spec["end_to_end"] + spec["per_layer"]
    ]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]


def test_metrics_carry_unit_direction_and_bound(spec):
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.fullmatch(metric["unit"])
        assert metric["better"] in ("higher", "lower")
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_every_workload_has_a_function(spec):
    import sys

    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from bench.run import workload_functions

    assert list(workload_functions()) == [w["name"] for w in spec["workloads"]]
