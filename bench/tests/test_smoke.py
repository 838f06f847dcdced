"""The whole suite under --smoke: every name in BENCHMARK.json is emitted
exactly once per workload and mode, inside a minute."""

import json
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent


def test_smoke_suite_emits_every_metric_once(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    started = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--smoke", "--seed", "3",
         "--out", str(tmp_path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170,
    )
    elapsed = time.monotonic() - started
    assert done.returncode == 0, done.stderr
    assert elapsed < 60.0

    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    lines = [line.split() for line in done.stdout.splitlines()]
    results = json.loads((tmp_path / "results.json").read_text())["workloads"]
    assert list(results) == [w["name"] for w in spec["workloads"]]
    for workload, result in results.items():
        printed = [fields[1] for fields in lines if fields and fields[0] == workload]
        assert sorted(printed) == sorted(end_to_end + per_layer)
        assert sorted(result["end_to_end"]) == sorted(end_to_end)
        assert sorted(result["per_layer"]) == sorted(per_layer)
        assert all(value > 0 for value in result["end_to_end"].values())
        assert result["failed"] == 0
        assert result["per_layer"]["failed_share"] == 0.0

    traces = json.loads((tmp_path / "trace.json").read_text())
    assert all(traces[workload]["spans"] for workload in results)
    stamp = json.loads((tmp_path / "inputs.json").read_text())
    assert all(stamp[workload]["host"]["host_cpus"] >= 1 for workload in results)
    assert all(stamp[workload]["seed"] == 3 for workload in results)


def test_more_clients_than_cores_is_refused():
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--smoke", "--clients", "64"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60,
    )
    assert done.returncode == 2
    assert "--clients 64" in done.stderr
