"""Metrics registry: counter math, snapshot shape, bounded histogram
state, cross-registry merge."""

import sys

from repro.obs.metrics import Metrics, merge_snapshots


def _registry(counters: dict, observations: dict) -> Metrics:
    metrics = Metrics()
    for name, amount in counters.items():
        metrics.incr(name, amount)
    for name, values in observations.items():
        for value in values:
            metrics.observe(name, value)
    return metrics


def _histogram_state_bytes(metrics: Metrics) -> int:
    """Shallow size of everything the registry retains per histogram."""
    return sys.getsizeof(metrics.histograms) + sum(
        sys.getsizeof(state) for state in metrics.histograms.values()
    )


class TestBoundedHistograms:
    def test_observe_keeps_constant_state_and_the_list_based_summary(self):
        """Regression: every sample was appended to a list forever (and
        every scrape copied every list), so a resident server grew per
        request.  The summary is all anyone reads; keep only that."""
        # Quarter steps are exact in binary, so the running total equals
        # the reference sum bit for bit in any summation order.
        values = [(i * 37 % 101) * 0.25 for i in range(100_000)]
        metrics = Metrics()
        for value in values[:10]:
            metrics.observe("serve.latency_ms", value)
        early = _histogram_state_bytes(metrics)
        for value in values[10:]:
            metrics.observe("serve.latency_ms", value)
        assert _histogram_state_bytes(metrics) == early
        assert metrics.snapshot()["histograms"]["serve.latency_ms"] == {
            "count": len(values),
            "min": min(values),
            "max": max(values),
            "mean": sum(values) / len(values),
            "total": sum(values),
        }


class TestMergeSnapshots:
    def test_counters_sum(self):
        merged = merge_snapshots([
            _registry({"serve.requests": 3, "serve.errors": 1}, {}).snapshot(),
            _registry({"serve.requests": 4}, {}).snapshot(),
        ])
        assert merged["counters"] == {"serve.errors": 1, "serve.requests": 7}

    def test_histograms_combine_exactly(self):
        merged = merge_snapshots([
            _registry({}, {"latency": [10.0, 20.0]}).snapshot(),
            _registry({}, {"latency": [5.0, 45.0, 20.0]}).snapshot(),
        ])
        summary = merged["histograms"]["latency"]
        assert summary["count"] == 5
        assert summary["total"] == 100.0
        assert summary["min"] == 5.0
        assert summary["max"] == 45.0
        assert summary["mean"] == 20.0

    def test_merge_matches_single_registry(self):
        """Merging per-worker snapshots gives the same numbers as one
        registry that saw all the traffic — the aggregation invariant."""
        combined = _registry(
            {"a": 5, "b": 2}, {"h": [1.0, 2.0, 3.0, 4.0]}
        ).snapshot()
        split = merge_snapshots([
            _registry({"a": 2, "b": 2}, {"h": [1.0, 4.0]}).snapshot(),
            _registry({"a": 3}, {"h": [2.0, 3.0]}).snapshot(),
        ])
        assert split["counters"] == combined["counters"]
        assert split["histograms"] == combined["histograms"]

    def test_disjoint_names_and_empty_input(self):
        assert merge_snapshots([]) == {"counters": {}, "histograms": {}}
        merged = merge_snapshots([
            _registry({"only.left": 1}, {"left.h": [1.0]}).snapshot(),
            _registry({"only.right": 2}, {}).snapshot(),
        ])
        assert merged["counters"] == {"only.left": 1, "only.right": 2}
        assert list(merged["histograms"]) == ["left.h"]

    def test_merge_does_not_mutate_inputs(self):
        first = _registry({}, {"h": [1.0]}).snapshot()
        second = _registry({}, {"h": [9.0]}).snapshot()
        before = dict(first["histograms"]["h"])
        merge_snapshots([first, second])
        assert first["histograms"]["h"] == before
