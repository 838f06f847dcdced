"""Counter and histogram registries for the observability layer.

Counters are monotonically increasing numbers ("seeds_explored"); a
histogram keeps a running count/min/max/total of the observed values
("bfs_frontier" sizes) — constant memory per name however long the
process lives.  Names are dotted strings namespaced by subsystem —
``top_k.seeds_explored``, ``mining.paths_enumerated`` — listed in
docs/observability.md.

:class:`Metrics` is thread-safe: the serving layer increments one shared
registry from every worker thread, and an unguarded read-modify-write on a
dict slot loses updates under that interleaving.  A single lock around the
mutations keeps the hot path cheap (one uncontended acquire) and the
snapshot consistent.
"""

from __future__ import annotations

import threading

from repro.contracts import guarded_by


@guarded_by("_lock", "counters", "histograms")
class Metrics:
    """A recording registry of counters and histograms (thread-safe)."""

    __slots__ = ("counters", "histograms", "_lock")

    def __init__(self) -> None:
        self.counters: dict[str, float] = {}
        #: name -> running ``{count, min, max, total}`` of the observations.
        self.histograms: dict[str, dict] = {}
        self._lock = threading.Lock()

    def incr(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def observe(self, name: str, value: float) -> None:
        with self._lock:
            summary = self.histograms.get(name)
            if summary is None:
                self.histograms[name] = {
                    "count": 1, "min": value, "max": value, "total": value,
                }
                return
            summary["count"] += 1
            summary["total"] += value
            if value < summary["min"]:
                summary["min"] = value
            elif value > summary["max"]:
                summary["max"] = value

    def counter(self, name: str) -> float:
        with self._lock:
            return self.counters.get(name, 0)

    def histogram(self, name: str) -> dict | None:
        """A copy of ``name``'s running ``{count, min, max, total}``, or
        ``None`` before its first observation."""
        with self._lock:
            summary = self.histograms.get(name)
            return dict(summary) if summary is not None else None

    def snapshot(self) -> dict:
        """JSON-ready view: raw counters, summarized histograms."""
        with self._lock:
            counters = dict(self.counters)
            histograms = {
                name: _combine([summary])
                for name, summary in self.histograms.items()
            }
        return {
            "counters": dict(sorted(counters.items())),
            "histograms": dict(sorted(histograms.items())),
        }

    def reset(self) -> None:
        with self._lock:
            self.counters.clear()
            self.histograms.clear()


class NoopMetrics:
    """Records nothing; every query answers empty."""

    __slots__ = ()

    def incr(self, name: str, amount: float = 1) -> None:
        pass

    def observe(self, name: str, value: float) -> None:
        pass

    def counter(self, name: str) -> float:
        return 0

    def snapshot(self) -> dict:
        return {"counters": {}, "histograms": {}}

    def reset(self) -> None:
        pass


def _combine(summaries: list[dict]) -> dict:
    """One histogram summary from several of the same name (count/total
    sum, min/max extremize, mean recomputed from the combined totals)."""
    count = sum(summary["count"] for summary in summaries)
    total = sum(summary["total"] for summary in summaries)
    return {
        "count": count,
        "min": min(summary["min"] for summary in summaries),
        "max": max(summary["max"] for summary in summaries),
        "mean": total / count,
        "total": total,
    }


def merge_snapshots(snapshots: list[dict]) -> dict:
    """Combine :meth:`Metrics.snapshot` dicts from independent registries.

    The pre-fork serving layer aggregates per-worker registries into one
    cluster view: counters add, histogram summaries combine exactly
    (count/total sum, min/max extremize, mean recomputed from the
    combined totals).  Per-value percentiles cannot be merged from
    summaries and are deliberately absent — same shape as a single
    worker's snapshot.
    """
    counters: dict[str, float] = {}
    histograms: dict[str, list[dict]] = {}
    for snapshot in snapshots:
        for name, value in snapshot.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + value
        for name, summary in snapshot.get("histograms", {}).items():
            histograms.setdefault(name, []).append(summary)
    return {
        "counters": dict(sorted(counters.items())),
        "histograms": {
            name: _combine(summaries)
            for name, summaries in sorted(histograms.items())
        },
    }
