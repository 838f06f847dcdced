"""Benchmark-side span recorder and the sample statistics the suite reports.

Spans are recorded around calls into the program's public functions, from
the benchmark's own files; nothing here touches ``src/``.  A span is
``(id, name, start, end, parent, request)``: spans of one request share
its ``request`` id, ``parent`` is the id of the enclosing span on the same
thread (None for a root).  Everything stays in memory until
:meth:`SpanRecorder.write`.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path

#: Percentiles a tail may be reported at, lowest first.
TAIL_PERCENTILES = (75.0, 90.0, 95.0, 99.0, 99.9)

#: A tail percentile is only quoted with this many samples beyond it.
MIN_SAMPLES_BEYOND = 10


class SpanRecorder:
    """Records nested spans per thread; cheap enough for the traced run.

    ``clock`` is injectable so the unit tests can drive exact durations.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        #: ``[id, name, start, end, parent, request]`` rows, append-only
        #: (``list.append`` is atomic, so client threads share the list).
        self.spans: list[list] = []
        self._local = threading.local()
        self._ids = itertools.count(1)  # next() is atomic under the GIL

    @contextmanager
    def span(self, name: str, request: str | None = None):
        """Time the enclosed block as one span.

        A nested span inherits the enclosing span's request id unless it
        names its own.
        """
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else None
        span_id = next(self._ids)
        if request is None and parent is not None:
            request = parent[5]
        row = [span_id, name, self.clock(), None, parent[0] if parent else None, request]
        stack.append(row)
        try:
            yield row
        finally:
            row[3] = self.clock()
            stack.pop()
            self.spans.append(row)

    def add(
        self, name: str, start: float, end: float,
        parent: int | None = None, request: str | None = None,
    ) -> int:
        """Record a span from instants already taken on this clock (the
        HTTP client timestamps every exchange anyway); returns its id."""
        span_id = next(self._ids)
        self.spans.append([span_id, name, start, end, parent, request])
        return span_id

    # ------------------------------------------------------------------ #
    # Reading the trace
    # ------------------------------------------------------------------ #

    def durations(self, name: str) -> list[float]:
        """Durations (seconds) of every finished span called ``name``."""
        return [row[3] - row[2] for row in self.spans if row[1] == name]

    def self_times(self) -> dict[int, float]:
        """Span id → its duration minus the part its child spans cover."""
        own = {row[0]: row[3] - row[2] for row in self.spans}
        for row in self.spans:
            if row[4] is not None and row[4] in own:
                own[row[4]] -= row[3] - row[2]
        return own

    def self_time_by_name(self) -> dict[str, float]:
        """Total self time (seconds) per span name."""
        own = self.self_times()
        totals: dict[str, float] = {}
        for row in self.spans:
            totals[row[1]] = totals.get(row[1], 0.0) + own[row[0]]
        return totals

    def write(self, path: Path) -> None:
        """Write every span as JSON (times in seconds on the recorder clock)."""
        payload = {
            "fields": ["id", "name", "start", "end", "parent", "request"],
            "spans": sorted(self.spans, key=lambda row: row[0]),
        }
        Path(path).write_text(json.dumps(payload) + "\n", encoding="utf-8")


# --------------------------------------------------------------------- #
# Sample statistics
# --------------------------------------------------------------------- #

def percentile(samples: list[float], p: float) -> float:
    """Nearest-rank percentile ``p`` (0–100) of a non-empty sample."""
    if not samples:
        raise ValueError("percentile of an empty sample")
    return sorted(samples)[_rank(len(samples), p) - 1]


def _rank(count: int, p: float) -> int:
    """1-based nearest rank of percentile ``p``, in exact integer arithmetic
    (``0.9 * 100`` is not 90 in floating point)."""
    permille = round(p * 10)
    return max(1, -(-permille * count // 1000))


def median(samples: list[float]) -> float:
    return percentile(samples, 50.0)


def supported_tail(count: int) -> float | None:
    """The highest tail percentile with at least ten samples beyond it.

    None when even p75 has fewer than ten samples above it — such a
    sample supports a median only.
    """
    best = None
    for p in TAIL_PERCENTILES:
        if count - _rank(count, p) >= MIN_SAMPLES_BEYOND:
            best = p
    return best


def summarize(samples: list[float]) -> dict:
    """``{n, p50, tail_p, tail}`` — median plus the supported tail."""
    if not samples:
        return {"n": 0, "p50": None, "tail_p": None, "tail": None}
    tail_p = supported_tail(len(samples))
    return {
        "n": len(samples),
        "p50": median(samples),
        "tail_p": tail_p,
        "tail": percentile(samples, tail_p) if tail_p is not None else None,
    }
