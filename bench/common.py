"""What every workload shares: run parameters, the outcome record, the
correctness gates and the QALD scoring used on both sides of the socket."""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

from bench.inputs import digest
from bench.spans import SpanRecorder, median, percentile, summarize

ROOT = Path(__file__).resolve().parent.parent

#: QALD questions the pipeline must answer exactly right (ROADMAP invariant).
EXPECTED_QALD_RIGHT = 32

#: The load generator never uses more client threads than this host has cores.
MAX_CLIENTS = min(2, os.cpu_count() or 1)


class GateError(Exception):
    """A correctness gate failed; the run stops before printing metrics."""


def gate(condition: bool, message: str) -> None:
    if not condition:
        raise GateError(message)


@dataclass(slots=True)
class Params:
    workload: str
    seed: int
    seconds: float
    trace: bool
    clients: int
    smoke: bool
    out: Path

    @property
    def work(self) -> Path:
        """Scratch space for snapshots and generated inputs (deleted after)."""
        return self.out / "work"

    @property
    def setup_cycles(self) -> int:
        """Set-up is repeated and its median reported; once under --smoke."""
        return 1 if self.smoke else 3


@dataclass(slots=True)
class Outcome:
    """Everything one run measured.

    ``e2e`` and ``layers`` map metric names to values; ``run.py`` prints
    the first from an untraced run and the second from a traced one.
    ``attempted``/``failed`` count operations (requests, answers, build
    phases, process spawns).  ``notes`` carries sample counts, supported
    tails and digests into ``results.json`` for people and ``compare.py``.
    """

    e2e: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    notes: dict = field(default_factory=dict)
    inputs: dict = field(default_factory=dict)
    recorder: SpanRecorder = field(default_factory=SpanRecorder)

    def count(self, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1

    def latency(self, samples_ms: list[float]) -> None:
        """Median (end to end) and p95 (per layer: too unsteady on a shared
        host to carry a bound) of per-question latencies."""
        gate(bool(samples_ms), "no question was answered inside the window")
        self.e2e["latency_p50_ms"] = median(samples_ms)
        self.layers["latency_p95_ms"] = percentile(samples_ms, 95.0)
        self.notes["latency"] = summarize(samples_ms)


#: A slice is undisturbed when its median latency is within this factor of
#: the best slice's; at least MIN_SLICES always count.
UNDISTURBED_WITHIN = 1.10
MIN_SLICES = 3


def undisturbed(slices: list[list[float]]) -> list[int]:
    """Which slices of a measurement count: the least-disturbed ones.

    The sandbox host slows every process by up to a few times for seconds
    at a stretch (bench/README.md, *Noise*), and only ever slows.  Each
    slice holds the latencies of the questions asked in one stretch of the
    measurement; a slice counts when its median is within 10 % of the best
    slice's, and the three best always count.  Returns their indexes.
    """
    ranked = sorted((median(chunk), number) for number, chunk in enumerate(slices) if chunk)
    gate(bool(ranked), "no question was answered inside the window")
    limit = ranked[0][0] * UNDISTURBED_WITHIN
    return sorted(
        number for position, (value, number) in enumerate(ranked)
        if value <= limit or position < MIN_SLICES
    )


# --------------------------------------------------------------------- #
# QALD scoring (works on rendered answers, so HTTP and in-process agree)
# --------------------------------------------------------------------- #

def qald():
    from repro.datasets import qald_questions

    return qald_questions()


def is_right(question, answers: list[str], boolean: bool | None) -> bool:
    """QALD 'right' (F1 = 1) on rendered answers: ``str(IRI)`` is its value
    and ``str(Literal)`` its lexical form, which is the gold notation."""
    if question.is_boolean:
        return boolean is not None and boolean == question.gold_boolean
    return bool(answers) and set(answers) == set(question.gold)


def score(answer_map: dict[str, list]) -> tuple[int, str]:
    """``(qald_right, answers_sha256)`` of a question → [answers, boolean] map."""
    questions = qald()
    gate(
        set(answer_map) == {q.text for q in questions},
        "the scoring pass did not cover every QALD question exactly",
    )
    right = sum(is_right(q, *answer_map[q.text]) for q in questions)
    return right, digest(answer_map)


def check_score(label: str, answer_map: dict[str, list], reference: str | None = None) -> tuple[int, str]:
    """Score a pass and apply the two answer gates."""
    right, sha = score(answer_map)
    gate(
        right == EXPECTED_QALD_RIGHT,
        f"{label}: qald_right is {right}, expected {EXPECTED_QALD_RIGHT}",
    )
    gate(
        reference is None or sha == reference,
        f"{label}: answers_sha256 {sha[:12]} differs from the reference {str(reference)[:12]}",
    )
    return right, sha


def render(answer) -> list:
    """An in-process ``Answer`` in the shape the HTTP API renders it."""
    return [[str(term) for term in answer.answers], answer.boolean]


def proc_status_mb(pid: int, field: str) -> float:
    """``VmHWM`` / ``VmRSS`` of a live process in MB (from /proc)."""
    with open(f"/proc/{pid}/status", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"{field} not found for pid {pid}")
