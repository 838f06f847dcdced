"""End-to-end evaluation harness: run a QA system over a question set.

A *system* is anything with an ``answer(question_text) -> Answer``-shaped
method returning per-question answers, an optional boolean, per-stage
timings, and a failure tag — :class:`repro.core.GAnswer`, the DEANNA
baseline and a serving :class:`repro.serve.QAEngine` all qualify.  The
harness scores every question against the gold standard and aggregates
Table 8 / Table 10 / Figure 6 material.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

from repro import obs
from repro.datasets.qald import QALDQuestion
from repro.eval.metrics import (
    QuestionScore,
    Summary,
    classify_failure,
    question_score,
    summarize,
)


class AnswerLike(Protocol):
    answers: list
    boolean: bool | None
    failure: str | None
    understanding_time: float
    evaluation_time: float


class SystemLike(Protocol):
    def answer(self, question: str) -> AnswerLike: ...


@dataclass(slots=True)
class QuestionOutcome:
    """Everything recorded for one question in one run."""

    question: QALDQuestion
    score: QuestionScore
    failure_class: str | None
    understanding_time: float
    evaluation_time: float
    answers: list = field(default_factory=list)
    boolean: bool | None = None
    pipeline_failure: str | None = None

    @property
    def total_time(self) -> float:
        return self.understanding_time + self.evaluation_time


@dataclass(slots=True)
class EvaluationRun:
    """A full run of one system over a question set."""

    system_name: str
    outcomes: list[QuestionOutcome] = field(default_factory=list)

    @property
    def summary(self) -> Summary:
        return summarize([outcome.score for outcome in self.outcomes])

    def right_questions(self) -> list[QuestionOutcome]:
        return [o for o in self.outcomes if o.score.is_right]

    def failure_counts(self) -> dict[str, int]:
        """Table 10: failure class → count (right questions excluded)."""
        counts: dict[str, int] = {}
        for outcome in self.outcomes:
            if outcome.failure_class is not None:
                counts[outcome.failure_class] = counts.get(outcome.failure_class, 0) + 1
        return counts

    def outcome_for(self, qid: int) -> QuestionOutcome:
        for outcome in self.outcomes:
            if outcome.question.qid == qid:
                return outcome
        raise KeyError(f"no outcome for question {qid}")


def evaluate_system(
    system: SystemLike,
    questions: list[QALDQuestion],
    system_name: str = "system",
) -> EvaluationRun:
    """Run ``system`` over ``questions`` and score every answer.

    Each question is answered inside a ``question`` span (qid attribute),
    so a recording tracer installed process-wide groups the per-stage
    spans of each question under one subtree.
    """
    tracer = obs.get_tracer()
    run = EvaluationRun(system_name=system_name)
    for question in questions:
        with tracer.span("question", qid=question.qid, system=system_name):
            result = system.answer(question.text)
        score = question_score(question, result.answers, result.boolean)
        run.outcomes.append(
            QuestionOutcome(
                question=question,
                score=score,
                failure_class=classify_failure(question, score, result.failure),
                understanding_time=result.understanding_time,
                evaluation_time=result.evaluation_time,
                answers=list(result.answers),
                boolean=result.boolean,
                pipeline_failure=result.failure,
            )
        )
    return run
