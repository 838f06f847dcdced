"""Online experiments: Tables 8–11, Figure 6 and the YAGO2 check.

The table drivers run over the QALD-style benchmark of
:mod:`repro.datasets.qald` with the default mini-DBpedia setup (timing
comparisons use the distractor-padded graph, which recreates DBpedia's
candidate-list sizes without changing any answer).
"""

from __future__ import annotations

import statistics

from repro.baselines import Deanna, TemplateQA
from repro.core import GAnswer
from repro.datasets import qald_questions
from repro.datasets.yago_mini import build_yago_mini, yago_phrase_dataset, yago_questions
from repro.eval import evaluate_system
from repro.eval.harness import EvaluationRun
from repro.eval.metrics import term_to_gold
from repro.eval.reporting import format_bar_chart
from repro.experiments import paper
from repro.experiments.common import ExperimentResult, default_setup
from repro.linking import EntityLinker
from repro.paraphrase import ParaphraseMiner


def _run(system_class, name: str) -> EvaluationRun:
    """One system over the 99 questions on the plain mini-DBpedia setup."""
    setup = default_setup()
    return evaluate_system(
        system_class(setup.kg, setup.dictionary), qald_questions(), name
    )


def run_ganswer() -> EvaluationRun:
    return _run(GAnswer, "Our Method (repro)")


def _summary_row(run: EvaluationRun) -> list[object]:
    summary = run.summary
    return [
        run.system_name,
        summary.processed,
        summary.right,
        summary.partial,
        round(summary.recall, 2),
        round(summary.precision, 2),
        round(summary.f1, 2),
    ]


def table8_end_to_end() -> ExperimentResult:
    """Table 8: QALD-3-style end-to-end comparison.

    Reimplemented systems are measured; the other QALD-3 campaign systems
    are quoted from the paper for context.
    """
    result = ExperimentResult(
        "table8",
        "Table 8 — end-to-end QALD evaluation (99 questions)",
        ["system", "processed", "right", "partially", "recall", "precision", "F-1"],
    )
    result.rows.append(_summary_row(run_ganswer()))
    result.rows.append(_summary_row(_run(Deanna, "DEANNA (repro)")))
    result.rows.append(_summary_row(_run(TemplateQA, "Template QA (repro)")))
    for name, published in paper.TABLE8.items():
        result.rows.append([f"{name} (paper)", *published])
    result.notes.append(
        "shape to check: our method answers the most questions among "
        "reimplemented/NL systems and beats DEANNA 32 vs 21 right"
    )
    return result


#: Figure 6's candidate budget per mention: a DBpedia-Lookup-sized list.
_LOOKUP_CANDIDATES = 30


def figure6_runtime(distractors: int = 25) -> ExperimentResult:
    """Figure 6: per-question running time, ours vs DEANNA.

    Run on the distractor-padded graph with a DBpedia-Lookup-sized
    candidate budget, so candidate lists have realistic lengths; reported
    per question answered correctly by both systems.  ``distractors``
    stays a parameter for ``examples/benchmark_comparison.py``, whose
    quick form runs the plain graph (0).
    """
    setup = default_setup(distractors)

    def run(system_class, name: str) -> EvaluationRun:
        linker = EntityLinker(setup.kg, max_candidates=_LOOKUP_CANDIDATES)
        system = system_class(setup.kg, setup.dictionary, linker=linker)
        return evaluate_system(system, qald_questions(), name)

    ours = run(GAnswer, "Our Method (repro)")
    deanna = run(Deanna, "DEANNA (repro)")
    result = ExperimentResult(
        "figure6",
        "Figure 6 — online running time, ours vs DEANNA "
        f"(paper: 2–68x total speedup, understanding < "
        f"{paper.FIGURE6_UNDERSTANDING_BOUND_MS} ms)",
        [
            "question", "ours understand (ms)", "ours total (ms)",
            "DEANNA understand (ms)", "DEANNA total (ms)", "speedup",
        ],
    )
    speedups = []
    for outcome in ours.right_questions():
        other = deanna.outcome_for(outcome.question.qid)
        if not other.score.is_right:
            continue
        speedup = other.total_time / max(outcome.total_time, 1e-9)
        speedups.append(speedup)
        result.rows.append(
            [
                f"Q{outcome.question.qid}",
                round(outcome.understanding_time * 1000, 2),
                round(outcome.total_time * 1000, 2),
                round(other.understanding_time * 1000, 2),
                round(other.total_time * 1000, 2),
                f"{speedup:.1f}x",
            ]
        )
    if speedups:
        result.notes.append(
            f"speedup range {min(speedups):.1f}x–{max(speedups):.1f}x, "
            f"median {statistics.median(speedups):.1f}x "
            f"(paper: {paper.FIGURE6_SPEEDUP_RANGE[0]}–"
            f"{paper.FIGURE6_SPEEDUP_RANGE[1]}x)"
        )
        max_understanding = max(
            outcome.understanding_time for outcome in ours.outcomes
        )
        result.notes.append(
            f"our max understanding time {max_understanding * 1000:.1f} ms "
            f"(paper bound: {paper.FIGURE6_UNDERSTANDING_BOUND_MS} ms)"
        )
        chart = format_bar_chart(
            [row[0] for row in result.rows],
            [round(s, 1) for s in speedups],
            title="speedup over DEANNA per question (x):",
            unit="x",
        )
        result.notes.append("\n" + chart)
    return result


def table9_heuristic_rules() -> ExperimentResult:
    """Table 9: the effect of argument-finding Rules 1–4."""
    setup = default_setup()
    with_rules = run_ganswer()
    without_system = GAnswer(setup.kg, setup.dictionary, use_heuristic_rules=False)
    without = evaluate_system(without_system, qald_questions(), "without rules")

    def arguments_found(run: EvaluationRun) -> int:
        # A question "finds its arguments" when a semantic query graph with
        # at least one edge was built.
        return sum(
            outcome.pipeline_failure not in ("relation_extraction", "parse")
            for outcome in run.outcomes
        )

    result = ExperimentResult(
        "table9",
        "Table 9 — heuristic rules for finding associated arguments "
        "(paper: 32→48 arguments, 21→32 answers)",
        ["metric", "without the four rules", "using the four rules"],
    )
    result.rows.append(
        ["questions with arguments found", arguments_found(without), arguments_found(with_rules)]
    )
    result.rows.append(
        ["questions answered correctly", without.summary.right, with_rules.summary.right]
    )
    return result


def table10_failure_analysis() -> ExperimentResult:
    """Table 10: why questions fail, by class."""
    run = run_ganswer()
    counts = run.failure_counts()
    # "partial" outcomes are near-misses, not failures, in the paper's
    # bucketing; fold them into "other" visibility but report separately.
    failures = {
        key: counts.get(key, 0)
        for key in ("entity_linking", "relation_extraction", "aggregation", "other")
    }
    total = sum(failures.values())
    samples = {
        "entity_linking": "Q48: In which UK city are the headquarters of the MI6?",
        "relation_extraction": "Q64: Give me all launch pads operated by NASA.",
        "aggregation": "Q13: Who is the youngest player in the Premier League?",
        "other": "Q7: Is Berlin the capital of Germany?",
    }
    result = ExperimentResult(
        "table10",
        "Table 10 — failure analysis (paper ratios: linking 27%, relation "
        "22%, aggregation 35%, other 16%)",
        ["reason", "count", "ratio", "sample question"],
    )
    for reason, count in failures.items():
        ratio = count / total if total else 0.0
        paper_count, paper_ratio = paper.TABLE10[reason]
        result.rows.append(
            [f"{reason} (paper {paper_count}, {paper_ratio:.0%})", count,
             f"{ratio:.0%}", samples[reason]]
        )
    result.notes.append(
        f"partially-answered questions: {counts.get('partial', 0)} "
        "(reported separately in Table 8)"
    )
    return result


def table11_answered_questions() -> ExperimentResult:
    """Table 11: the correctly answered questions with response times."""
    run = run_ganswer()
    result = ExperimentResult(
        "table11",
        "Table 11 — correctly answered questions with response time "
        "(paper: 32 questions, 250–2565 ms on DBpedia)",
        ["id", "question", "response time (ms)"],
    )
    for outcome in run.right_questions():
        result.rows.append(
            [
                f"Q{outcome.question.qid}",
                outcome.question.text,
                round(outcome.total_time * 1000, 2),
            ]
        )
    measured = {outcome.question.qid for outcome in run.right_questions()}
    expected = set(paper.TABLE11_QUESTION_IDS)
    overlap = len(measured & expected)
    result.notes.append(
        f"{overlap}/32 of the paper's Table 11 question ids answered "
        "correctly by the reproduction"
    )
    return result


def yago_generalization() -> ExperimentResult:
    """Generalization: the same pipeline, nothing tuned, on a second KB.

    Section 6 mentions evaluating on Yago2 besides DBpedia and omits the
    results for space; the YAGO-style repository's own dictionary is
    mined and its 20 benchmark questions answered.
    """
    kg = build_yago_mini()
    system = GAnswer(
        kg, ParaphraseMiner(kg, max_path_length=4, top_k=3).mine(yago_phrase_dataset())
    )
    result = ExperimentResult(
        "yago_generalization",
        "Generalization — YAGO2-style repository, 20 questions",
        ["question", "answers", "total (ms)"],
    )
    right = 0
    for question in yago_questions():
        answer = system.answer(question.text)
        right += frozenset(term_to_gold(t) for t in answer.answers) == question.gold
        result.rows.append(
            [
                question.text,
                ", ".join(sorted(str(a) for a in answer.answers)) or "(none)",
                round(answer.total_time * 1000, 2),
            ]
        )
    result.notes.append(f"exactly right: {right}/20")
    return result
