"""Export evaluation runs in the QALD-3 result format.

The paper: "We report the query result (i.e., precision, recall,
F-measure) of each question in the same format with QALD-3 result format
in the full version of this paper."  This module produces that artefact:
a JSON document with one record per question — id, question string, the
system's answers, per-question precision/recall/F1 — plus the global
summary, suitable for diffing across runs and for external scoring: no
timing (QALD-3 has no such field; Table 11 reports the times), so the
same answers give the same bytes.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.eval.harness import EvaluationRun
from repro.eval.metrics import term_to_gold


def run_to_qald_json(run: EvaluationRun) -> str:
    """Serialize an evaluation run as a QALD-style JSON document."""
    questions = []
    for outcome in run.outcomes:
        question = outcome.question
        record = {
            "id": question.qid,
            "question": question.text,
            "answers": sorted(term_to_gold(term) for term in outcome.answers),
            "gold": sorted(question.gold),
            "precision": round(outcome.score.precision, 4),
            "recall": round(outcome.score.recall, 4),
            "f1": round(outcome.score.f1, 4),
            "answered": outcome.score.answered,
        }
        if question.is_boolean:
            record["boolean"] = outcome.boolean
            record["gold_boolean"] = question.gold_boolean
        if outcome.failure_class is not None:
            record["failure_class"] = outcome.failure_class
        questions.append(record)
    summary = run.summary
    payload = {
        "dataset": "qald-mini",
        "system": run.system_name,
        "summary": {
            "total": summary.total,
            "processed": summary.processed,
            "right": summary.right,
            "partially": summary.partial,
            "precision": round(summary.precision, 4),
            "recall": round(summary.recall, 4),
            "f1": round(summary.f1, 4),
        },
        "questions": questions,
    }
    return json.dumps(payload, indent=1, sort_keys=False)


def write_qald_results(run: EvaluationRun, path: str | Path) -> Path:
    """Write the QALD-format results to a file; returns the path."""
    path = Path(path)
    path.write_text(run_to_qald_json(run) + "\n", encoding="utf-8")
    return path
