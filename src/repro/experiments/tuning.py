"""Parameter tuning on the QALD training split.

QALD campaigns ship a training set for exactly this: picking the system's
parameters before touching the test questions.  The paper's choices are
k = 10 matches (Section 6.3) and path threshold θ = 4 (Section 3); this
driver sweeps both on the 30-question training split and shows those
defaults sitting on the quality plateau — smaller θ loses the multi-hop
relations, while k barely matters once the best-score tie rule extracts
answers.
"""

from __future__ import annotations

import time

from repro.core import GAnswer
from repro.datasets import build_dbpedia_mini, build_phrase_dataset
from repro.datasets.qald import qald_train_questions
from repro.eval import evaluate_system
from repro.experiments.common import ExperimentResult
from repro.paraphrase import ParaphraseMiner


def theta_sweep() -> ExperimentResult:
    """Training-split quality vs the path-length threshold θ."""
    kg = build_dbpedia_mini()
    phrases = build_phrase_dataset()
    questions = qald_train_questions()
    result = ExperimentResult(
        "tuning_theta",
        "Tuning — path threshold θ on the training split "
        "(the paper defaults to θ=4)",
        ["theta", "right (of 30)", "F-1", "mining time (ms)"],
    )
    for theta in (1, 2, 3, 4):
        kg.refresh()  # cold kernel caches: mining times stay comparable across θ
        started = time.perf_counter()
        dictionary = ParaphraseMiner(kg, max_path_length=theta, top_k=3).mine(phrases)
        mining_time = time.perf_counter() - started
        run = evaluate_system(GAnswer(kg, dictionary), questions, f"theta={theta}")
        summary = run.summary
        result.rows.append(
            [theta, summary.right, round(summary.f1, 2), round(mining_time * 1000, 2)]
        )
    result.notes.append(
        "shape to check: quality climbs with θ until the multi-hop "
        "relations are covered, at rising mining cost (Table 7's trade-off)"
    )
    return result


def k_sweep() -> ExperimentResult:
    """Training-split quality vs the number of top matches k."""
    kg = build_dbpedia_mini()
    dictionary = ParaphraseMiner(kg, max_path_length=4, top_k=3).mine(
        build_phrase_dataset()
    )
    questions = qald_train_questions()
    result = ExperimentResult(
        "tuning_k",
        "Tuning — top-k on the training split (the paper uses k=10)",
        ["k", "right (of 30)", "F-1", "evaluation time (ms)"],
    )
    for k in (1, 3, 5, 10, 20):
        system = GAnswer(kg, dictionary, k=k)
        run = evaluate_system(system, questions, f"k={k}")
        total_eval = sum(outcome.evaluation_time for outcome in run.outcomes)
        summary = run.summary
        result.rows.append(
            [k, summary.right, round(summary.f1, 2), round(total_eval * 1000, 2)]
        )
    return result
