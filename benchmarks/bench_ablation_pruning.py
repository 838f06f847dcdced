"""Ablation — neighborhood-based pruning (Section 4.2.2).

Pruning must not change any answer (it removes only candidates that can
appear in no match) while reducing evaluation work on graphs with large
candidate lists.  The benchmark times the evaluation stage with pruning
on; the driver compares both configurations over the full question set.
"""

from repro.core import GAnswer
from repro.datasets import qald_questions
from repro.eval import evaluate_system
from repro.experiments.complexity import pruning_ablation


def test_ablation_pruning(benchmark, record_result, setup_padded):
    system = GAnswer(setup_padded.kg, setup_padded.dictionary, use_pruning=True)
    benchmark(
        lambda: system.answer(
            "Who was married to an actor that played in Philadelphia?"
        )
    )
    result = record_result(pruning_ablation())
    assert len({row[2] for row in result.rows}) == 1  # identical right counts
