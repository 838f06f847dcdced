"""The served evaluation path must score exactly like the direct pipeline:
the engine itself is the ``evaluate_system`` system."""

import pytest

from repro.core import GAnswer
from repro.datasets import qald_questions
from repro.eval.harness import evaluate_system
from repro.serve import EngineConfig, QAEngine

#: A prefix of the benchmark keeps the double evaluation quick while still
#: covering right/partial/failed questions.
SUBSET = 30


@pytest.fixture(scope="module")
def subset():
    return qald_questions()[:SUBSET]


class TestServedEvaluation:
    def test_summary_identical_to_direct_run(self, kg, dictionary, subset):
        direct = evaluate_system(GAnswer(kg, dictionary), subset, "direct")
        engine = QAEngine(kg, dictionary, EngineConfig(pool_size=2, queue_limit=8))
        try:
            served = evaluate_system(engine, subset, "served")
        finally:
            engine.close()

        assert served.summary == direct.summary
        assert served.failure_counts() == direct.failure_counts()
        for direct_outcome, served_outcome in zip(direct.outcomes, served.outcomes):
            assert [str(t) for t in served_outcome.answers] == [
                str(t) for t in direct_outcome.answers
            ]
            assert served_outcome.boolean == direct_outcome.boolean

    def test_served_run_exercises_the_engine(self, kg, dictionary, subset):
        engine = QAEngine(kg, dictionary, EngineConfig(pool_size=2, queue_limit=8))
        try:
            evaluate_system(engine, subset, "served")
            counters = engine.metrics.snapshot()["counters"]
            assert counters["serve.requests"] == len(subset)
            assert engine.admission.stats()["admitted"] == len(subset)
        finally:
            engine.close()
