"""Concurrent answering must be indistinguishable from serial answering.

The satellite-1 regression test: one engine hammered from many threads
produces exactly the answers a serial pipeline produces, with and without
the answer cache.  Any unguarded shared state in the kernel, linker,
metrics, or matcher shows up here as wrong answers or raised exceptions.
"""

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core import GAnswer
from repro.datasets import qald_questions
from repro.serve import EngineConfig, QAEngine

#: Enough questions to overlap every pipeline stage across threads, few
#: enough to keep the test quick.  Each is asked several times so threads
#: collide on the same kernel regions and candidate lists.
QUESTION_COUNT = 24
REPEATS = 3


def _serial_reference(kg, dictionary, questions):
    system = GAnswer(kg, dictionary)
    return {
        question: ([str(t) for t in answer.answers], answer.boolean, answer.failure)
        for question in questions
        for answer in [system.answer(question)]
    }


@pytest.fixture(scope="module")
def questions():
    return [q.text for q in qald_questions()[:QUESTION_COUNT]]


@pytest.fixture(scope="module")
def reference(kg, dictionary, questions):
    return _serial_reference(kg, dictionary, questions)


def _hammer(engine, questions):
    """Every question, REPEATS times, interleaved across 8 threads."""
    workload = [q for _ in range(REPEATS) for q in questions]
    with ThreadPoolExecutor(max_workers=8) as pool:
        answers = list(pool.map(engine.answer, workload))
    return workload, answers


class TestConcurrentEqualsSerial:
    def test_with_cache_disabled_every_request_computes(
        self, kg, dictionary, questions, reference
    ):
        # cache_size=0 forces every concurrent request through the full
        # pipeline — the pure thread-safety check.
        engine = QAEngine(
            kg, dictionary,
            EngineConfig(pool_size=8, queue_limit=64, cache_size=0, deadline_s=None),
        )
        try:
            workload, answers = _hammer(engine, questions)
        finally:
            engine.close()
        for question, answer in zip(workload, answers):
            expected = reference[question]
            assert ([str(t) for t in answer.answers], answer.boolean, answer.failure) \
                == expected, f"concurrent answer diverged for {question!r}"

    def test_with_cache_enabled_results_are_identical_too(
        self, kg, dictionary, questions, reference
    ):
        engine = QAEngine(
            kg, dictionary,
            EngineConfig(pool_size=8, queue_limit=64, deadline_s=None),
        )
        try:
            workload, answers = _hammer(engine, questions)
            assert engine.answer_cache.stats()["hits"] > 0  # the cache engaged
        finally:
            engine.close()
        for question, answer in zip(workload, answers):
            expected = reference[question]
            assert ([str(t) for t in answer.answers], answer.boolean, answer.failure) \
                == expected, f"cached concurrent answer diverged for {question!r}"
