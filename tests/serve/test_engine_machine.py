"""One lifecycle for the engine, model-checked.

A Hypothesis state machine drives ``ask``, ``batch``, ``ingest``,
``compact``, ``refresh``, ``stats`` and ``close`` against one engine over
a private copy of dbpedia-mini.  Before ``close`` every answer — cached or
not — equals a fresh :class:`GAnswer` over the engine's current triples,
whatever was written before it.  After ``close`` every call raises
:class:`EngineClosedError` except ``stats``, which only reads, and the
store version never moves again.

The run is derandomized and small so tier-1 time and outcome are stable.
"""

import functools

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.core import GAnswer
from repro.datasets import build_dbpedia_mini, build_phrase_dataset
from repro.exceptions import EngineClosedError
from repro.paraphrase import ParaphraseMiner
from repro.rdf import IRI, Triple
from repro.rdf.graph import KnowledgeGraph
from repro.serve import EngineConfig, QAEngine

QUESTIONS = [
    "Who is the mayor of Berlin?",
    "Who is married to the mayor of Berlin?",
    "What is the capital of Germany?",
    "Is Michelle Obama the wife of Barack Obama?",
]
#: Triples the machine adds or removes: some flip an answer above, some
#: are already in the graph, one is new to it.
EDITS = [
    Triple(IRI("res:Berlin"), IRI("ont:mayor"), IRI("res:Klaus_Wowereit")),
    Triple(IRI("res:Berlin"), IRI("ont:mayor"), IRI("res:Barack_Obama")),
    Triple(IRI("res:Germany"), IRI("ont:capital"), IRI("res:Berlin")),
    Triple(IRI("res:Barack_Obama"), IRI("ont:spouse"), IRI("res:Michelle_Obama")),
    Triple(IRI("t:a"), IRI("t:p"), IRI("t:b")),
]


@functools.cache
def _offline():
    kg = build_dbpedia_mini()
    dictionary = ParaphraseMiner(kg, max_path_length=4, top_k=3).mine(build_phrase_dataset())
    return kg, dictionary


def _observable(response_or_answer) -> tuple:
    if isinstance(response_or_answer, dict):
        return response_or_answer["answers"], response_or_answer["boolean"]
    return [str(term) for term in response_or_answer.answers], response_or_answer.boolean


class EngineMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        kg, self.dictionary = _offline()
        self.engine = QAEngine(
            KnowledgeGraph(kg.store.compacted()),
            self.dictionary,
            EngineConfig(pool_size=2, queue_limit=4),
        )
        self.engine.warm()
        self.closed_at: int | None = None

    def _fresh(self, question: str) -> tuple:
        """A new pipeline over a copy of the engine's current triples."""
        kg = KnowledgeGraph(self.engine.kg.store.compacted())
        return _observable(GAnswer(kg, self.dictionary).answer(question))

    def _refused(self, call) -> None:
        try:
            call()
        except EngineClosedError:
            return
        raise AssertionError("a closed engine took the call")

    @rule(question=st.sampled_from(QUESTIONS))
    def ask(self, question):
        if self.closed_at is not None:
            self._refused(lambda: self.engine.ask(question))
            return
        assert _observable(self.engine.ask(question)) == self._fresh(question), question

    @rule(questions=st.lists(st.sampled_from(QUESTIONS), min_size=1, max_size=3))
    def batch(self, questions):
        if self.closed_at is not None:
            self._refused(lambda: self.engine.batch(questions))
            return
        responses = self.engine.batch(questions)
        assert [_observable(r) for r in responses] == [self._fresh(q) for q in questions]

    @rule(adds=st.lists(st.sampled_from(EDITS), max_size=2),
          removes=st.lists(st.sampled_from(EDITS), max_size=2))
    def ingest(self, adds, removes):
        if self.closed_at is not None:
            self._refused(lambda: self.engine.ingest(adds, removes))
            return
        self.engine.ingest(adds, removes)

    @rule()
    def compact(self):
        if self.closed_at is not None:
            self._refused(self.engine.compact)
            return
        self.engine.compact()

    @rule()
    def refresh(self):
        if self.closed_at is not None:
            self._refused(self.engine.refresh)
            return
        self.engine.refresh()

    @rule()
    def stats(self):
        stats = self.engine.stats()
        assert stats["store_version"] == self.engine.store_version
        assert stats["ready"] is (self.closed_at is None)

    @precondition(lambda self: self.closed_at is None)
    @rule()
    def close(self):
        self.engine.close()
        self.closed_at = self.engine.store_version

    @invariant()
    def version_is_frozen_after_close(self):
        if self.closed_at is not None:
            assert self.engine.store_version == self.closed_at

    def teardown(self):
        self.engine.close()


EngineMachine.TestCase.settings = settings(
    max_examples=15, stateful_step_count=10, deadline=None, derandomize=True
)
TestEngineLifecycle = EngineMachine.TestCase
