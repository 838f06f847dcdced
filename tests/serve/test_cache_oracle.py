"""The cache contract against its oracle: *every response served from
cache equals the fresh recomputation*.

Both caches keep an entry across a write unless the write stamped
something the entry read (:mod:`repro.serve.cache`).  That is sound only
if the reported read scope really covers every graph read, so the test is
behavioural: seeded batch sequences over ``dbpedia-mini`` — foreign
namespace, adds over real nodes × real predicates, removals of real
triples, re-adds, mixed, ``rdfs:label`` / ``rdf:type`` triples — with a
``compact()`` in the middle and one direct ``store.add`` +
``engine.refresh()``, and after every batch a sample of the 99 QALD
questions is asked through the cache; whatever comes back *from cache* is
compared (answers, boolean, failure class, SPARQL, match scores) with a
recomputation by a pipeline that shares no cache with the engine.

Budget: 2 seeds × 40 batches × 50 questions for the invariant (4 200
lookups, one seed with ``--aggregation`` on), constructed cases for the
mutants, a 120-batch race and a 240-batch race with compactions; about
5 s of tier-1 wall time in all.

Every QALD question is also asked in five spellings (case, spacing, end
punctuation), forward and in reverse: the key is the question as asked,
so each response equals a fresh answer to that exact string.

Each guard is shown load-bearing by a mutant the same check catches: no
predicate check, no word check, stamps dropped at ``compact()``, no floor
for a version the engine did not publish, a batch that changes the
structural vocabulary treated as an ordinary batch.
"""

import random
import sys
import threading

import pytest

from repro.core import GAnswer
from repro.datasets import build_dbpedia_mini, build_phrase_dataset, qald_questions
from repro.linking.linker import EntityLinker
from repro.paraphrase import ParaphraseMiner
from repro.rdf import IRI, Literal, Triple, TripleStore, vocab
from repro.rdf.graph import KnowledgeGraph
from repro.serve import QAEngine
from repro.serve.cache import ReadStamps
from tests.serve.test_ingest import fresh_engine as private_engine

QUESTIONS = [question.text for question in qald_questions()]


def reference_linker(engine: QAEngine) -> EntityLinker:
    """The engine's linker without its caches: same index, same ceiling
    (both are fixed for an engine's lifetime), degrees read afresh."""
    base = engine.linker
    return EntityLinker(engine.kg, index=base.index, max_degree=base.max_degree)


def reference_system(engine: QAEngine) -> GAnswer:
    return GAnswer(
        engine.kg,
        engine.dictionary,
        k=engine.config.k,
        enable_aggregation=engine.config.enable_aggregation,
        linker=reference_linker(engine),
    )


def observable(answer) -> tuple:
    return (
        [str(term) for term in answer.answers],
        answer.boolean,
        answer.failure,
        answer.sparql_queries,
        [(match.bindings, match.score) for match in answer.matches],
    )


def served_stale(engine: QAEngine, reference: GAnswer, questions) -> tuple[int, list[str]]:
    """Ask through the cache; ``(served from cache, those that differ from
    a fresh recomputation)``."""
    served, stale = 0, []
    for question in questions:
        answer, _tracer, from_cache = engine._process(question, None, False)
        if from_cache:
            served += 1
            if observable(answer) != observable(reference.answer(question)):
                stale.append(question)
    return served, stale


class Batches:
    """Seeded ``(adds, removes)`` batches in the kinds the module names."""

    def __init__(self, kg: KnowledgeGraph, rng: random.Random):
        self.kg, self.rng = kg, rng
        store = kg.store
        structural = kg.structural_predicate_ids
        self.entities = sorted(
            (kg.iri_of(node) for node in store.node_ids()), key=str
        )
        self.predicates = sorted(
            (kg.iri_of(pid) for pid in store.predicate_ids() if pid not in structural),
            key=str,
        )
        self.classes = sorted((kg.iri_of(node) for node in kg.class_ids), key=str)
        self.removed: list[Triple] = []
        self.serial = 0
        self.kinds = [
            self.foreign, self.real_adds, self.removals, self.readds,
            self.mixed, self.structural,
        ]

    def next(self) -> tuple[list[Triple], list[Triple]]:
        return self.rng.choice(self.kinds)()

    def _fresh_iri(self, kind: str) -> IRI:
        self.serial += 1
        return IRI(f"t:{kind}{self.serial}")

    def foreign(self):
        return [
            Triple(self._fresh_iri("s"), IRI(f"t:p{self.rng.randrange(4)}"), self._fresh_iri("o"))
            for _ in range(self.rng.randint(1, 5))
        ], []

    def real_adds(self):
        choice = self.rng.choice
        return [
            Triple(choice(self.entities), choice(self.predicates), choice(self.entities))
            for _ in range(self.rng.randint(1, 3))
        ], []

    def removals(self):
        # Structural triples have their own kind: two in three triples of
        # the graph are labels and types, and each takes every answer.
        live = sorted(
            (t for t in self.kg.store.triples() if t.predicate not in vocab.STRUCTURAL_PREDICATES),
            key=str,
        )
        gone = self.rng.sample(live, self.rng.randint(1, 3))
        self.removed.extend(gone)
        return [], gone

    def readds(self):
        if not self.removed:
            return self.removals()
        self.rng.shuffle(self.removed)
        back, self.removed = self.removed[:2], self.removed[2:]
        return back, []

    def mixed(self):
        adds = self.foreign()[0] + self.real_adds()[0]
        return adds, self.removals()[1]

    def structural(self):
        entity = self.rng.choice(self.entities)
        if self.rng.random() < 0.5:
            self.serial += 1
            return [Triple(entity, vocab.RDFS_LABEL, Literal(f"probe {self.serial}"))], []
        return [Triple(entity, vocab.RDF_TYPE, self.rng.choice(self.classes))], []


def run_oracle(engine: QAEngine, seed: int, rounds: int, sample: int) -> tuple[int, list]:
    """The random sequence; ``(served from cache, stale responses)``."""
    rng = random.Random(seed)
    reference = reference_system(engine)
    batches = Batches(engine.kg, rng)
    served, stale = served_stale(engine, reference, QUESTIONS)
    for round_number in range(rounds):
        adds, removes = batches.next()
        engine.ingest(adds, removes)
        if round_number == rounds // 2:
            engine.compact()
        if round_number == (2 * rounds) // 3:
            # Behind the engine's back, then owned up to.
            engine.kg.store.add_all(batches.real_adds()[0])
            engine.refresh()
        # A sample, so that entries also sit out several writes unasked.
        now_served, now_stale = served_stale(
            engine, reference, rng.sample(QUESTIONS, sample)
        )
        served += now_served
        stale.extend((round_number, question) for question in now_stale)
    return served, stale


# --------------------------------------------------------------------- #
# The invariant
# --------------------------------------------------------------------- #


class TestServedEqualsFresh:
    @pytest.mark.parametrize("seed, aggregation", [(11, False), (12, True)])
    def test_random_batches(self, kg, dictionary, seed, aggregation):
        engine = private_engine(kg, dictionary, enable_aggregation=aggregation)
        try:
            served, stale = run_oracle(engine, seed, rounds=40, sample=50)
        finally:
            engine.close()
        assert stale == []
        # The cache is doing something: most lookups are served, and some
        # entries did die along the way.
        assert served > 1000
        assert engine.metrics.counter("serve.cache.stale") > 50

    def test_foreign_batch_leaves_every_entry_served(self, kg, dictionary):
        engine = private_engine(kg, dictionary)
        try:
            for question in QUESTIONS:
                engine.ask(question)
            batch, _ = Batches(engine.kg, random.Random(0)).foreign()
            engine.ingest(batch)
            assert all(engine.ask(question)["cached"] for question in QUESTIONS)
            hits = engine.link_cache.stats()["hits"]
            engine.ask(QUESTIONS[0], use_cache=False)
            assert engine.link_cache.stats()["hits"] > hits
        finally:
            engine.close()

    def test_aggregated_answers_stay_bound_to_their_version(self, kg, dictionary):
        """``apply_superlative`` picks predicates by local name: no scope
        says that, so the entry dies with the next published version."""
        engine = private_engine(kg, dictionary, enable_aggregation=True)
        question = "What is the highest mountain in Germany?"
        plain = "Who is the mayor of Berlin?"
        try:
            assert engine.answer(question).scope is None
            engine.ask(plain)
            assert engine.ask(question)["cached"] is True
            engine.ingest([Triple(IRI("t:s"), IRI("t:p"), IRI("t:o"))])
            assert engine.ask(question)["cached"] is False
            assert engine.ask(plain)["cached"] is True
        finally:
            engine.close()


# --------------------------------------------------------------------- #
# The key: the question as asked
# --------------------------------------------------------------------- #


def spellings(question: str) -> list[str]:
    """Five forms of one question: as written, lower-case, upper-case,
    double-spaced and without end punctuation."""
    return [
        question,
        question.lower(),
        question.upper(),
        question.replace(" ", "  "),
        question.rstrip("?!. "),
    ]


def outcome(answers, boolean, failure) -> tuple:
    return [str(term) for term in answers], boolean, failure


class TestEverySpellingIsAnsweredAsAsked:
    """The tagger reads case, so one spelling's answer must never serve
    another: whatever order the forms arrive in, each response equals a
    fresh pipeline's answer to that exact string."""

    def test_forward_and_reverse(self, kg, dictionary):
        asked = [form for question in QUESTIONS for form in spellings(question)]
        fresh = GAnswer(kg, dictionary)
        expected = {}
        for form in asked:
            answer = fresh.answer(form)
            expected[form] = outcome(answer.answers, answer.boolean, answer.failure)
        # Case changes answers: the check has something to catch.
        assert sum(
            expected[question] != expected[question.upper()] for question in QUESTIONS
        ) > 10
        for order in (asked, asked[::-1]):
            engine = QAEngine(kg, dictionary)
            try:
                wrong = []
                for form in order:
                    response = engine.ask(form)
                    served = outcome(
                        response["answers"], response["boolean"], response["failure"]
                    )
                    if served != expected[form] or response["question"] != form:
                        wrong.append(form)
            finally:
                engine.close()
            assert wrong == []


# --------------------------------------------------------------------- #
# The 300-edge construction: the clamp, and the witness for word stamps
# --------------------------------------------------------------------- #

PHILADELPHIA_Q = "Did Antonio Banderas star in Philadelphia?"


@pytest.fixture(scope="module")
def crowded():
    """``(kg, dictionary)`` with 25 label clones per entity: ten
    "Philadelphia" candidates, the cut of the link list."""
    kg = build_dbpedia_mini(25)
    mined = ParaphraseMiner(kg, max_path_length=4, top_k=3).mine(build_phrase_dataset())
    return kg, mined


def edges_onto(node: IRI, count: int = 300) -> list[Triple]:
    return [Triple(IRI(f"bench:e{i}"), IRI("bench:p0"), node) for i in range(count)]


def philadelphia_scenario(engine: QAEngine) -> list[str]:
    """What the caches got wrong across two 300-edge batches (nothing,
    unless a guard is missing).  ``bench:p0`` is in no answer's scope and
    the new subjects are in no posting list: only the word stamps of the
    grown node stand between the cached values and the next reader."""
    kg = engine.kg
    reference = reference_system(engine)
    wrong = []
    before = engine.linker.link("Philadelphia")
    assert len(before) == 10
    scores_before = [m.score for m in engine.answer(PHILADELPHIA_Q).matches]
    # The lowest-ranked homonym outgrows the graph's maximum degree.
    last = before[-1]
    engine.ingest(edges_onto(kg.iri_of(last.node_id)))
    after = engine.linker.link("Philadelphia")
    fresh = reference_linker(engine).link("Philadelphia")
    assert fresh[0].node_id == last.node_id and fresh[0].score == 1.0
    if after != fresh:
        wrong.append("link list")
    # The film the question is about moves up: its confidence is in the score.
    engine.ingest(edges_onto(IRI("res:Philadelphia_(film)")))
    answer, _tracer, from_cache = engine._process(PHILADELPHIA_Q, None, False)
    fresh_answer = reference.answer(PHILADELPHIA_Q)
    assert [m.score for m in fresh_answer.matches] != scores_before
    if observable(answer) != observable(fresh_answer):
        wrong.append("answer")
    assert not (from_cache and not wrong), "a changed answer cannot come from cache"
    return wrong


class TestThreeHundredEdges:
    def test_confidence_stays_within_one_and_caches_follow(self, crowded):
        engine = private_engine(*crowded)
        try:
            assert philadelphia_scenario(engine) == []
            assert all(c.score <= 1.0 for c in engine.linker.link("Philadelphia"))
            assert engine.metrics.counter("serve.link_cache.stale") == 2
            assert engine.metrics.counter("serve.cache.stale") == 1
        finally:
            engine.close()


# --------------------------------------------------------------------- #
# Mutants: every guard is load-bearing
# --------------------------------------------------------------------- #


BERLIN_Q = "Who is the mayor of Berlin?"
#: All-wildcard: no mention is linked, the seeds come from the kernel's
#: step directory.
MARRIED_Q = "Who is married to the mayor of Berlin?"


def stale_after(engine: QAEngine, write, question: str = BERLIN_Q) -> list[str]:
    """Cache an answer, let ``write(engine)`` change it, ask again."""
    engine.ask(question)
    write(engine)
    return served_stale(engine, reference_system(engine), [question])[1]


def write_a_marriage(engine: QAEngine) -> None:
    # Neither node is filed under a word the question looked up: only the
    # predicate says the answer moved.
    engine.ingest([Triple(IRI("res:Inception"), IRI("ont:spouse"), IRI("res:Michael_Jackson"))])
    assert "res:Inception" in engine.ask(MARRIED_Q, use_cache=False)["answers"]


NEW_MAYOR = Triple(IRI("res:Berlin"), IRI("ont:mayor"), IRI("t:NewMayor"))


def write_then_compact(engine: QAEngine) -> None:
    engine.ingest([NEW_MAYOR])
    engine.compact()


def write_behind_the_engine(engine: QAEngine) -> None:
    engine.ingest([Triple(IRI("t:s"), IRI("t:p"), IRI("t:o"))])  # now writable
    engine.kg.store.add(NEW_MAYOR)
    engine.refresh()


class TestMutants:
    """Each case runs a scenario twice: as shipped (nothing stale) and with
    one guard knocked out (something stale) — the guard is what holds."""

    def test_no_predicate_check(self, kg, dictionary, monkeypatch):
        def run():
            engine = private_engine(kg, dictionary)
            try:
                return stale_after(engine, write_a_marriage, MARRIED_Q)
            finally:
                engine.close()

        assert run() == []
        publish = ReadStamps.publish
        monkeypatch.setattr(
            ReadStamps, "publish",
            lambda self, version, predicates, words: publish(self, version, (), words),
        )
        assert run() == [MARRIED_Q]

    def test_no_word_check(self, crowded, monkeypatch):
        def run():
            engine = private_engine(*crowded)
            try:
                return philadelphia_scenario(engine)
            finally:
                engine.close()

        assert run() == []
        publish = ReadStamps.publish
        monkeypatch.setattr(
            ReadStamps, "publish",
            lambda self, version, predicates, words: publish(self, version, predicates, ()),
        )
        assert run() == ["link list", "answer"]

    def test_stamps_dropped_at_compact(self, kg, dictionary, monkeypatch):
        def run():
            engine = private_engine(kg, dictionary)
            try:
                return stale_after(engine, write_then_compact)
            finally:
                engine.close()

        assert run() == []
        compact = QAEngine.compact

        def forgetful_compact(self, *args, **kwargs):
            # As if the stamps lived in the backend that is swapped out.
            result = compact(self, *args, **kwargs)
            with self.stamps._lock:
                self.stamps._predicates.clear()
                self.stamps._words.clear()
            return result

        monkeypatch.setattr(QAEngine, "compact", forgetful_compact)
        assert run() == [BERLIN_Q]

    def test_no_floor_for_an_unpublished_version(self, kg, dictionary, monkeypatch):
        def run():
            engine = private_engine(kg, dictionary)
            try:
                return stale_after(engine, write_behind_the_engine)
            finally:
                engine.close()

        assert run() == []
        monkeypatch.setattr(
            ReadStamps, "publish_all",
            lambda self, version: self.publish(version, (), ()),
        )
        assert run() == [BERLIN_Q]

    def test_structural_vocabulary_batch_is_not_an_ordinary_batch(
        self, kg, dictionary, monkeypatch
    ):
        """Over a graph with no ``rdf:type`` yet, the first such triple
        gives the predicate its id — which no older scope can hold.  If
        that batch is stamped like any other, an answer cached before it
        stays deaf to every later ``rdf:type`` write that reaches it only
        through the class hierarchy."""
        question = "Which people starred in Philadelphia?"

        def run():
            # Its own term table each time: an id, once given, stays.
            untyped = TripleStore()
            untyped.add_all(t for t in kg.store.triples() if t.predicate != vocab.RDF_TYPE)
            untyped_kg = KnowledgeGraph(untyped)
            mined = ParaphraseMiner(untyped_kg, max_path_length=4, top_k=3).mine(
                build_phrase_dataset()
            )
            engine = private_engine(untyped_kg, mined)
            try:
                assert engine.ask(question)["answers"] == []
                engine.ingest([Triple(IRI("t:Probe"), vocab.RDF_TYPE, IRI("res:Film"))])
                floor_raised = (
                    engine.stats()["ingest"]["floor_version"] == engine.store_version
                )
                # An actor is a person: neither node is filed under a word
                # of the question.
                engine.ingest(
                    [Triple(IRI("res:Tom_Hanks"), vocab.RDF_TYPE, IRI("res:Actor"))]
                )
                stale = served_stale(engine, reference_system(engine), [question])[1]
                assert engine.ask(question)["answers"] == ["res:Tom_Hanks"] or stale
                return stale, floor_raised
            finally:
                engine.close()

        assert run() == ([], True)
        publish = QAEngine._publish
        monkeypatch.setattr(
            QAEngine, "_publish",
            lambda self, batch, _before: publish(
                self, batch, self.kg.structural_predicate_ids
            ),
        )
        assert run() == ([question], False)


# --------------------------------------------------------------------- #
# Readers racing a writer
# --------------------------------------------------------------------- #


class TestReadersRacingAWriter:
    def test_no_entry_from_an_overlapped_read_is_served(self, kg, dictionary):
        """Two readers cycle through the questions while a writer lands
        real-vocabulary batches.  A read that overlapped a batch filed its
        entry under the version it took *before* computing, and the batch
        stamped its *final* version — so once the writer is done, whatever
        the interleaving was, every resident entry that still validates
        equals a fresh recomputation."""
        engine = private_engine(kg, dictionary, pool_size=3)
        engine.ingest([Triple(IRI("t:s"), IRI("t:p"), IRI("t:o"))])  # overlay in place
        batches = Batches(engine.kg, random.Random(5))
        writing = threading.Event()
        writing.set()
        failures: list[str] = []
        asked = [0, 0]

        def read(slot: int) -> None:
            rng = random.Random(slot)
            try:
                while writing.is_set():
                    engine.ask(rng.choice(QUESTIONS))
                    asked[slot] += 1
            except Exception as error:  # surfaced below, not lost in the thread
                failures.append(repr(error))

        readers = [threading.Thread(target=read, args=(slot,)) for slot in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in readers:
                thread.start()
            for _ in range(120):
                engine.ingest(*batches.next())
            writing.clear()
            for thread in readers:
                thread.join(timeout=30)
        finally:
            writing.clear()
            sys.setswitchinterval(interval)
        try:
            assert not any(thread.is_alive() for thread in readers)
            assert failures == []
            assert min(asked) > 0
            resident = len(engine.answer_cache)
            served, stale = served_stale(engine, reference_system(engine), QUESTIONS)
            assert stale == []
            assert 0 < served <= resident <= len(QUESTIONS)
        finally:
            engine.close()

    def test_uncached_readers_never_meet_a_reclaimed_term(self, kg, dictionary):
        """Two readers recompute every answer while a writer flips the
        successor of John F. Kennedy to a new term per batch, churns a
        private namespace and compacts every third batch — retiring the
        terms it just removed.  A reader can hold such a term's id when
        the compaction runs; reclamation waits for it, so no read fails,
        and every response is the recomputation at some version: the
        answers before the writer started, plus flip terms."""
        engine = private_engine(kg, dictionary, pool_size=3)
        flip_q = "Who was the successor of John F. Kennedy?"
        questions = [flip_q, *random.Random(7).sample(QUESTIONS, 7)]
        expected = {
            question: engine.ask(question, use_cache=False)["answers"]
            for question in questions
        }
        writing = threading.Event()
        writing.set()
        failures: list[str] = []
        asked = [0, 0]

        def read(slot: int) -> None:
            rng = random.Random(slot)
            try:
                while writing.is_set():
                    # Every other read is the one that decodes flip terms.
                    question = rng.choice(questions) if asked[slot] % 2 else flip_q
                    answers = engine.ask(question, use_cache=False)["answers"]
                    if [a for a in answers if not a.startswith("t:race/")] != expected[question]:
                        failures.append(f"{question}: {answers}")
                    asked[slot] += 1
            except Exception as error:  # surfaced below, not lost in the thread
                failures.append(repr(error))

        def flip(number: int) -> Triple:
            return Triple(
                IRI("res:John_F._Kennedy"), IRI("ont:successor"), IRI(f"t:race/flip{number}")
            )

        def churn(number: int) -> Triple:
            return Triple(IRI(f"t:race/s{number}"), IRI("t:race/p"), IRI(f"t:race/o{number}"))

        readers = [threading.Thread(target=read, args=(slot,)) for slot in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in readers:
                thread.start()
            for number in range(1, 241):
                engine.ingest(
                    [flip(number), churn(number)], [flip(number - 1), churn(number - 1)]
                )
                if number % 3 == 0:
                    engine.compact()
            writing.clear()
            for thread in readers:
                thread.join(timeout=30)
        finally:
            writing.clear()
            sys.setswitchinterval(interval)
        try:
            assert not any(thread.is_alive() for thread in readers)
            assert failures == []
            assert min(asked) > 0
            # Everything the writer removed was retired; all but what a
            # compaction had to leave to a reader has been reclaimed.
            removed_terms = 3 * 239  # a flip, a subject and an object per batch
            assert 0 < engine.metrics.counter("serve.compact.terms_reclaimed") <= removed_terms
            engine.compact()
            assert engine.metrics.counter("serve.compact.terms_reclaimed") == removed_terms
        finally:
            engine.close()
