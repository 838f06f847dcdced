"""A live-ingest engine in bounded memory.

Two things used to grow with every write.  Each batch left the kernel it
replaced as cyclic garbage (its walk cache wrapped its own bound method),
so memory waited on the cycle collector; and the term dictionary never
forgot a term, so add/remove churn in a fresh namespace grew it without
bound.  Now a replaced kernel is freed by reference count, and compaction
retires every term encoded since the engine opened that no triple names,
then reclaims it once no request admitted before it can still hold its id.
Ids are never reused.

Budget: about 5 s of tier-1 wall time (the soak's 2 000 batches under
``tracemalloc`` are most of it).
"""

import gc
import itertools
import tracemalloc

import pytest

from repro.core import GAnswer
from repro.datasets import qald_questions
from repro.exceptions import TermNotFoundError
from repro.rdf import IRI, Triple
from repro.rdf.snapshot import compile_snapshot, load_snapshot
from repro.serve import EngineConfig, QAEngine
from tests.serve.test_ingest import fresh_engine

FLIP_Q = "Who was the successor of John F. Kennedy?"
JFK = IRI("res:John_F._Kennedy")
SUCCESSOR = IRI("ont:successor")
#: Batches a window keeps alive: the benchmark's sliding window.
LIVE_BATCHES = 40


class Window:
    """The ``http_ingest_mixed`` write stream in a private namespace: each
    step adds a 10-triple batch of new terms and removes the batch added
    ``LIVE_BATCHES`` steps before, so the store keeps its size while every
    removed batch leaves its terms unnamed."""

    def __init__(self, engine: QAEngine, namespace: str):
        self.engine = engine
        self.live: list[list[Triple]] = []
        self._batches = (
            [
                Triple(
                    IRI(f"{namespace}/e{number * 10 + slot}"),
                    IRI(f"{namespace}/p{slot % 7}"),
                    IRI(f"{namespace}/e{number * 10 + slot + 1}"),
                )
                for slot in range(10)
            ]
            for number in itertools.count()
        )

    def step(self) -> None:
        batch = next(self._batches)
        removed = self.live.pop(0) if len(self.live) == LIVE_BATCHES else []
        self.engine.ingest(batch, removed)
        self.live.append(batch)

    def named_terms(self) -> set:
        return {term for batch in self.live for triple in batch for term in triple}


def terms(engine: QAEngine) -> dict:
    return engine.kg.store.dictionary.statistics()


@pytest.fixture()
def collector_restored():
    yield
    gc.enable()


@pytest.fixture(params=["compacted", "snapshot"])
def any_engine(request, kg, dictionary, tmp_path):
    """A writable engine over a compacted copy of the session store, or
    over a snapshot of it (the served form)."""
    if request.param == "compacted":
        engine = fresh_engine(kg, dictionary)
    else:
        compile_snapshot(tmp_path / "g.snap", kg, dictionary)
        engine = QAEngine.from_snapshot(
            tmp_path / "g.snap", EngineConfig(pool_size=2, queue_limit=4)
        )
    engine.warm()
    yield engine
    engine.close()


def test_batches_leave_no_cyclic_garbage(any_engine, collector_restored):
    """With the collector off, 100 add/remove batches through
    ``QAEngine.ingest`` leave nothing for it: every replaced kernel, row
    map and prominence table went by reference count.  (The walk cache
    around a bound method left about 36 objects per batch on this graph.)"""
    window = Window(any_engine, "t:gc")
    for _ in range(LIVE_BATCHES + 5):
        window.step()
    any_engine.ask(FLIP_Q, use_cache=False)
    gc.collect()
    gc.disable()
    for _ in range(100):
        window.step()
    assert gc.collect() == 0


def test_soak_keeps_terms_and_traced_memory_flat(kg, dictionary):
    """2 000 batches in a fresh namespace, compacting every 200: the live
    terms never exceed what the store names plus one interval's worth,
    each compaction brings them back to exactly what the store names, and
    the traced heap after the last compaction is where it was after the
    second."""
    engine = fresh_engine(kg, dictionary)
    try:
        opened = terms(engine)["terms_total"]
        window = Window(engine, "t:soak")
        # A batch brings ten new terms (its subjects; the last object is
        # the next batch's first subject); the stream, seven predicates.
        interval, per_batch = 200, 10
        named = LIVE_BATCHES * per_batch + 1 + 7
        traced = []
        tracemalloc.start()
        try:
            for _round in range(10):
                for _ in range(interval):
                    window.step()
                    assert terms(engine)["terms_live"] <= opened + named + interval * per_batch
                engine.compact()
                assert len(window.named_terms()) == named
                assert terms(engine)["terms_live"] == opened + named
                gc.collect()
                traced.append(tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
        encoded = 10 * interval * per_batch + 1 + 7
        assert terms(engine)["terms_total"] == opened + encoded
        assert engine.metrics.counter("serve.compact.terms_reclaimed") == encoded - named
        # Stated slack: 64 KiB, against the ~1.6 MB of terms (about 200 B
        # each) that the eight intervals between these points encoded.
        assert traced[-1] - traced[1] < 64 * 1024, traced
    finally:
        engine.close()


def test_a_reclaimed_id_is_gone_and_its_term_comes_back_new(kg, dictionary):
    engine = fresh_engine(kg, dictionary)
    try:
        flip = Triple(JFK, SUCCESSOR, IRI("t:reclaimed/flip"))
        engine.ingest([flip])
        terms_table = engine.kg.store.dictionary
        old_id = terms_table.lookup(flip.object)
        assert "t:reclaimed/flip" in engine.ask(FLIP_Q)["answers"]
        engine.ingest([], [flip])
        engine.compact()
        with pytest.raises(TermNotFoundError):
            terms_table.decode(old_id)
        assert terms_table.lookup_or_none(flip.object) is None
        assert engine.ask(FLIP_Q)["answers"] == engine.ask(FLIP_Q, use_cache=False)["answers"]
        assert "t:reclaimed/flip" not in engine.ask(FLIP_Q)["answers"]

        engine.ingest([flip])
        new_id = terms_table.lookup(flip.object)
        assert new_id > old_id
        with pytest.raises(TermNotFoundError):
            terms_table.decode(old_id)
        assert "t:reclaimed/flip" in engine.ask(FLIP_Q)["answers"]
        assert "t:reclaimed/flip" in engine.ask(FLIP_Q, use_cache=False)["answers"]
        engine.compact()  # named again: kept
        assert terms_table.decode(new_id) == flip.object
    finally:
        engine.close()


def test_reclamation_waits_for_the_requests_admitted_before_it(kg, dictionary):
    """A request admitted before the compaction may hold an id the
    compaction found unnamed: the id keeps decoding until that request
    has left, and the first write after it reclaims the term."""
    engine = fresh_engine(kg, dictionary)
    try:
        gone = Triple(JFK, SUCCESSOR, IRI("t:deferred/flip"))
        engine.ingest([gone])
        gone_id = engine.kg.store.dictionary.lookup(gone.object)
        engine.ingest([], [gone])
        reader = engine.admission.admit()  # in flight across the compaction
        engine.compact()
        terms_table = engine.kg.store.dictionary
        assert terms_table.lookup_or_none(gone.object) is None  # retired: a new id next time
        assert terms_table.decode(gone_id) == gone.object
        engine.ingest([Triple(IRI("t:deferred/s"), IRI("t:deferred/p"), IRI("t:deferred/o"))])
        assert terms_table.decode(gone_id) == gone.object
        assert engine.metrics.counter("serve.compact.terms_reclaimed") == 0
        reader.release()
        engine.ingest([], [Triple(IRI("t:deferred/s"), IRI("t:deferred/p"), IRI("t:deferred/o"))])
        with pytest.raises(TermNotFoundError):
            terms_table.decode(gone_id)
        assert engine.metrics.counter("serve.compact.terms_reclaimed") == 1
        assert terms(engine)["terms_reclaimed"] >= 1
    finally:
        engine.close()


def test_a_snapshot_after_a_reclaiming_compaction_answers_the_same(
    kg, dictionary, tmp_path
):
    engine = fresh_engine(kg, dictionary)
    try:
        window = Window(engine, "t:snap")
        for _ in range(LIVE_BATCHES + 20):
            window.step()
        flips = [Triple(JFK, SUCCESSOR, IRI(f"t:snap/flip{n}")) for n in range(3)]
        engine.ingest(flips)
        engine.ingest([], flips[:2])
        engine.compact()
        assert engine.metrics.counter("serve.compact.terms_reclaimed") > 0
        path = tmp_path / "after.snap"
        engine.compact(snapshot_path=str(path))

        state = load_snapshot(path)
        loaded = state.kg.store.dictionary
        live = engine.kg.store.dictionary
        assert loaded.statistics()["terms_reclaimed"] == live.statistics()["terms_reclaimed"]
        assert loaded.terms_in_id_order() == live.terms_in_id_order()
        reclaimed = live.terms_in_id_order().index(None)
        with pytest.raises(TermNotFoundError):
            loaded.decode(reclaimed)
        system = GAnswer(state.kg, state.dictionary, linker=state.build_linker())
        for question in qald_questions():
            expected = engine.ask(question.text, use_cache=False)
            got = system.answer(question.text)
            assert (
                [str(term) for term in got.answers], got.boolean
            ) == (expected["answers"], expected["boolean"]), question.text
    finally:
        engine.close()
