"""QAEngine behavior: answers, caching, deadlines, degradation, refresh,
and the request-thread execution model (slots, admission, close)."""

import threading
import time

import pytest

from repro.core import GAnswer
from repro.exceptions import EngineClosedError
from repro.rdf import IRI, KnowledgeGraph, Literal, Triple
from repro.serve import AdmissionRejected, EngineConfig, QAEngine
from repro.serve import engine as engine_module

BERLIN_Q = "Who is the mayor of Berlin?"
CAPITAL_Q = "What is the capital of Germany?"

JOIN_TIMEOUT = 10.0


def _slow_pipeline(engine, monkeypatch, hold_s, entered=None, only=None):
    """Make ``engine``'s pipeline take ``hold_s`` longer (for every
    question, or just ``only``); returns a dict whose ``"max"`` is the
    most pipelines ever running at once."""
    pipeline_answer = engine._system.answer
    running = {"now": 0, "max": 0}
    gauge = threading.Lock()

    def answer(question, **kwargs):
        with gauge:
            running["now"] += 1
            running["max"] = max(running["max"], running["now"])
        if entered is not None:
            entered.set()
        try:
            if only is None or question == only:
                time.sleep(hold_s)
            return pipeline_answer(question, **kwargs)
        finally:
            with gauge:
                running["now"] -= 1

    monkeypatch.setattr(engine._system, "answer", answer)
    return running


def _in_threads(calls):
    """Run each zero-argument call on its own thread; outcomes in order
    (the return value, or the exception it raised)."""
    outcomes = [None] * len(calls)

    def run(index, call):
        try:
            outcomes[index] = call()
        except Exception as error:  # noqa: BLE001 - the outcome under test
            outcomes[index] = error

    threads = [
        threading.Thread(target=run, args=(index, call))
        for index, call in enumerate(calls)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=JOIN_TIMEOUT)
    assert not any(thread.is_alive() for thread in threads)
    return outcomes


class TestEngineConfig:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            EngineConfig(pool_size=0)
        with pytest.raises(ValueError):
            EngineConfig(queue_limit=-1)
        with pytest.raises(ValueError):
            EngineConfig(degrade_pressure=1.5)
        with pytest.raises(ValueError):
            EngineConfig(deadline_s=0)

    @pytest.mark.parametrize("deadline", [float("nan"), float("inf")])
    def test_rejects_a_deadline_that_never_comes_due(self, deadline):
        # ``time.monotonic() >= start + nan`` is never true.
        with pytest.raises(ValueError, match="finite"):
            EngineConfig(deadline_s=deadline)

    def test_fingerprint_tracks_answer_affecting_knobs(self):
        assert EngineConfig(k=10).fingerprint() != EngineConfig(k=3).fingerprint()
        assert EngineConfig().fingerprint() == EngineConfig().fingerprint()


class TestAsk:
    def test_answers_match_direct_pipeline(self, engine, kg, dictionary):
        direct = GAnswer(kg, dictionary).answer(BERLIN_Q)
        response = engine.ask(BERLIN_Q)
        assert response["answers"] == [str(term) for term in direct.answers]
        assert response["failure"] == direct.failure
        assert response["processed"] is True
        assert response["sparql"] is not None

    def test_response_shape(self, engine):
        response = engine.ask(CAPITAL_Q)
        for key in (
            "trace_id", "question", "answers", "boolean", "processed",
            "failure", "terminated_by", "sparql", "degraded", "cached",
            "store_version", "timings_ms",
        ):
            assert key in response
        assert set(response["timings_ms"]) == {"understanding", "evaluation", "total"}
        assert response["store_version"] == engine.store_version

    def test_trace_flag_attaches_span_summary(self, engine):
        # An uncached question: cache hits return the stored result and
        # cannot carry a per-request trace.
        response = engine.ask("Is Berlin the capital of Germany?", trace=True)
        assert response["cached"] is False
        assert "trace" in response
        assert "answer" in response["trace"]["spans"]

    def test_batch_preserves_order(self, engine):
        responses = engine.batch([CAPITAL_Q, BERLIN_Q])
        assert [r["question"] for r in responses] == [CAPITAL_Q, BERLIN_Q]

    def test_batch_with_a_raising_question_releases_every_slot(
        self, kg, dictionary, monkeypatch
    ):
        # Regression: only the raising question's slot was released, so
        # each such batch leaked the rest until every request got a 429.
        engine = QAEngine(kg, dictionary, EngineConfig(pool_size=2))
        pipeline_answer = engine._system.answer

        def answer(question, **kwargs):
            if question == "boom":
                raise RuntimeError("injected")
            return pipeline_answer(question, **kwargs)

        monkeypatch.setattr(engine._system, "answer", answer)
        try:
            with pytest.raises(RuntimeError, match="injected"):
                engine.batch(["boom", BERLIN_Q, CAPITAL_Q, BERLIN_Q])
            assert engine.admission.stats()["in_flight"] == 0
            assert engine.ask(BERLIN_Q)["answers"]
        finally:
            engine.close()


class TestRequestThread:
    def test_pipeline_runs_on_the_calling_thread(self, kg, dictionary, monkeypatch):
        engine = QAEngine(kg, dictionary, EngineConfig(pool_size=1))
        pipeline_answer = engine._system.answer
        ran_on = []

        def answer(question, **kwargs):
            ran_on.append(threading.get_ident())
            return pipeline_answer(question, **kwargs)

        monkeypatch.setattr(engine._system, "answer", answer)
        try:
            assert engine.ask(BERLIN_Q)["answers"]
        finally:
            engine.close()
        assert ran_on == [threading.get_ident()]

    def test_an_engine_owns_no_threads(self, kg, dictionary):
        before = threading.active_count()
        engine = QAEngine(kg, dictionary, EngineConfig(pool_size=4))
        engine.warm()
        try:
            engine.ask(BERLIN_Q)
            engine.batch([CAPITAL_Q, BERLIN_Q])
            engine.answer(CAPITAL_Q)
            assert threading.active_count() == before
        finally:
            engine.close()

    def test_slots_bound_running_and_admission_bounds_waiting(
        self, kg, dictionary, monkeypatch
    ):
        # pool_size=2, queue_limit=1: of five simultaneous asks two run,
        # one waits for a slot, two are turned away.
        engine = QAEngine(
            kg, dictionary,
            EngineConfig(pool_size=2, queue_limit=1, cache_size=0, deadline_s=None),
        )
        running = _slow_pipeline(engine, monkeypatch, hold_s=0.3)
        try:
            outcomes = _in_threads(
                [lambda: engine.ask(BERLIN_Q, use_cache=False)] * 5
            )
        finally:
            engine.close()
        rejected = [o for o in outcomes if isinstance(o, AdmissionRejected)]
        answered = [o for o in outcomes if isinstance(o, dict)]
        assert len(rejected) == 2 and len(answered) == 3
        assert all(response["answers"] for response in answered)
        assert running["max"] == 2
        stats = engine.admission.stats()
        assert stats["admitted"] == 3 and stats["rejected"] == 2
        assert stats["in_flight"] == 0

    def test_close_waits_for_in_flight_and_fails_the_waiting(
        self, kg, dictionary, monkeypatch
    ):
        engine = QAEngine(
            kg, dictionary,
            EngineConfig(pool_size=1, queue_limit=2, cache_size=0, deadline_s=None),
        )
        entered = threading.Event()
        _slow_pipeline(engine, monkeypatch, hold_s=0.3, entered=entered)
        closed_at = []

        def close_once_running():
            assert entered.wait(timeout=JOIN_TIMEOUT)
            time.sleep(0.05)  # let the second ask reach the slot wait
            engine.close()
            closed_at.append(time.monotonic())

        def ask_after_first():
            assert entered.wait(timeout=JOIN_TIMEOUT)
            return engine.ask(CAPITAL_Q)

        started = time.monotonic()
        in_flight, waiting, _ = _in_threads(
            [lambda: engine.ask(BERLIN_Q), ask_after_first, close_once_running]
        )
        assert in_flight["answers"]  # the running answer finished normally
        assert isinstance(waiting, EngineClosedError)
        assert closed_at[0] - started >= 0.3  # close() outlasted the answer
        assert engine.admission.stats()["in_flight"] == 0


class TestAnswerCache:
    @pytest.fixture()
    def fresh_engine(self, kg, dictionary):
        engine = QAEngine(kg, dictionary, EngineConfig(pool_size=1, queue_limit=2))
        yield engine
        engine.close()

    def test_repeat_question_is_served_from_cache(self, fresh_engine):
        first = fresh_engine.ask(BERLIN_Q)
        second = fresh_engine.ask(BERLIN_Q)
        assert first["cached"] is False
        assert second["cached"] is True
        assert second["answers"] == first["answers"]
        assert fresh_engine.answer_cache.stats()["hits"] == 1

    def test_normalized_variants_share_one_entry(self, fresh_engine):
        fresh_engine.ask(BERLIN_Q)
        variant = fresh_engine.ask("  who is the  MAYOR of berlin ")
        assert variant["cached"] is True

    def test_store_mutation_plus_refresh_invalidates(self, kg, dictionary):
        # The shared graph is frozen: write to an overlay over it.
        live = KnowledgeGraph(kg.store.overlay())
        engine = QAEngine(live, dictionary, EngineConfig(pool_size=1, queue_limit=2))
        try:
            before = engine.ask(BERLIN_Q)
            assert engine.ask(BERLIN_Q)["cached"] is True
            live.store.add(Triple(IRI("res:CacheProbe"), IRI("rdfs:label"), Literal("probe")))
            engine.refresh()
            after = engine.ask(BERLIN_Q)
            assert after["cached"] is False  # version moved, key misses
            assert after["store_version"] > before["store_version"]
            assert after["answers"] == before["answers"]
        finally:
            engine.close()

    def test_cache_disabled_by_config(self, kg, dictionary):
        engine = QAEngine(
            kg, dictionary, EngineConfig(pool_size=1, cache_size=0)
        )
        try:
            engine.ask(BERLIN_Q)
            assert engine.ask(BERLIN_Q)["cached"] is False
        finally:
            engine.close()


class TestDeadline:
    def test_expired_deadline_returns_partial_with_marker(self, kg, dictionary):
        engine = QAEngine(kg, dictionary, EngineConfig(pool_size=1))
        try:
            response = engine.ask(BERLIN_Q, deadline_s=1e-9)
            assert response["terminated_by"] == "deadline"
            # The cut-short result must not poison the cache: the next
            # uncontended request recomputes at full quality.
            follow_up = engine.ask(BERLIN_Q)
            assert follow_up["cached"] is False
            assert follow_up["terminated_by"] != "deadline"
            assert follow_up["answers"]
            counters = engine.metrics.snapshot()["counters"]
            assert counters["serve.deadline_expired"] == 1
        finally:
            engine.close()


    def test_deadline_counts_the_wait_for_a_slot(self, kg, dictionary, monkeypatch):
        # Regression: the budget was anchored when a pool thread picked the
        # request up, so time queued behind other requests was free and
        # the client-visible budget was exceeded by the whole wait.
        engine = QAEngine(
            kg, dictionary,
            EngineConfig(pool_size=1, queue_limit=2, cache_size=0, deadline_s=None),
        )
        entered = threading.Event()
        _slow_pipeline(
            engine, monkeypatch, hold_s=0.3, entered=entered, only=CAPITAL_Q
        )

        def impatient():
            assert entered.wait(timeout=JOIN_TIMEOUT)
            return engine.ask(BERLIN_Q, deadline_s=0.05)

        try:
            holder, waited = _in_threads([lambda: engine.ask(CAPITAL_Q), impatient])
        finally:
            engine.close()
        assert holder["terminated_by"] != "deadline"
        assert waited["terminated_by"] == "deadline"


class TestDegradation:
    def test_pressure_threshold_degrades_and_skips_cache(
        self, kg, dictionary, monkeypatch
    ):
        # degrade_pressure=0.0 makes every request degraded — the
        # deterministic way to exercise the degraded pipeline.
        monkeypatch.setattr(engine_module, "_DEGRADED_K", 2)
        engine = QAEngine(
            kg, dictionary, EngineConfig(pool_size=1, degrade_pressure=0.0)
        )
        assert engine._degraded_system.k == 2
        try:
            response = engine.ask(BERLIN_Q)
            assert response["degraded"] is True
            assert response["answers"]  # degraded, not broken
            assert engine.ask(BERLIN_Q)["cached"] is False  # never cached
            counters = engine.metrics.snapshot()["counters"]
            assert counters["serve.degraded"] == 2
        finally:
            engine.close()


class TestStats:
    def test_stats_shape(self, engine):
        stats = engine.stats()
        for key in ("store_version", "uptime_s", "ready", "config",
                    "answer_cache", "link_cache", "admission", "kernel"):
            assert key in stats
        assert stats["ready"] is True
        assert set(stats["linker"]) == {
            "entries", "words", "max_degree", "prominence_version", "prominence_cached",
        }
        assert engine.warm()["linker"] == stats["linker"]  # same gauges, read-only
        assert stats["admission"]["capacity"] == (
            engine.config.pool_size + engine.config.queue_limit
        )

    def test_closed_engine_rejects_work(self, kg, dictionary):
        engine = QAEngine(kg, dictionary, EngineConfig(pool_size=1))
        engine.close()
        assert engine.ready is False
        with pytest.raises(EngineClosedError):
            engine.ask(BERLIN_Q)
