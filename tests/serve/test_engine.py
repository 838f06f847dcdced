"""QAEngine behavior: answers, caching, deadlines, degradation, refresh."""

import pytest

from repro.core import GAnswer
from repro.exceptions import EngineClosedError
from repro.rdf import IRI, Literal, Triple
from repro.serve import EngineConfig, QAEngine

BERLIN_Q = "Who is the mayor of Berlin?"
CAPITAL_Q = "What is the capital of Germany?"


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

    def test_store_mutation_plus_refresh_invalidates(self, fresh_engine, kg):
        before = fresh_engine.ask(BERLIN_Q)
        assert fresh_engine.ask(BERLIN_Q)["cached"] is True
        triple = Triple(IRI("res:CacheProbe"), IRI("rdfs:label"), Literal("probe"))
        kg.store.add(triple)
        try:
            fresh_engine.refresh()
            after = fresh_engine.ask(BERLIN_Q)
            assert after["cached"] is False  # version moved, key misses
            assert after["store_version"] > before["store_version"]
            assert after["answers"] == before["answers"]
        finally:
            kg.store.remove(triple)
            fresh_engine.refresh()

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


class TestDegradation:
    def test_pressure_threshold_degrades_and_skips_cache(self, kg, dictionary):
        # degrade_pressure=0.0 makes every request degraded — the
        # deterministic way to exercise the degraded pipeline.
        engine = QAEngine(
            kg, dictionary,
            EngineConfig(pool_size=1, degrade_pressure=0.0, degraded_k=2),
        )
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
        assert stats["admission"]["capacity"] == (
            engine.config.pool_size + engine.config.queue_limit
        )

    def test_closed_engine_rejects_work(self, kg, dictionary):
        engine = QAEngine(kg, dictionary, EngineConfig(pool_size=1))
        engine.close()
        assert engine.ready is False
        with pytest.raises(EngineClosedError):
            engine.ask(BERLIN_Q)
