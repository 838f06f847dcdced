"""End-to-end tracing: one question, the full span tree and counters."""

import pytest

from repro import obs
from repro.core import GAnswer

QUESTION = "Who is the mayor of Berlin?"


@pytest.fixture
def traced(kg, dictionary):
    tracer = obs.Tracer()
    system = GAnswer(kg, dictionary)
    result = system.answer(QUESTION, tracer=tracer)
    return tracer, result


class TestRecordedSpanTree:
    def test_root_is_answer_span(self, traced):
        tracer, _result = traced
        assert len(tracer.roots) == 1
        root = tracer.roots[0]
        assert root.name == "answer"
        assert root.attributes["question"] == QUESTION
        assert root.attributes["answers"] == 1

    def test_understanding_stage_children(self, traced):
        tracer, _result = traced
        understanding = tracer.roots[0].find("understanding")
        assert understanding is not None
        names = [child.name for child in understanding.children]
        assert names == [
            "parse", "relation_extraction", "argument_finding", "qs_build",
        ]

    def test_evaluation_stage_children(self, traced):
        tracer, _result = traced
        evaluation = tracer.roots[0].find("evaluation")
        assert evaluation is not None
        names = [child.name for child in evaluation.children]
        assert names[0] == "candidate_mapping"
        assert "top_k.search" in names
        assert names[-1] == "sparql_generation"
        # Entity linking happens per phrase inside candidate mapping.
        assert evaluation.find("linking") is not None

    def test_stage_durations_sum_into_parents(self, traced):
        tracer, result = traced
        root = tracer.roots[0]
        understanding = root.find("understanding")
        evaluation = root.find("evaluation")
        assert understanding.duration + evaluation.duration <= root.duration
        assert result.understanding_time == pytest.approx(understanding.duration)
        assert result.evaluation_time == pytest.approx(evaluation.duration)
        for span in root.walk():
            assert span.end is not None, f"span {span.name} left open"

    def test_search_counters_recorded(self, traced):
        tracer, _result = traced
        counters = tracer.metrics.counters
        assert counters["top_k.searches"] >= 1
        assert counters["top_k.seeds_explored"] >= 1
        assert counters["matcher.expansions"] >= 1
        assert counters["linker.lookups"] >= 1
        assert sum(
            count for name, count in counters.items()
            if name.startswith("top_k.terminated.")
        ) == counters["top_k.searches"]

    def test_search_span_attributes(self, traced):
        tracer, result = traced
        search = tracer.roots[0].find("top_k.search")
        assert search.attributes["terminated_by"] in {
            "threshold", "exhausted", "pruned_empty", "empty",
        }
        assert search.attributes["matches"] >= 1
        assert result.answers  # the traced run still answers the question

    def test_json_export_shape(self, traced):
        tracer, _result = traced
        payload = tracer.to_dict()
        assert payload["spans"][0]["name"] == "answer"
        assert "counters" in payload["metrics"]
        summary = tracer.summary()
        for stage in ("answer", "understanding", "evaluation", "top_k.search"):
            assert summary["spans"][stage]["count"] >= 1


class TestNoopDefault:
    def test_untraced_run_records_nothing(self, kg, dictionary):
        system = GAnswer(kg, dictionary)
        result = system.answer(QUESTION)
        # The process-wide default is the no-op tracer: no spans, no
        # counters — but the coarse stage timings still populate.
        assert obs.get_tracer() is obs.NOOP
        assert obs.NOOP.roots == ()
        assert obs.NOOP.metrics.snapshot() == {"counters": {}, "histograms": {}}
        assert result.understanding_time > 0
        assert result.evaluation_time > 0

    def test_same_answers_with_and_without_tracing(self, kg, dictionary, traced):
        _tracer, traced_result = traced
        plain = GAnswer(kg, dictionary).answer(QUESTION)
        assert [str(t) for t in plain.answers] == [
            str(t) for t in traced_result.answers
        ]


class TestBindingCache:
    def test_binding_of_uses_cached_map(self, traced):
        _tracer, result = traced
        match = result.matches[0]
        for vertex_id, node_id in match.bindings:
            assert match.binding_of(vertex_id) == node_id
        assert match.binding_of(10_000) is None

    def test_cache_does_not_affect_equality_or_hash(self):
        from repro.match.matcher import GraphMatch

        a = GraphMatch(
            bindings=((0, 1),), vertex_confidences=((0, 1.0),),
            edge_assignments=(), score=0.0,
        )
        b = GraphMatch(
            bindings=((0, 1),), vertex_confidences=((0, 1.0),),
            edge_assignments=(), score=0.0,
        )
        assert a == b
        assert hash(a) == hash(b)
        assert a.binding_of(0) == 1
