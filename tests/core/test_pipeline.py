"""End-to-end pipeline tests on the mini-DBpedia KG.

These pin the paper's running example and one representative of every
question shape the evaluation uses, including disambiguation behaviour and
failure classification.
"""

import pytest

from repro.rdf import IRI, Literal
from repro.sparql import evaluate as sparql_evaluate
from repro.sparql import parse_query


def answer_names(result):
    return sorted(
        term.local_name if isinstance(term, IRI) else str(term)
        for term in result.answers
    )


class TestRunningExample:
    def test_answer_is_melanie_griffith(self, system):
        result = system.answer(
            "Who was married to an actor that played in Philadelphia?"
        )
        assert result.failure is None
        assert answer_names(result) == ["Melanie_Griffith"]

    def test_ambiguity_resolved_to_film(self, system, kg):
        result = system.answer(
            "Who was married to an actor that played in Philadelphia?"
        )
        film = kg.id_of(IRI("res:Philadelphia_(film)"))
        bound = {node for match in result.matches for _v, node in match.bindings}
        assert film in bound
        city = kg.id_of(IRI("res:Philadelphia"))
        top = result.matches[0]
        assert city not in dict(top.bindings).values()

    def test_understanding_under_100ms(self, system):
        result = system.answer(
            "Who was married to an actor that played in Philadelphia?"
        )
        assert result.understanding_time < 0.1  # the paper's headline bound

    def test_emitted_sparql_evaluates_to_same_answer(self, system, kg):
        result = system.answer(
            "Who was married to an actor that played in Philadelphia?"
        )
        rows = sparql_evaluate(kg.store, parse_query(result.sparql_queries[0]))
        values = {term for row in rows for term in row.values()}
        assert IRI("res:Melanie_Griffith") in values


class TestQuestionShapes:
    def test_copular_factoid(self, system):
        assert answer_names(system.answer("Who is the mayor of Berlin?")) == [
            "Klaus_Wowereit"
        ]

    def test_imperative_list(self, system):
        result = system.answer("Give me all movies directed by Francis Ford Coppola.")
        assert answer_names(result) == [
            "Apocalypse_Now", "The_Godfather", "The_Godfather_Part_II",
        ]

    def test_class_constrained_wh(self, system):
        result = system.answer("Which cities does the Weser flow through?")
        assert answer_names(result) == ["Bremen", "Bremerhaven", "Minden"]

    def test_relative_clause_conjunction(self, system):
        result = system.answer(
            "Give me all people that were born in Vienna and died in Berlin."
        )
        assert answer_names(result) == ["Carl_Auer", "Rosa_Albach"]

    def test_numeric_literal_answer(self, system):
        result = system.answer("How tall is Michael Jordan?")
        assert [str(t) for t in result.answers] == ["1.98"]

    def test_date_literal_answer(self, system):
        result = system.answer("When did Michael Jackson die?")
        assert [str(t) for t in result.answers] == ["2009-06-25"]

    def test_literal_argument_linking(self, system):
        result = system.answer("Who was called Scarface?")
        assert answer_names(result) == ["Al_Capone"]

    def test_yes_no_true(self, system):
        result = system.answer("Is Michelle Obama the wife of Barack Obama?")
        assert result.boolean is True
        assert result.answers == []

    def test_yes_no_false_on_missing_fact(self, system):
        result = system.answer("Is Berlin the capital of Germany?")
        assert result.boolean is False

    def test_multi_constraint_question(self, system):
        result = system.answer(
            "Which books by Kerouac were published by Viking Press?"
        )
        assert answer_names(result) == ["On_the_Road", "The_Dharma_Bums"]

    def test_demonym_question(self, system):
        result = system.answer("Give me all Argentine films.")
        assert answer_names(result) == [
            "Nine_Queens", "The_Secret_in_Their_Eyes", "Wild_Tales",
        ]

    def test_unlinkable_common_noun_becomes_variable(self, system):
        result = system.answer("Which country does the creator of Miffy come from?")
        assert answer_names(result) == ["Netherlands"]

    def test_superlative_with_direct_predicate(self, system):
        result = system.answer("What is the largest city in Australia?")
        assert answer_names(result) == ["Sydney"]
        assert result.failure is None

    def test_multi_hop_path_question(self, system):
        # player --(team · league)--> Premier League: a 2-hop edge.
        result = system.answer("Who is the youngest player in the Premier League?")
        assert set(answer_names(result)) == {
            "Raheem_Sterling", "Ryan_Giggs", "Wayne_Rooney",
        }
        assert result.failure == "aggregation"


class TestTargetVertices:
    """Regression: every non-wh branch must yield a single target."""

    @staticmethod
    def _vertex_node(word, index, pos, deprel):
        from repro.nlp.dependency import DependencyNode
        from repro.nlp.tokenizer import Token

        return DependencyNode(Token(word, index, pos=pos), deprel=deprel)

    def test_two_direct_objects_yield_one_target(self):
        # "Compare the population of Berlin and the population of Paris" —
        # an imperative with two dobj-attached nominals.  The dobj branch
        # used to return both while the common-noun fallback truncated to
        # one; both now return the single earliest candidate.
        from repro.core.pipeline import target_vertices
        from repro.core.semantic_graph import SemanticQueryGraph

        graph = SemanticQueryGraph()
        second = self._vertex_node("capital", 6, "NN", "dobj")
        first = self._vertex_node("population", 2, "NN", "dobj")
        graph.add_vertex(second, "capital", is_wh=False)
        graph.add_vertex(first, "population", is_wh=False)
        targets = target_vertices(graph)
        assert len(targets) == 1
        assert targets[0].node.index == 2

    def test_multi_wh_still_returns_all(self):
        from repro.core.pipeline import target_vertices
        from repro.core.semantic_graph import SemanticQueryGraph

        graph = SemanticQueryGraph()
        who = self._vertex_node("who", 0, "WP", "nsubj")
        what = self._vertex_node("what", 4, "WP", "dobj")
        graph.add_vertex(what, "what", is_wh=True)
        graph.add_vertex(who, "who", is_wh=True)
        targets = target_vertices(graph)
        assert [v.node.index for v in targets] == [0, 4]

    def test_imperative_question_end_to_end(self, system):
        # An imperative with a conjoined object phrase must still answer
        # from exactly one projected target.
        result = system.answer("Give me all movies directed by Francis Ford Coppola.")
        assert result.failure is None
        assert len(result.answers) == 3


class TestFailureClassification:
    def test_entity_linking_failure(self, system):
        result = system.answer("In which UK city are the headquarters of the MI6?")
        assert result.failure == "entity_linking"
        assert not result.processed

    def test_relation_extraction_failure(self, system):
        result = system.answer("Give me all launch pads operated by NASA.")
        assert result.failure == "relation_extraction"

    def test_no_match_failure(self, system):
        result = system.answer("Who is the wife of Tom Hanks?")
        assert result.failure == "no_match"
        assert result.answers == []

    def test_aggregation_flag(self, system):
        result = system.answer("What is the highest mountain in Germany?")
        assert result.failure == "aggregation"
        assert len(result.answers) > 1


class TestAggregationExtension:
    def test_superlative_post_processing(self, kg, dictionary):
        from repro.core import GAnswer

        extended = GAnswer(kg, dictionary, enable_aggregation=True)
        result = extended.answer("Who is the youngest player in the Premier League?")
        assert answer_names(result) == ["Raheem_Sterling"]
        assert result.failure is None

    def test_oldest_uses_min(self, kg, dictionary):
        from repro.core import GAnswer

        extended = GAnswer(kg, dictionary, enable_aggregation=True)
        result = extended.answer("Who is the tallest player in the Premier League?")
        assert answer_names(result) == ["Ryan_Giggs"]

    def test_highest_mountain(self, kg, dictionary):
        from repro.core import GAnswer

        extended = GAnswer(kg, dictionary, enable_aggregation=True)
        result = extended.answer("What is the highest mountain in Germany?")
        assert answer_names(result) == ["Zugspitze"]


class TestAblationToggles:
    def test_without_rules_loses_questions(self, kg, dictionary):
        from repro.core import GAnswer

        no_rules = GAnswer(kg, dictionary, use_heuristic_rules=False)
        result = no_rules.answer("Give me all movies directed by Francis Ford Coppola.")
        assert result.failure == "relation_extraction"

    def test_without_ta_same_answers(self, kg, dictionary, system):
        from repro.core import GAnswer

        no_ta = GAnswer(kg, dictionary, use_ta=False)
        question = "Who was married to an actor that played in Philadelphia?"
        assert answer_names(no_ta.answer(question)) == answer_names(
            system.answer(question)
        )

    def test_without_pruning_same_answers(self, kg, dictionary, system):
        from repro.core import GAnswer

        no_pruning = GAnswer(kg, dictionary, use_pruning=False)
        question = "Which cities does the Weser flow through?"
        assert answer_names(no_pruning.answer(question)) == answer_names(
            system.answer(question)
        )


class TestAnswerObject:
    def test_timings_populated(self, system):
        result = system.answer("Who is the mayor of Berlin?")
        assert result.understanding_time > 0
        assert result.evaluation_time > 0
        assert result.total_time == pytest.approx(
            result.understanding_time + result.evaluation_time
        )

    def test_processed_semantics(self, system):
        answered = system.answer("Who is the mayor of Berlin?")
        assert answered.processed
        failed = system.answer("Give me all launch pads operated by NASA.")
        assert not failed.processed

    def test_sparql_for_every_top_match(self, system):
        result = system.answer("Which cities does the Weser flow through?")
        assert len(result.sparql_queries) == len(result.matches)


class TestQuestionTaggedOnce:
    @staticmethod
    def _outcome(result):
        """An Answer without its two wall-clock fields."""
        return (
            result.answers, result.boolean, result.matches, result.sparql_queries,
            repr(result.semantic_graph), result.analysis, result.failure,
            result.rules_used, result.terminated_by,
        )

    def test_one_tag_per_answer_and_the_answer_of_tagging_twice(
        self, system, monkeypatch
    ):
        from repro.core import pipeline
        from repro.datasets import qald_questions
        from repro.nlp import dep_parser, questions, tagger

        questions_asked = [q.text for q in qald_questions()]
        assert len(questions_asked) == 99
        tagged = []

        def counting(text_or_tokens):
            tagged.append(text_or_tokens)
            return tagger.tag(text_or_tokens)

        for module in (pipeline, questions, dep_parser):
            monkeypatch.setattr(module, "tag", counting)
        once = [self._outcome(system.answer(q)) for q in questions_asked]
        assert tagged == questions_asked  # one call a question, on its text

        # Handing the text through makes the analysis and the parser tag
        # for themselves, which is what answer() did before.
        monkeypatch.setattr(pipeline, "tag", lambda question: question)
        tagged.clear()
        twice = [self._outcome(system.answer(q)) for q in questions_asked]
        assert len(tagged) == 2 * len(questions_asked)
        assert once == twice
