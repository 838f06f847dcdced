"""Tests for the DEANNA baseline: joint ILP disambiguation + single SPARQL."""

import pytest

from repro.baselines import Deanna
from repro.rdf import IRI


@pytest.fixture(scope="module")
def deanna(kg, dictionary):
    return Deanna(kg, dictionary)


def answer_names(result):
    return sorted(
        term.local_name if isinstance(term, IRI) else str(term)
        for term in result.answers
    )


class TestDeannaAnswers:
    def test_simple_factoid(self, deanna):
        result = deanna.answer("Who is the mayor of Berlin?")
        assert answer_names(result) == ["Klaus_Wowereit"]

    def test_joint_disambiguation_resolves_philadelphia(self, deanna):
        # Coherence between the starring predicate and the film candidate
        # beats the more prominent city in the ILP.
        result = deanna.answer(
            "Who was married to an actor that played in Philadelphia?"
        )
        assert answer_names(result) == ["Melanie_Griffith"]

    def test_yes_no(self, deanna):
        result = deanna.answer("Is Michelle Obama the wife of Barack Obama?")
        assert result.boolean is True

    def test_wh_variable_reaches_literals_via_sparql(self, deanna):
        result = deanna.answer("What are the nicknames of San Francisco?")
        assert set(answer_names(result)) == {"The Golden City", "Fog City"}

    def test_ilp_explores_nodes(self, deanna):
        deanna.answer("Who is the mayor of Berlin?")
        assert deanna.last_ilp_nodes > 0

    def test_single_interpretation_committed(self, deanna):
        result = deanna.answer("Who is the mayor of Berlin?")
        # All emitted queries are orientations of ONE chosen interpretation.
        assert 1 <= len(result.sparql_queries) <= 2


class TestDeannaLimitations:
    """The failure modes that give our method its Table 8 edge."""

    def test_no_literal_argument_linking(self, deanna):
        result = deanna.answer("Who was called Scarface?")
        assert result.failure == "entity_linking"

    def test_no_demonym_support(self, deanna):
        result = deanna.answer("Give me all Argentine films.")
        assert result.failure == "relation_extraction"

    def test_no_common_noun_variable_fallback(self, deanna):
        result = deanna.answer("Give me all members of Prodigy.")
        assert not result.score_available if hasattr(result, "score_available") else True
        assert result.failure is not None

    def test_no_multi_hop_paths(self, deanna):
        # "player in the Premier League" needs the (team, league) path.
        result = deanna.answer("Who is the youngest player in the Premier League?")
        assert result.answers == []

    def test_no_recall_rules(self, deanna):
        # Without Rules 1–4, the partmod argument is never found.
        result = deanna.answer(
            "Give me all movies directed by Francis Ford Coppola."
        )
        assert result.failure == "relation_extraction"

    def test_understanding_includes_ilp_time(self, deanna):
        result = deanna.answer("Who is the mayor of Berlin?")
        assert result.understanding_time > 0
