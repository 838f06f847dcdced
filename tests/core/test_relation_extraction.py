"""Tests for Algorithm 2: relation-phrase embeddings in dependency trees."""

import gc

import pytest

from repro.core.relation_extraction import RelationExtractor
from repro.nlp import parse_question
from repro.paraphrase import ParaphraseDictionary, PredicateMapping


def make_dictionary(*phrases):
    dictionary = ParaphraseDictionary()
    for phrase in phrases:
        dictionary.add(tuple(phrase.split()), [PredicateMapping((1,), 1.0)])
    return dictionary


def embeddings_of(question, *phrases):
    tree = parse_question(question)
    extractor = RelationExtractor(make_dictionary(*phrases))
    return extractor.find_embeddings(tree), tree


class TestEmbeddingFinding:
    def test_simple_verb_phrase(self):
        found, _ = embeddings_of("Who developed Minecraft?", "develop")
        assert len(found) == 1
        assert found[0].phrase_words == ("develop",)

    def test_multi_word_connected_subtree(self):
        found, _ = embeddings_of(
            "Who was married to an actor?", "be marry to"
        )
        assert len(found) == 1
        words = sorted(node.lower for node in found[0].nodes)
        assert words == ["married", "to", "was"]

    def test_long_distance_dependency(self):
        # "star in" embeds even with the preposition fronted (Section 4.1).
        found, _ = embeddings_of("In which movies did Antonio Banderas star?", "star in")
        assert len(found) == 1
        assert {node.lower for node in found[0].nodes} == {"star", "in"}

    def test_phrase_not_a_subtree_rejected(self):
        # "married in" is not connected in this tree (no "in" under married).
        found, _ = embeddings_of("Who was married to an actor?", "marry in")
        assert found == []

    def test_copular_noun_phrase(self):
        found, _ = embeddings_of("Who is the mayor of Berlin?", "be the mayor of")
        assert len(found) == 1
        assert len(found[0].nodes) == 4

    def test_longest_phrase_wins_overlap(self):
        found, _ = embeddings_of(
            "Who was married to an actor?", "marry", "be marry to"
        )
        assert len(found) == 1
        assert found[0].phrase_words == ("be", "marry", "to")

    def test_disjoint_phrases_both_found(self):
        found, _ = embeddings_of(
            "Who was married to an actor that played in Philadelphia?",
            "be marry to",
            "play in",
        )
        assert len(found) == 2
        assert [e.phrase_words for e in found] == [("be", "marry", "to"), ("play", "in")]

    def test_embedding_root_is_content_word(self):
        # A phrase rooted at a bare preposition must not embed.
        found, tree = embeddings_of(
            "In which UK city are the headquarters of the MI6?", "city in"
        )
        assert found == []

    def test_no_phrases_in_dictionary(self):
        found, _ = embeddings_of("Who developed Minecraft?", "paint")
        assert found == []

    def test_embedding_metadata(self):
        found, tree = embeddings_of("Who developed Minecraft?", "develop")
        embedding = found[0]
        assert embedding.size == 1
        assert embedding.root.lower == "developed"
        assert embedding.node_indexes() == frozenset({1})


class TestProbeLeavesNoGarbage:
    def test_embedding_many_times_makes_no_reference_cycle(self):
        """The probe walk builds no function/cell cycle per call: with the
        collector off, a thousand probes leave nothing for it to find."""
        tree = parse_question("Who was married to an actor that played in Philadelphia?")
        extractor = RelationExtractor(make_dictionary("be marry to", "play in"))
        marry, play = (next(n for n in tree.nodes if n.lemma == lemma) for lemma in ("marry", "play"))
        gc.collect()
        gc.disable()
        try:
            for _ in range(1000):
                assert extractor._embed_at(marry, ("be", "marry", "to")) is not None
                assert extractor._embed_at(play, ("play", "in")) is not None
                assert extractor._embed_at(play, ("be", "marry", "to")) is None
            assert gc.collect() == 0
        finally:
            gc.enable()
