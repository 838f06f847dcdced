"""Tests for file-level store load/save."""

import pytest

from repro.datasets import build_dbpedia_mini
from repro.exceptions import RDFSyntaxError
from repro.rdf import IRI, KnowledgeGraph, Literal, Triple, TripleStore
from repro.rdf.io import load_store, save_store


class TestRoundTrip:
    def test_store_roundtrip(self, tmp_path):
        store = TripleStore()
        store.add(Triple(IRI("ex:a"), IRI("ex:p"), IRI("ex:b")))
        store.add(Triple(IRI("ex:a"), IRI("ex:label"), Literal("A", language="en")))
        path = tmp_path / "data.nt"
        count = save_store(store, path)
        assert count == 2
        restored = load_store(path)
        assert set(restored.triples()) == set(store.triples())

    def test_mini_dbpedia_roundtrip(self, tmp_path):
        kg = build_dbpedia_mini()
        path = tmp_path / "dbpedia_mini.nt"
        save_store(kg.store, path)
        restored = KnowledgeGraph(load_store(path))
        assert restored.store.statistics() == kg.store.statistics()
        assert set(restored.store.triples()) == set(kg.store.triples())

    def test_deterministic_output(self, tmp_path):
        kg = build_dbpedia_mini()
        first = tmp_path / "a.nt"
        second = tmp_path / "b.nt"
        save_store(kg.store, first)
        save_store(kg.store, second)
        assert first.read_text() == second.read_text()

    def test_loaded_graph_answers_questions(self, tmp_path):
        from repro.core import GAnswer
        from repro.datasets import build_phrase_dataset
        from repro.paraphrase import ParaphraseMiner

        path = tmp_path / "kb.nt"
        save_store(build_dbpedia_mini().store, path)
        kg = KnowledgeGraph(load_store(path))
        dictionary = ParaphraseMiner(kg, max_path_length=2, top_k=3).mine(
            build_phrase_dataset()
        )
        result = GAnswer(kg, dictionary).answer("Who is the mayor of Berlin?")
        assert [str(a) for a in result.answers] == ["res:Klaus_Wowereit"]

    def test_syntax_error_propagates(self, tmp_path):
        path = tmp_path / "bad.nt"
        path.write_text("<a> <b> garbage .\n")
        with pytest.raises(RDFSyntaxError):
            load_store(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.nt"
        path.write_text("")
        assert len(load_store(path)) == 0
