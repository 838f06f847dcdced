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


#: What ``str.splitlines()`` breaks on besides LF and CR — legal raw inside
#: an N-Triples literal.
_BOUNDARY_CHARACTERS = "\v\f\x1c\x1d\x1e\x85\u2028\u2029"


class TestLineEndings:
    @pytest.mark.parametrize("char", _BOUNDARY_CHARACTERS, ids=lambda c: f"U+{ord(c):04X}")
    def test_boundary_character_round_trips(self, tmp_path, char):
        store = TripleStore()
        store.add(Triple(IRI("ex:a"), IRI("ex:p"), Literal(f"x{char}y")))
        store.add(Triple(IRI("ex:a"), IRI("ex:q"), IRI("ex:b")))
        path = tmp_path / "data.nt"
        save_store(store, path)
        assert set(load_store(path).triples()) == set(store.triples())

    def test_third_party_dump_with_raw_boundary_characters_and_crlf(self, tmp_path):
        path = tmp_path / "raw.nt"
        lines = [f'<ex:n{ord(c)}> <ex:p> "x{c}y" .' for c in _BOUNDARY_CHARACTERS]
        path.write_bytes(("\r\n".join(lines) + "\r\n").encode("utf-8"))
        loaded = load_store(path)
        assert set(loaded.triples()) == {
            Triple(IRI(f"ex:n{ord(c)}"), IRI("ex:p"), Literal(f"x{c}y"))
            for c in _BOUNDARY_CHARACTERS
        }

    def test_error_line_number_counts_lf_lines_of_the_file(self, tmp_path):
        path = tmp_path / "bad.nt"
        path.write_bytes('<ex:a> <ex:p> "x\u2028y" .\n<ex:a> <ex:p> garbage .\n'.encode("utf-8"))
        with pytest.raises(RDFSyntaxError) as excinfo:
            load_store(path)
        assert excinfo.value.line == 2
