"""Tests for file-level store load/save."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import build_dbpedia_mini
from repro.exceptions import RDFSyntaxError, StoreFrozenError
from repro.rdf import (
    IRI,
    CompactBackend,
    KnowledgeGraph,
    Literal,
    OverlayBackend,
    Triple,
    TripleStore,
    parse_ntriples,
)
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


class TestSaveOrder:
    def test_output_does_not_depend_on_insertion_order(self, tmp_path):
        # "1", "1"@en and <1> share the lexical form a plain sort key would
        # read; under one subject and predicate they used to tie.
        triples = [
            Triple(IRI("ex:s"), IRI("ex:p"), Literal("1")),
            Triple(IRI("ex:s"), IRI("ex:p"), Literal("1", language="en")),
            Triple(IRI("ex:s"), IRI("ex:p"), IRI("1")),
        ]
        written = []
        for order in (triples, triples[::-1]):
            store = TripleStore()
            store.add_all(order)
            path = tmp_path / f"{len(written)}.nt"
            save_store(store, path)
            written.append(path.read_bytes())
        assert written[0] == written[1]


# --------------------------------------------------------------------- #
# The one-pass loader equals parse → add_all → compacted
# --------------------------------------------------------------------- #

def _reference(text: str) -> TripleStore:
    """The two-step load: terms parsed, added to an empty store, re-sorted."""
    store = TripleStore()
    store.add_all(parse_ntriples(text))
    return store.compacted()


def _observable(store: TripleStore):
    columns = store.backend.permutation_columns()
    return (
        [store.dictionary.decode(term_id) for term_id in range(len(store.dictionary))],
        {name: [list(column) for column in three] for name, three in columns.items()},
        store.version,
        set(store.iter_literal_ids()),
    )


_NAME = st.sampled_from(["ex:a", "ex:b", "ex:é", "1"])
_LEXICAL = st.sampled_from(["", "x", "1", "é", "a b", "a\tb", "x\u2028y", "z\x85"])
_SUFFIX = st.sampled_from(["", "", "@en", "@EN", "@é", "@de-CH", "^^<ex:a>", "^^<ex:dt>"])


def _spelled(lexical: str, spelling: str) -> str:
    """``lexical`` as the inside of a literal token: raw (the recogniser
    reads it) or with every character a ``\\u`` / ``\\U`` escape, or a
    tab as ``\\t`` (only the scanner reads those)."""
    if spelling == "u":
        return "".join(f"\\u{ord(char):04X}" for char in lexical)
    if spelling == "U":
        return "".join(f"\\U{ord(char):08X}" for char in lexical)
    if spelling == "t":
        return lexical.replace("\t", "\\t")
    return lexical


_literal_token = st.builds(
    lambda lexical, spelling, suffix: f'"{_spelled(lexical, spelling)}"{suffix}',
    _LEXICAL, st.sampled_from(["raw", "raw", "u", "U", "t"]), _SUFFIX,
)
_iri_token = _NAME.map(lambda name: f"<{name}>")
_BLANK = st.sampled_from([" ", " ", "\t", "  ", ""])
_triple_line = st.builds(
    lambda s, a, p, b, o, c: f"{s}{a}{p}{b}{o}{c}.",
    _iri_token, _BLANK, _iri_token, _BLANK, st.one_of(_iri_token, _literal_token), _BLANK,
)
_line = st.one_of(
    _triple_line, _triple_line, _triple_line,
    st.sampled_from(["", "  ", "# a comment", "\t# another"]),
)


@st.composite
def _documents(draw):
    """Lines of every kind, some repeated, each ending in LF or CRLF."""
    lines = draw(st.lists(_line, max_size=25))
    lines += draw(st.lists(st.sampled_from(lines), max_size=5)) if lines else []
    endings = draw(
        st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(lines), max_size=len(lines))
    )
    return "".join(line + end for line, end in zip(lines, endings))


class TestOnePassLoader:
    @settings(max_examples=150, deadline=None)
    @given(_documents())
    def test_equals_parse_add_all_compacted(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("doc") / "doc.nt"
        path.write_text(text, encoding="utf-8", newline="")
        assert _observable(load_store(path)) == _observable(_reference(text))

    def test_compiles_byte_identical_to_the_two_step_load(self, tmp_path):
        from repro.datasets.synthetic import SyntheticConfig, build_synthetic_kg
        from repro.paraphrase import ParaphraseMiner
        from repro.paraphrase.miner import RelationPhraseDataset
        from repro.rdf.snapshot import compile_snapshot
        from tests.rdf.test_snapshot import _without_stamp

        source = build_synthetic_kg(SyntheticConfig.with_total_triples(10_000))
        dump = tmp_path / "dump.nt"
        save_store(source.store, dump)
        one_pass = KnowledgeGraph(load_store(dump))
        two_step = KnowledgeGraph(_reference(dump.read_text(encoding="utf-8")))
        dataset = RelationPhraseDataset()
        dataset.add("pred zero of", [
            (t.subject, t.object) for t in one_pass.store.triples(predicate=IRI("syn:pred0"))
        ][:40])
        dictionary = ParaphraseMiner(one_pass, max_path_length=3).mine(dataset)
        compiled = []
        for name, kg in (("one.snap", one_pass), ("two.snap", two_step)):
            compile_snapshot(tmp_path / name, kg, dictionary)
            compiled.append(_without_stamp((tmp_path / name).read_bytes()))
        assert len(one_pass.store) > 9_000 and len(dictionary) == 1
        assert compiled[0] == compiled[1]

    def test_builds_no_dict_backend_and_compacted_shares_it(self, tmp_path, monkeypatch):
        path = tmp_path / "data.nt"
        path.write_text('<ex:a> <ex:p> <ex:b> .\n<ex:a> <ex:p> "x" .\n', encoding="utf-8")
        built = []  # mutable indexes: an overlay is the only one
        init = OverlayBackend.__init__
        monkeypatch.setattr(
            OverlayBackend, "__init__", lambda self, base: (built.append(self), init(self, base))[1]
        )
        store = load_store(path)
        assert built == []
        assert isinstance(store.backend, CompactBackend) and not store.writable
        compact = store.compacted()
        assert compact.backend is store.backend and compact.dictionary is store.dictionary
        assert built == []

    def test_a_loaded_store_takes_writes_through_an_overlay(self, tmp_path):
        path = tmp_path / "data.nt"
        path.write_text("<ex:a> <ex:p> <ex:b> .\n", encoding="utf-8")
        store = load_store(path)
        with pytest.raises(StoreFrozenError, match=r"overlay\(\)"):
            store.add(Triple(IRI("ex:b"), IRI("ex:p"), IRI("ex:c")))
        live = store.overlay()
        assert live.add(Triple(IRI("ex:b"), IRI("ex:p"), IRI("ex:c")))
        assert len(live) == 2 and live.version == store.version + 1

    def test_empty_file_and_no_triples(self, tmp_path):
        path = tmp_path / "empty.nt"
        path.write_text("# nothing here\n\n", encoding="utf-8")
        store = load_store(path)
        assert len(store) == 0 and store.version == 0 and len(store.dictionary) == 0
        assert _observable(store) == _observable(_reference(""))
        empty = CompactBackend.from_triples([])
        assert len(empty) == 0 and list(empty.triples_ids()) == []
        tables = empty.permutation_columns().values()
        # No key and no row: the one run start is the row count, 0.
        assert all(
            [list(column) for column in table] == [[], [0], [], []] for table in tables
        )


# --------------------------------------------------------------------- #
# Fail closed: a parsed store or RDFSyntaxError, nothing else
# --------------------------------------------------------------------- #

_ANY_CHARACTER = st.characters(blacklist_categories=("Cs",))
_HOSTILE = st.sampled_from(
    list('<>"\\#@^. \t_-:\r\n')
    + ["\u2028", "\x85", "é", "\\u00e9", "\\uD800", "\\U00110000", "<ex:a> ", '"x"']
)


class TestFailClosed:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(_HOSTILE, _HOSTILE, _ANY_CHARACTER), max_size=60).map("".join))
    def test_any_text_loads_or_raises_a_syntax_error(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("any") / "any.nt"
        path.write_text(text, encoding="utf-8", newline="")
        try:
            store = load_store(path)
        except RDFSyntaxError:
            return
        assert len(store) <= text.count(".")

    @settings(max_examples=60, deadline=None)
    @given(_documents())
    def test_error_line_counts_lf_lines_only(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("bad") / "bad.nt"
        path.write_text(text + "<ex:a> <ex:p> garbage .\n", encoding="utf-8", newline="")
        with pytest.raises(RDFSyntaxError) as excinfo:
            load_store(path)
        assert excinfo.value.line == text.count("\n") + 1
