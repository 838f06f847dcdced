"""Robustness: the pipeline must never raise on arbitrary question text.

A QA endpoint sees malformed input constantly; every path through the
pipeline ends in an Answer object with a failure tag, not an exception.
"""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pipeline import Answer


_WORDS = [
    "who", "what", "which", "the", "of", "in", "married", "mayor", "Berlin",
    "Philadelphia", "give", "me", "all", "that", "played", "actor", "is",
    "was", "did", "and", "to", "by", "?", ".", ",", "76ers", "U.S.", "how",
]


class TestArbitraryInput:
    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.sampled_from(_WORDS), min_size=0, max_size=12))
    def test_word_salad_never_raises(self, system, words):
        result = system.answer(" ".join(words))
        assert isinstance(result, Answer)
        assert result.failure is None or isinstance(result.failure, str)

    @settings(max_examples=60, deadline=None)
    @given(st.text(max_size=60))
    def test_random_text_never_raises(self, system, text):
        result = system.answer(text)
        assert isinstance(result, Answer)

    @pytest.mark.parametrize(
        "weird",
        [
            "",
            "?",
            "???",
            "   ",
            "Who",
            "a b c d e f g h i j k l m n o p",
            "Who is the mayor of the mayor of the mayor of Berlin?",
            "Is is is is?",
            "WHO IS THE MAYOR OF BERLIN?",
            "who is the mayor of berlin",       # no capitals, no question mark
            "Wer ist der Bürgermeister von Berlin?",  # not English
            "SELECT ?x WHERE { ?x ?y ?z }",      # SPARQL pasted as a question
            "Who is the mayor of Berlin? Who is the mayor of Berlin?",
            "🙂 who is the mayor of Berlin 🙂",
        ],
    )
    def test_weird_inputs_never_raise(self, system, weird):
        result = system.answer(weird)
        assert isinstance(result, Answer)

    def test_lowercase_question_still_answers(self, system):
        # Entity linking is case-insensitive; a sloppy question still works.
        result = system.answer("who is the mayor of berlin")
        assert [str(a) for a in result.answers] == ["res:Klaus_Wowereit"]

    def test_repeated_answers_are_stable(self, system):
        question = "Who is the mayor of Berlin?"
        first = system.answer(question)
        second = system.answer(question)
        assert [str(a) for a in first.answers] == [str(a) for a in second.answers]


#: Words the question grammar reads: wh-words, auxiliaries, determiners,
#: imperatives, aggregation cues, possessives and the mini KG's names.
_GRAMMAR = _WORDS + [
    "Who", "Which", "When", "Where", "How", "many", "much", "Is", "Are",
    "Does", "Give", "List", "Show", "me", "a", "an", "not", "most", "largest",
    "than", "more", "'s", "'", "whose", "born", "directed", "wife", "Barack",
    "Obama", "Michelle", "Francis", "Ford", "Coppola", "movies", "city",
]
#: Characters a tokenizer may trip over: NUL, quotes, separators, escapes
#: and non-ASCII letters, symbols and emoji.
_ODD = ["\x00", '"', "'", "`", "\u2019", "\u2028", "\t", "\n", "\\", "{", "}",
        "<", ">", "?", "!", "-", "é", "ß", "Ä", "中", "🙂", "\u0301", "\ufeff"]


class TestQuestionParserFailsClosed:
    """The question parser's fuzz: nothing but a ``ReproError`` escapes
    ``GAnswer.answer``, and no question takes a second."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        st.lists(
            st.one_of(
                st.sampled_from(_GRAMMAR),
                st.text(st.sampled_from(_ODD) | st.characters(), min_size=1, max_size=3),
            ),
            max_size=14,
        ),
        st.sampled_from([" ", "", "\x00", "\t", "  "]),
    )
    def test_only_a_repro_error_escapes_in_bounded_time(self, system, tokens, separator):
        from repro.exceptions import ReproError

        question = separator.join(tokens)
        started = time.perf_counter()
        try:
            result = system.answer(question)
        except ReproError:
            pass
        else:
            assert isinstance(result, Answer)
        assert time.perf_counter() - started < 1.0, question


class TestDeannaRobustness:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.sampled_from(_WORDS), min_size=0, max_size=10))
    def test_deanna_never_raises(self, kg, dictionary, words):
        from repro.baselines import Deanna

        deanna = Deanna(kg, dictionary)
        result = deanna.answer(" ".join(words))
        assert isinstance(result, Answer)


class TestNTriplesParserInput:
    """The N-Triples parser never raises outside ``ReproError`` and never
    lets a term through that the snapshot compiler cannot encode."""

    @pytest.mark.parametrize(
        "literal, message",
        [
            ('"\\U00110000"', "out of range"),
            ('"\\uD800"', "lone surrogate"),
            ('"\\uDFFF tail"', "lone surrogate"),
            ('"\\uD83D\\u0041"', "lone surrogate"),
            ('"\\u-041"', "invalid unicode escape"),
        ],
    )
    def test_escape_naming_no_character_is_a_syntax_error(self, literal, message):
        from repro.exceptions import RDFSyntaxError, ReproError
        from repro.rdf import parse_ntriples

        with pytest.raises(RDFSyntaxError, match=message) as excinfo:
            list(parse_ntriples(f"<ex:a> <ex:p> <ex:b> .\n<ex:a> <ex:p> {literal} .\n"))
        assert isinstance(excinfo.value, ReproError)
        assert excinfo.value.line == 2
        assert "column" in str(excinfo.value)

    def test_surrogate_pair_escapes_compile(self, tmp_path):
        from repro.paraphrase.dictionary import ParaphraseDictionary
        from repro.rdf import KnowledgeGraph, TripleStore, parse_ntriples
        from repro.rdf.snapshot import compile_snapshot, load_snapshot

        store = TripleStore()
        store.add_all(parse_ntriples('<ex:a> <ex:p> "grin \\uD83D\\uDE00" .\n'))
        compile_snapshot(tmp_path / "s.snap", KnowledgeGraph(store), ParaphraseDictionary())
        loaded = load_snapshot(tmp_path / "s.snap").kg.store
        assert [str(t.object) for t in loaded.triples()] == ["grin \U0001F600"]

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.sampled_from(list('<>"\\@^.# \tuU') + ["\\u", "\\U", "D800", "0011", "ex:a", "\n"]),
                st.characters(blacklist_categories=("Cs",)),
            ),
            max_size=30,
        ).map("".join)
    )
    def test_arbitrary_documents_raise_only_syntax_errors(self, text):
        from repro.exceptions import RDFSyntaxError
        from repro.rdf import parse_ntriples
        from repro.rdf.dictionary import encode_term_record

        try:
            triples = list(parse_ntriples(text))
        except RDFSyntaxError:
            return
        for triple in triples:
            for term in triple:
                encode_term_record(term)
