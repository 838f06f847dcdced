"""Tests for N-Triples parsing and serialization."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import RDFSyntaxError
from repro.rdf import (
    IRI,
    Literal,
    Triple,
    parse_ntriples,
    parse_ntriples_line,
    serialize_ntriples,
    serialize_term,
)
from repro.rdf.ntriples import _RECOGNISED, _scan_line


class TestParsing:
    def test_simple_triple(self):
        triple = parse_ntriples_line("<ex:s> <ex:p> <ex:o> .")
        assert triple == Triple(IRI("ex:s"), IRI("ex:p"), IRI("ex:o"))

    def test_plain_literal(self):
        triple = parse_ntriples_line('<ex:s> <ex:p> "hello world" .')
        assert triple.object == Literal("hello world")

    def test_language_literal(self):
        triple = parse_ntriples_line('<ex:s> <ex:p> "Berlin"@de .')
        assert triple.object == Literal("Berlin", language="de")

    def test_datatype_literal(self):
        triple = parse_ntriples_line(
            '<ex:s> <ex:p> "42"^^<http://www.w3.org/2001/XMLSchema#integer> .'
        )
        assert triple.object.datatype.value.endswith("integer")

    def test_escapes(self):
        triple = parse_ntriples_line('<ex:s> <ex:p> "a\\tb\\nc\\"d\\\\e" .')
        assert triple.object.lexical == 'a\tb\nc"d\\e'

    def test_unicode_escape(self):
        triple = parse_ntriples_line('<ex:s> <ex:p> "\\u00e9" .')
        assert triple.object.lexical == "é"

    def test_comment_and_blank_lines_skipped(self):
        doc = "# a comment\n\n<ex:s> <ex:p> <ex:o> .\n"
        assert len(list(parse_ntriples(doc))) == 1

    def test_trailing_comment_allowed(self):
        triple = parse_ntriples_line("<ex:s> <ex:p> <ex:o> . # trailing")
        assert triple is not None

    def test_error_reports_line_number(self):
        with pytest.raises(RDFSyntaxError) as excinfo:
            list(parse_ntriples("<ex:s> <ex:p> <ex:o> .\n<bad line\n"))
        assert excinfo.value.line == 2

    @pytest.mark.parametrize(
        "bad",
        [
            "<ex:s> <ex:p> <ex:o>",  # missing dot
            "<ex:s> <ex:p> .",  # missing object
            '"lit" <ex:p> <ex:o> .',  # literal subject
            "<ex:s> \"lit\" <ex:o> .",  # literal predicate
            "<ex:s> <ex:p> _:b0 .",  # blank node
            '<ex:s> <ex:p> "open .',  # unterminated literal
            "<ex:s> <ex:p <ex:o> .",  # unterminated IRI
            '<ex:s> <ex:p> "x"@ .',  # empty language tag
            '<ex:s> <ex:p> "x\\q" .',  # unknown escape
            "<> <ex:p> <ex:o> .",  # empty IRI
            "<ex:s> <ex:p> <ex:o> . extra",  # trailing garbage
        ],
    )
    def test_syntax_errors(self, bad):
        with pytest.raises(RDFSyntaxError):
            parse_ntriples_line(bad)


class TestSerialization:
    def test_serialize_iri(self):
        assert serialize_term(IRI("ex:a")) == "<ex:a>"

    def test_serialize_plain_literal(self):
        assert serialize_term(Literal("hi")) == '"hi"'

    def test_serialize_language_literal(self):
        assert serialize_term(Literal("hi", language="en")) == '"hi"@en'

    def test_serialize_escapes(self):
        assert serialize_term(Literal('a"b\\c\nd')) == '"a\\"b\\\\c\\nd"'

    def test_empty_document(self):
        assert serialize_ntriples([]) == ""

    def test_document_ends_with_newline(self):
        doc = serialize_ntriples([Triple(IRI("ex:s"), IRI("ex:p"), IRI("ex:o"))])
        assert doc.endswith(".\n")


# Round-trip property: serialize ∘ parse == identity.

_safe_iri = st.from_regex(r"ex:[A-Za-z_][A-Za-z0-9_]{0,10}", fullmatch=True).map(IRI)
_lexical = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), min_codepoint=1),
    max_size=20,
)
_literal = st.one_of(
    st.builds(Literal, _lexical),
    st.builds(lambda s: Literal(s, language="en"), _lexical),
    st.builds(lambda s: Literal(s, datatype=IRI("xsd:string")), _lexical),
)
_triple = st.builds(Triple, _safe_iri, _safe_iri, st.one_of(_safe_iri, _literal))


@settings(max_examples=80, deadline=None)
@given(st.lists(_triple, max_size=15))
def test_roundtrip(triples):
    doc = serialize_ntriples(triples)
    assert list(parse_ntriples(doc)) == triples


# --------------------------------------------------------------------- #
# Line endings: only LF (with one CR before it) ends a line
# --------------------------------------------------------------------- #

#: What ``str.splitlines()`` breaks on besides LF and CR.
_SPLITLINES_ONLY = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


class TestLineEndings:
    @pytest.mark.parametrize("char", _SPLITLINES_ONLY, ids=lambda c: f"U+{ord(c):04X}")
    def test_raw_boundary_character_inside_a_literal_is_data(self, char):
        doc = f'<ex:a> <ex:p> "x{char}y" .\n<ex:b> <ex:p> <ex:c> .\n'
        assert list(parse_ntriples(doc)) == [
            Triple(IRI("ex:a"), IRI("ex:p"), Literal(f"x{char}y")),
            Triple(IRI("ex:b"), IRI("ex:p"), IRI("ex:c")),
        ]

    def test_crlf_document_reads_as_its_lf_form(self):
        lf = '<ex:a> <ex:p> "x" .\n# note\n\n<ex:b> <ex:p> "y\\tz"@en .\n<ex:c> <ex:p> <ex:d> .'
        crlf = lf.replace("\n", "\r\n")
        assert list(parse_ntriples(crlf)) == list(parse_ntriples(lf))
        assert len(list(parse_ntriples(lf))) == 3

    def test_error_line_numbers_count_lf_terminated_lines(self):
        doc = '<ex:a> <ex:p> "x\u2028y" .\r\n<ex:b> <ex:p> "z\x85" .\n<bad line\n'
        with pytest.raises(RDFSyntaxError) as excinfo:
            list(parse_ntriples(doc))
        assert excinfo.value.line == 3

    def test_lines_may_be_given_instead_of_text(self):
        lines = ['<ex:a> <ex:p> "x" .\n', "\n", "<ex:b> <ex:p> <ex:c> .\r\n", "<ex:d><ex:p><ex:e>."]
        assert list(parse_ntriples(lines)) == list(parse_ntriples("".join(lines)))
        assert len(list(parse_ntriples(lines))) == 3


# --------------------------------------------------------------------- #
# Escapes that name no character
# --------------------------------------------------------------------- #

class TestUnicodeEscapes:
    @pytest.mark.parametrize(
        "escape",
        [
            "\\U00110000",  # past the last code point
            "\\UFFFFFFFF",
            "\\uD800",  # lone high surrogate
            "\\uDC00",  # lone low surrogate
            "\\uD83Dx",  # high surrogate, then not an escape
            "\\uD83D\\u0041",  # high surrogate, then not a low one
            "\\uD83D\\n",
            "\\U0000D83D\\U0000DE00",  # \U names scalars only
            "\\u+041",  # int() would take the sign
            "\\u 041",
            "\\u0_41",
            "\\U-0000041",
        ],
    )
    def test_refused_with_line_and_column(self, escape):
        with pytest.raises(RDFSyntaxError) as excinfo:
            list(parse_ntriples(f'<ex:a> <ex:p> <ex:b> .\n<ex:s> <ex:p> "a{escape}" .\n'))
        assert excinfo.value.line == 2
        assert "column" in str(excinfo.value)

    def test_surrogate_pair_escapes_join_into_one_character(self):
        triple = parse_ntriples_line('<ex:s> <ex:p> "\\uD83D\\uDE00!" .')
        assert triple.object == Literal("\U0001F600!")
        assert triple.object == parse_ntriples_line('<ex:s> <ex:p> "\\U0001F600!" .').object
        triple.object.lexical.encode("utf-8")  # never a lone surrogate

    def test_last_code_point_is_accepted(self):
        assert parse_ntriples_line('<ex:s> <ex:p> "\\U0010FFFF" .').object.lexical == "\U0010ffff"


# --------------------------------------------------------------------- #
# The recogniser is a subset of the scanner
# --------------------------------------------------------------------- #

def _outcome(parse, line):
    try:
        return parse(line)
    except RDFSyntaxError as exc:
        return str(exc)


_WIDE = st.characters(blacklist_categories=("Cs",), blacklist_characters="\n")
_TRICKY = st.sampled_from(
    list('<>"\\#@^. \t_-:') + ["\r", "\u2028", "\x85", "é", "ß", "\\u00e9", "\\n", '\\"']
)
_hostile = st.lists(st.one_of(_TRICKY, _WIDE), max_size=8).map("".join)
# Mostly what each term may legally hold (so that lines parse, and the
# recogniser is exercised), sometimes anything at all.
_iri_body = st.one_of(
    st.text(alphabet='abc:/_<"\\# \té\u2028', min_size=1, max_size=6),
    st.text(alphabet='abc:/_<"\\# \té\u2028', min_size=1, max_size=6),
    _hostile,
)
_lexical_body = st.one_of(
    st.text(alphabet="abc <>#.@^\t_é\u2028\x85\r", max_size=8),
    st.text(alphabet="abc <>#.@^\t_é\u2028\x85\r", max_size=8),
    st.lists(st.sampled_from(["a", " ", "\\t", "\\n", '\\"', "\\\\", "\\u00e9", "\\U0001F600", "\\q", "\\"]), max_size=5).map("".join),
    _hostile,
)
_iri_token = _iri_body.map(lambda value: f"<{value}>")
_language = st.one_of(
    st.from_regex(r"[A-Za-z]{1,3}(-[A-Za-z0-9]{1,4})?", fullmatch=True),
    st.from_regex(r"[A-Za-z]{1,3}(-[A-Za-z0-9]{1,4})?", fullmatch=True),
    st.sampled_from(["", "é", "enß", "de-é", "-", "en-", "en_GB", "_", "en\u0660"]),
)
_literal_token = st.builds(
    lambda lexical, suffix: f'"{lexical}"{suffix}',
    _lexical_body,
    st.one_of(
        st.just(""),
        st.just(""),
        _language.map(lambda tag: f"@{tag}"),
        _iri_token.map(lambda token: f"^^{token}"),
        st.sampled_from(["^^", "^<x>", "@en^^<x>"]),
    ),
)
_between = st.sampled_from([" ", " ", " ", "\t", "  ", " \t ", "", "\u2028", "\r"])
_edge = st.sampled_from(["", "", "", " ", "\t", "  ", "\u2028", "\r"])
_tail = st.sampled_from(
    ["", "", "", " ", "\t", "# c", " # c  ", "#", " x", ".", "\r", "\n", "\r\n", " \r\n", "\u2028"]
)
_generated_line = st.builds(
    lambda lead, s, a, p, b, o, c, dot, tail: f"{lead}{s}{a}{p}{b}{o}{c}{dot}{tail}",
    _edge,
    st.one_of(_iri_token, _iri_token, _iri_token, _literal_token),
    _between,
    _iri_token,
    _between,
    st.one_of(_iri_token, _literal_token, _literal_token, st.just("_:b0")),
    _edge,
    st.sampled_from([".", ".", ".", ".", ".", "", ".."]),
    _tail,
)


@settings(max_examples=1500, deadline=None)
@given(_generated_line)
def test_line_parses_as_the_scanner_alone_parses_it(line):
    assert _outcome(parse_ntriples_line, line) == _outcome(
        lambda text: _scan_line(text, None), line
    )


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(_TRICKY, _WIDE), max_size=40).map("".join))
def test_arbitrary_text_parses_as_the_scanner_alone_parses_it(line):
    assert _outcome(parse_ntriples_line, line) == _outcome(
        lambda text: _scan_line(text, None), line
    )


class TestRecogniser:
    @pytest.mark.parametrize(
        "line",
        [
            "<ex:s> <ex:p> <ex:o> .",
            '\t<ex:s>\t<ex:p>  "plain"  . # trailing \r\n',
            '<ex:s> <ex:p> "Berlin"@de-CH .',
            '<ex:s> <ex:p> "42"^^<xsd:integer>.',
            '<ex:s> <ex:p> "x\u2028y" .\n',
            '<a b> <c"d> <e<f> .',
        ],
    )
    def test_canonical_lines_are_recognised(self, line):
        assert _RECOGNISED(line) is not None
        assert parse_ntriples_line(line) == _scan_line(line, None)

    @pytest.mark.parametrize(
        "line, expected",
        [
            ('<ex:s> <ex:p> "a\\tb" .', Triple(IRI("ex:s"), IRI("ex:p"), Literal("a\tb"))),
            ("<a><b><c>.", Triple(IRI("a"), IRI("b"), IRI("c"))),
            ('<ex:s> <ex:p> "x"@é .', Triple(IRI("ex:s"), IRI("ex:p"), Literal("x", language="é"))),
            ('<ex:s> <ex:p> "x"@enß .', Triple(IRI("ex:s"), IRI("ex:p"), Literal("x", language="enß"))),
            ("<ex:s> <ex:p> <ex:o> .\u2028", Triple(IRI("ex:s"), IRI("ex:p"), IRI("ex:o"))),
        ],
    )
    def test_declined_lines_still_parse(self, line, expected):
        assert _RECOGNISED(line) is None
        assert parse_ntriples_line(line) == expected

    def test_terms_are_built_once_per_document(self, monkeypatch):
        subjects = [f"<ex:s{n}>" for n in range(30)]
        predicates = [f"<ex:p{n}>" for n in range(5)]
        objects = [f'"label {n}"' for n in range(10)] + [f'"{n}"^^<ex:s{n}>' for n in range(5)]
        lines = [
            f"{subjects[n % 30]} {predicates[n % 5]} {(subjects + objects)[(n * 7) % 45]} ."
            for n in range(1000)
        ]
        built = []
        for cls in (IRI, Literal):
            original = cls.__post_init__
            monkeypatch.setattr(
                cls, "__post_init__",
                lambda self, original=original: (built.append(self), original(self))[1],
            )
        triples = list(parse_ntriples("\n".join(lines)))
        assert len(triples) == 1000
        # 50 distinct tokens → 50 terms, plus the datatype IRI inside each
        # of the five typed literals.
        assert len(built) == 50 + 5
        assert len({id(term) for triple in triples for term in triple}) == 50

    def test_document_counts_recognised_and_scanned_lines(self):
        from repro import obs

        tracer = obs.Tracer()
        doc = '<ex:a> <ex:p> <ex:b> .\n# c\n\n<ex:a> <ex:p> "x\\ty" .\n<ex:a><ex:p><ex:c>.\n<ex:a> <ex:p> "z" .\n'
        with obs.use_tracer(tracer):
            assert len(list(parse_ntriples(doc))) == 4
        assert tracer.metrics.counter("rdf.ntriples.lines_recognised") == 2
        assert tracer.metrics.counter("rdf.ntriples.lines_scanned") == 2
