"""N-Triples parsing and serialization.

Implements the line-oriented N-Triples syntax: one triple per line,
``<iri>`` terms, ``"literal"`` with optional ``@lang`` or ``^^<datatype>``,
``#`` comments, and the standard string escapes.  Blank nodes are not
supported (the project's knowledge graphs never use them); encountering one
raises :class:`RDFSyntaxError` rather than silently mangling data.

A line ends at LF (one CR before it belongs to the line ending); nothing
else does — N-Triples requires only ``"``, ``\\``, LF and CR to be escaped
inside a literal, so a raw U+2028 or U+0085 there is data.

Two readers share the work.  :data:`_RECOGNISED` is one compiled pattern
for the shape a dump is made of — ``<iri> <iri> (<iri> | "lexical without
escape" [@tag | ^^<iri>]) .`` — and costs one match per line;
:class:`_LineScanner` parses every other line (escapes, terms written
without a blank between them, a non-ASCII language tag, anything
malformed) and owns every corner of the grammar and every error message.
The pattern accepts a *subset*: whatever it matches, the scanner alone
parses to the equal triple.
"""

from __future__ import annotations

import re
from typing import Callable, Iterable, Iterator

from repro import obs
from repro.exceptions import RDFSyntaxError
from repro.rdf.dictionary import TermDictionary
from repro.rdf.store import flag_literal
from repro.rdf.terms import IRI, Literal, Term, Triple

_ESCAPES = {
    "t": "\t",
    "n": "\n",
    "r": "\r",
    '"': '"',
    "\\": "\\",
}
_REVERSE_ESCAPES = {
    "\t": "\\t",
    "\n": "\\n",
    "\r": "\\r",
    '"': '\\"',
    "\\": "\\\\",
}
# str.splitlines() treats these as line boundaries.  This parser does not
# (it splits on LF only), but a consumer that does must still see one triple
# per line, so they never appear raw inside a serialized literal.
for _boundary in "\v\f\x1c\x1d\x1e\x85\u2028\u2029":
    _REVERSE_ESCAPES[_boundary] = f"\\u{ord(_boundary):04X}"
del _boundary

_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")


class _LineScanner:
    """Cursor over a single N-Triples line."""

    def __init__(self, text: str, line_number: int | None):
        self.text = text
        self.pos = 0
        self.line_number = line_number

    def error(self, message: str) -> RDFSyntaxError:
        return RDFSyntaxError(f"{message} (at column {self.pos})", self.line_number)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def at_end(self) -> bool:
        return self.pos >= len(self.text)

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, char: str) -> None:
        if self.peek() != char:
            raise self.error(f"expected {char!r}, found {self.peek()!r}")
        self.pos += 1

    def read_iri(self) -> IRI:
        self.expect("<")
        end = self.text.find(">", self.pos)
        if end == -1:
            raise self.error("unterminated IRI")
        value = self.text[self.pos : end]
        self.pos = end + 1
        if not value:
            raise self.error("empty IRI")
        return IRI(value)

    def read_literal(self) -> Literal:
        self.expect('"')
        chars: list[str] = []
        while True:
            if self.at_end():
                raise self.error("unterminated literal")
            char = self.text[self.pos]
            self.pos += 1
            if char == '"':
                break
            if char == "\\":
                if self.at_end():
                    raise self.error("dangling escape")
                esc = self.text[self.pos]
                self.pos += 1
                if esc in _ESCAPES:
                    chars.append(_ESCAPES[esc])
                elif esc == "u":
                    chars.append(self._read_unicode_escape(4))
                elif esc == "U":
                    chars.append(self._read_unicode_escape(8))
                else:
                    raise self.error(f"unknown escape \\{esc}")
            else:
                chars.append(char)
        lexical = "".join(chars)
        if self.peek() == "@":
            self.pos += 1
            start = self.pos
            while self.pos < len(self.text) and (
                self.text[self.pos].isalnum() or self.text[self.pos] == "-"
            ):
                self.pos += 1
            language = self.text[start : self.pos]
            if not language:
                raise self.error("empty language tag")
            return Literal(lexical, language=language)
        if self.text.startswith("^^", self.pos):
            self.pos += 2
            datatype = self.read_iri()
            return Literal(lexical, datatype=datatype)
        return Literal(lexical)

    def _read_code_point(self, width: int) -> int:
        hex_digits = self.text[self.pos : self.pos + width]
        if len(hex_digits) != width:
            raise self.error("truncated unicode escape")
        # int() alone would also take a sign, blanks and underscores.
        if not _HEX_DIGITS.issuperset(hex_digits):
            raise self.error(f"invalid unicode escape {hex_digits!r}")
        self.pos += width
        return int(hex_digits, 16)

    def _read_unicode_escape(self, width: int) -> str:
        """The character a ``\\u``/``\\U`` escape names — always a Unicode
        scalar value, so a parsed literal can always be encoded as UTF-8.
        A surrogate pair written as two ``\\u`` escapes (how UTF-16-minded
        writers spell an astral character) is joined into the one character
        it stands for; a surrogate on its own names no character."""
        code_point = self._read_code_point(width)
        if code_point > 0x10FFFF:
            raise self.error(f"unicode escape out of range: U+{code_point:X}")
        if 0xD800 <= code_point <= 0xDFFF:
            if (
                width == 4
                and code_point <= 0xDBFF
                and self.text.startswith("\\u", self.pos)
            ):
                self.pos += 2
                low = self._read_code_point(4)
                if 0xDC00 <= low <= 0xDFFF:
                    return chr(0x10000 + ((code_point - 0xD800) << 10) + (low - 0xDC00))
            raise self.error(f"lone surrogate escape U+{code_point:04X}")
        return chr(code_point)

    def read_term(self) -> Term:
        char = self.peek()
        if char == "<":
            return self.read_iri()
        if char == '"':
            return self.read_literal()
        if char == "_":
            raise self.error("blank nodes are not supported")
        raise self.error(f"expected a term, found {char!r}")


#: The canonical line, whole: subject, predicate and object tokens in
#: groups 1–3, the parts of a literal object in 4–6.  Blanks or tabs are
#: required between terms and a literal holds no backslash, so everything
#: this matches reads the same to :class:`_LineScanner`.
_RECOGNISED = re.compile(
    r"""[ \t]*(<[^>]+>)[ \t]+(<[^>]+>)[ \t]+"""
    r"""(<[^>]+>|"([^"\\]*)"(?:@([A-Za-z0-9-]+)|\^\^<([^>]+)>)?)"""
    r"""[ \t]*\.[ \t]*(?:#.*)?\r?\n?"""
).fullmatch


def _scan_line(line: str, line_number: int | None) -> Triple | None:
    """Parse one line with the scanner alone (the whole grammar)."""
    stripped = line.strip()
    if not stripped or stripped.startswith("#"):
        return None
    scanner = _LineScanner(stripped, line_number)
    subject = scanner.read_term()
    if not isinstance(subject, IRI):
        raise scanner.error("triple subject must be an IRI")
    scanner.skip_ws()
    predicate = scanner.read_term()
    if not isinstance(predicate, IRI):
        raise scanner.error("triple predicate must be an IRI")
    scanner.skip_ws()
    obj = scanner.read_term()
    scanner.skip_ws()
    scanner.expect(".")
    scanner.skip_ws()
    if not scanner.at_end() and not scanner.text[scanner.pos :].lstrip().startswith("#"):
        raise scanner.error("trailing content after '.'")
    return Triple(subject, predicate, obj)


def _recognised_term(token: str, match: re.Match) -> Term:
    """The term ``token`` spells on a line :data:`_RECOGNISED` matched."""
    if token[0] == "<":
        return IRI(token[1:-1])
    lexical, language, datatype = match.group(4, 5, 6)
    return Literal(
        lexical,
        datatype=None if datatype is None else IRI(datatype),
        language=language,
    )


def parse_ntriples_line(line: str, line_number: int | None = None) -> Triple | None:
    """Parse one N-Triples line; returns None for blank/comment lines."""
    match = _RECOGNISED(line)
    if match is None:
        return _scan_line(line, line_number)
    return Triple(*(_recognised_term(token, match) for token in match.group(1, 2, 3)))


def _id_triples(
    lines: Iterable[str], encode: Callable[[Term], int], literal_flags: bytearray
) -> Iterator[tuple[int, int, int]]:
    """The one parse loop: every triple of ``lines`` as ids from
    ``encode``, literal object ids flagged in ``literal_flags``.

    Terms are encoded object, subject, predicate — the order
    :meth:`~repro.rdf.store.TripleStore.add_all` uses, so a dictionary
    assigns the ids a store filled from :func:`parse_ntriples` would.  A
    token on a recognised line is encoded once per document: later
    occurrences are one lookup in a ``token → id`` table.  When the lines
    are exhausted the tracer's metrics gain
    ``rdf.ntriples.lines_recognised`` / ``rdf.ntriples.lines_scanned``:
    the triples read by the pattern and by the scanner.
    """
    ids: dict[str, int] = {}
    known = ids.get
    recognised = scanned = 0
    for line_number, line in enumerate(lines, start=1):
        match = _RECOGNISED(line)
        if match is not None:
            recognised += 1
            subject, predicate, obj = match.group(1, 2, 3)
            o = known(obj)
            if o is None:
                o = ids[obj] = encode(_recognised_term(obj, match))
                if obj[0] == '"':
                    flag_literal(literal_flags, o)
            s = known(subject)
            if s is None:
                s = ids[subject] = encode(IRI(subject[1:-1]))
            p = known(predicate)
            if p is None:
                p = ids[predicate] = encode(IRI(predicate[1:-1]))
            yield s, p, o
        else:
            triple = _scan_line(line, line_number)
            if triple is not None:
                scanned += 1
                o = encode(triple.object)
                if isinstance(triple.object, Literal):
                    flag_literal(literal_flags, o)
                yield encode(triple.subject), encode(triple.predicate), o
    metrics = obs.get_tracer().metrics
    metrics.incr("rdf.ntriples.lines_recognised", recognised)
    metrics.incr("rdf.ntriples.lines_scanned", scanned)


def parse_ntriples(text: str | Iterable[str]) -> Iterator[Triple]:
    """Parse an N-Triples document, yielding triples in order.

    ``text`` is the document as one string or as its lines (an open text
    file — opened with ``newline="\\n"``, so that only LF ends a line).

    The triples are a decode of :func:`_id_triples` through a dictionary
    of this document's own, so a term is built once per document however
    often it occurs, and every repeat is the same object.
    """
    lines = text.split("\n") if isinstance(text, str) else text
    dictionary = TermDictionary()
    decode = dictionary.decode
    for s, p, o in _id_triples(lines, dictionary.encode, bytearray()):
        yield Triple(decode(s), decode(p), decode(o))


def _escape(lexical: str) -> str:
    return "".join(_REVERSE_ESCAPES.get(char, char) for char in lexical)


def serialize_term(term: Term) -> str:
    """Serialize a single term in N-Triples syntax."""
    if isinstance(term, IRI):
        return f"<{term.value}>"
    quoted = f'"{_escape(term.lexical)}"'
    if term.language is not None:
        return f"{quoted}@{term.language}"
    if term.datatype is not None:
        return f"{quoted}^^<{term.datatype.value}>"
    return quoted


def serialize_triple(triple: Triple) -> str:
    """Serialize one triple as an N-Triples line, without its line end."""
    return (
        f"{serialize_term(triple.subject)} {serialize_term(triple.predicate)} "
        f"{serialize_term(triple.object)} ."
    )


def serialize_ntriples(triples: Iterable[Triple]) -> str:
    """Serialize triples as an N-Triples document (one per line)."""
    lines = [serialize_triple(t) for t in triples]
    return "\n".join(lines) + ("\n" if lines else "")
