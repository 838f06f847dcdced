"""Recursive-descent parser for the SPARQL subset.

Grammar (informal)::

    query     := select | ask
    select    := 'SELECT' ('DISTINCT')? projection 'WHERE'? group modifiers
    ask       := 'ASK' 'WHERE'? group
    projection:= '*' | 'COUNT' '(' var ')' | var+
    group     := '{' (pattern '.'?)* (filter)* '}'   # filters may interleave
    pattern   := term term term
    term      := var | '<iri>' | literal | number
    filter    := 'FILTER' '(' boolexpr ')'
    boolexpr  := orexpr;  orexpr := andexpr ('||' andexpr)*
    andexpr   := unary ('&&' unary)*
    unary     := '!' unary | '(' boolexpr ')' | comparison
    comparison:= operand op operand
    modifiers := ('ORDER' 'BY' ordercond+)? ('LIMIT' int)? ('OFFSET' int)?
    ordercond := var | ('ASC'|'DESC') '(' var ')'

Keywords are case-insensitive, as in SPARQL.
"""

from __future__ import annotations

import re

from repro.exceptions import SPARQLSyntaxError
from repro.rdf import vocab
from repro.rdf.terms import IRI, Literal
from repro.sparql.ast import (
    BooleanExpr,
    Comparator,
    Comparison,
    FilterExpr,
    GroupPattern,
    NotExpr,
    OrderCondition,
    Query,
    QueryForm,
    TriplePattern,
    Variable,
)

_TOKEN_RE = re.compile(
    r"""
    \s*(
        <[^<>\s]*>                     # IRI
      | \?[A-Za-z_][A-Za-z0-9_]*       # variable
      | "(?:[^"\\]|\\.)*"(?:@[A-Za-z-]+|\^\^<[^<>\s]*>)?   # literal
      | -?\d+\.\d+                     # decimal
      | -?\d+                          # integer
      | \|\| | && | != | <= | >=       # two-char operators
      | [{}().!=<>*/^|?+]              # single-char punctuation & path ops
      | [A-Za-z_][A-Za-z0-9_]*         # keyword / bare word
    )
    """,
    re.VERBOSE,
)

_KEYWORDS = {
    "select",
    "ask",
    "where",
    "distinct",
    "count",
    "filter",
    "order",
    "by",
    "asc",
    "desc",
    "limit",
    "offset",
    "union",
    "optional",
}


def _is_variable(token: str) -> bool:
    """A variable token is ``?`` and a name; a bare ``?`` is the path
    operator."""
    return token.startswith("?") and len(token) > 1


def _tokenize(text: str) -> list[str]:
    tokens: list[str] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            remainder = text[pos:].strip()
            if not remainder:
                break
            raise SPARQLSyntaxError(f"cannot tokenize near: {remainder[:30]!r}")
        tokens.append(match.group(1))
        pos = match.end()
    return tokens


class _Parser:
    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.pos = 0

    # ------------------------------------------------------------------ #
    # Token helpers
    # ------------------------------------------------------------------ #

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> str:
        token = self.peek()
        if token is None:
            raise SPARQLSyntaxError("unexpected end of query")
        self.pos += 1
        return token

    def accept(self, expected: str) -> bool:
        token = self.peek()
        if token is not None and token.lower() == expected.lower():
            self.pos += 1
            return True
        return False

    def expect(self, expected: str) -> None:
        token = self.next()
        if token.lower() != expected.lower():
            raise SPARQLSyntaxError(f"expected {expected!r}, found {token!r}")

    def at_keyword(self, word: str) -> bool:
        token = self.peek()
        return token is not None and token.lower() == word

    # ------------------------------------------------------------------ #
    # Grammar
    # ------------------------------------------------------------------ #

    def parse_query(self) -> Query:
        token = self.peek()
        if token is None:
            raise SPARQLSyntaxError("empty query")
        if token.lower() == "select":
            query = self._parse_select()
        elif token.lower() == "ask":
            query = self._parse_ask()
        else:
            raise SPARQLSyntaxError(f"query must start with SELECT or ASK, found {token!r}")
        if self.peek() is not None:
            raise SPARQLSyntaxError(f"trailing tokens after query: {self.peek()!r}")
        return query

    def _parse_select(self) -> Query:
        self.expect("select")
        distinct = self.accept("distinct")
        projection: list[Variable] | None = None
        count_variable: Variable | None = None
        if self.accept("*"):
            projection = None
        elif self.at_keyword("count"):
            self.next()
            self.expect("(")
            count_variable = self._parse_variable()
            self.expect(")")
        else:
            projection = []
            while self.peek() is not None and self.peek().startswith("?"):
                projection.append(self._parse_variable())
            if not projection:
                raise SPARQLSyntaxError("SELECT needs '*', COUNT(?v), or variables")
        self.accept("where")
        patterns, filters, unions, optionals = self._parse_group()
        order_by = self._parse_order_by()
        limit, offset = self._parse_limit_offset()
        return Query(
            form=QueryForm.SELECT,
            patterns=patterns,
            projection=projection,
            distinct=distinct,
            filters=filters,
            order_by=order_by,
            limit=limit,
            offset=offset,
            count_variable=count_variable,
            unions=unions,
            optionals=optionals,
        )

    def _parse_ask(self) -> Query:
        self.expect("ask")
        self.accept("where")
        patterns, filters, unions, optionals = self._parse_group()
        return Query(
            form=QueryForm.ASK,
            patterns=patterns,
            filters=filters,
            unions=unions,
            optionals=optionals,
        )

    def _parse_group(self):
        """The outer group: patterns, filters, UNION and OPTIONAL blocks."""
        self.expect("{")
        patterns: list[TriplePattern] = []
        filters: list[FilterExpr] = []
        unions: list[list[GroupPattern]] = []
        optionals: list[GroupPattern] = []
        while not self.accept("}"):
            if self.peek() is None:
                raise SPARQLSyntaxError("unterminated group pattern: missing '}'")
            if self.at_keyword("filter"):
                self.next()
                self.expect("(")
                filters.append(self._parse_bool_expr())
                self.expect(")")
                self.accept(".")
                continue
            if self.at_keyword("optional"):
                self.next()
                optionals.append(self._parse_flat_group())
                self.accept(".")
                continue
            if self.peek() == "{":
                arms = [self._parse_flat_group()]
                while self.accept("union"):
                    arms.append(self._parse_flat_group())
                if len(arms) < 2:
                    raise SPARQLSyntaxError("a nested group must be part of a UNION")
                unions.append(arms)
                self.accept(".")
                continue
            subject = self._parse_term()
            predicate = self._parse_predicate()
            obj = self._parse_term()
            patterns.append(TriplePattern(subject, predicate, obj))
            self.accept(".")
        return patterns, filters, unions, optionals

    def _parse_flat_group(self) -> GroupPattern:
        """A UNION arm / OPTIONAL body: patterns and filters, no nesting."""
        self.expect("{")
        group = GroupPattern()
        while not self.accept("}"):
            if self.peek() is None:
                raise SPARQLSyntaxError("unterminated group pattern: missing '}'")
            if self.at_keyword("filter"):
                self.next()
                self.expect("(")
                group.filters.append(self._parse_bool_expr())
                self.expect(")")
                self.accept(".")
                continue
            if self.peek() == "{" or self.at_keyword("optional"):
                raise SPARQLSyntaxError(
                    "nested groups inside UNION/OPTIONAL are not supported"
                )
            subject = self._parse_term()
            predicate = self._parse_predicate()
            obj = self._parse_term()
            group.patterns.append(TriplePattern(subject, predicate, obj))
            self.accept(".")
        return group

    def _parse_order_by(self) -> list[OrderCondition]:
        if not self.at_keyword("order"):
            return []
        self.next()
        self.expect("by")
        conditions: list[OrderCondition] = []
        while True:
            token = self.peek()
            if token is None:
                break
            lowered = token.lower()
            if lowered in ("asc", "desc"):
                self.next()
                self.expect("(")
                variable = self._parse_variable()
                self.expect(")")
                conditions.append(OrderCondition(variable, descending=(lowered == "desc")))
            elif token.startswith("?"):
                conditions.append(OrderCondition(self._parse_variable()))
            else:
                break
        if not conditions:
            raise SPARQLSyntaxError("ORDER BY needs at least one condition")
        return conditions

    def _parse_limit_offset(self) -> tuple[int | None, int]:
        limit: int | None = None
        offset = 0
        # SPARQL allows LIMIT/OFFSET in either order.
        for _ in range(2):
            if self.at_keyword("limit"):
                self.next()
                limit = self._parse_int()
            elif self.at_keyword("offset"):
                self.next()
                offset = self._parse_int()
        return limit, offset

    def _parse_int(self) -> int:
        token = self.next()
        try:
            value = int(token)
        except ValueError:
            raise SPARQLSyntaxError(f"expected an integer, found {token!r}") from None
        if value < 0:
            raise SPARQLSyntaxError(f"expected a non-negative integer, found {value}")
        return value

    # ------------------------------------------------------------------ #
    # Terms and expressions
    # ------------------------------------------------------------------ #

    def _parse_variable(self) -> Variable:
        token = self.next()
        if not _is_variable(token):
            raise SPARQLSyntaxError(f"expected a variable, found {token!r}")
        return Variable(token[1:])

    def _parse_term(self):
        token = self.next()
        if _is_variable(token):
            return Variable(token[1:])
        if token.startswith("<") and token.endswith(">"):
            value = token[1:-1]
            if not value:
                raise SPARQLSyntaxError("empty IRI")
            return IRI(value)
        if token.startswith('"'):
            return self._decode_literal(token)
        if re.fullmatch(r"-?\d+", token):
            return Literal(token, datatype=vocab.XSD_INTEGER)
        if re.fullmatch(r"-?\d+\.\d+", token):
            return Literal(token, datatype=vocab.XSD_DECIMAL)
        raise SPARQLSyntaxError(f"expected a term, found {token!r}")

    @staticmethod
    def _decode_literal(token: str) -> Literal:
        body_match = re.match(r'^"((?:[^"\\]|\\.)*)"', token)
        if body_match is None:
            raise SPARQLSyntaxError(f"malformed literal: {token!r}")
        lexical = body_match.group(1)
        lexical = (
            lexical.replace('\\"', '"')
            .replace("\\n", "\n")
            .replace("\\t", "\t")
            .replace("\\\\", "\\")
        )
        rest = token[body_match.end() :]
        if rest.startswith("@"):
            return Literal(lexical, language=rest[1:])
        if rest.startswith("^^<") and rest.endswith(">"):
            return Literal(lexical, datatype=IRI(rest[3:-1]))
        return Literal(lexical)

    # ------------------------------------------------------------------ #
    # Property paths (SPARQL 1.1 subset)
    #
    #   path    := seq ('|' seq)*
    #   seq     := unary ('/' unary)*
    #   unary   := '^' unary | primary ('+'|'*'|'?')?
    #   primary := <iri> | '(' path ')'
    # ------------------------------------------------------------------ #

    def _parse_predicate(self):
        """Predicate position: a variable, a plain IRI, or a property path."""
        token = self.peek()
        if token is not None and _is_variable(token):
            return self._parse_variable()
        path = self._parse_path()
        from repro.sparql.paths import PredicateStep

        if isinstance(path, PredicateStep):
            return path.predicate  # plain predicate stays an IRI
        return path

    def _parse_path(self):
        from repro.sparql.paths import AlternativePath

        first = self._parse_path_sequence()
        options = [first]
        while self.accept("|"):
            options.append(self._parse_path_sequence())
        if len(options) == 1:
            return first
        return AlternativePath(tuple(options))

    def _parse_path_sequence(self):
        from repro.sparql.paths import SequencePath

        first = self._parse_path_unary()
        steps = [first]
        while self.accept("/"):
            steps.append(self._parse_path_unary())
        if len(steps) == 1:
            return first
        return SequencePath(tuple(steps))

    def _parse_path_unary(self):
        from repro.sparql.paths import InversePath, RepeatPath

        if self.accept("^"):
            return InversePath(self._parse_path_unary())
        primary = self._parse_path_primary()
        while True:
            token = self.peek()
            if token == "+":
                self.next()
                primary = RepeatPath(primary, min_count=1)
            elif token == "*":
                self.next()
                primary = RepeatPath(primary, min_count=0)
            elif token == "?":
                self.next()
                primary = RepeatPath(primary, min_count=0, at_most_one=True)
            else:
                return primary

    def _parse_path_primary(self):
        from repro.sparql.paths import PredicateStep

        token = self.peek()
        if token == "(":
            self.next()
            inner = self._parse_path()
            self.expect(")")
            return inner
        if token is not None and token.startswith("<") and token.endswith(">"):
            self.next()
            value = token[1:-1]
            if not value:
                raise SPARQLSyntaxError("empty IRI in property path")
            return PredicateStep(IRI(value))
        raise SPARQLSyntaxError(f"expected a predicate or path, found {token!r}")

    def _parse_bool_expr(self) -> FilterExpr:
        left = self._parse_and_expr()
        while self.accept("||"):
            right = self._parse_and_expr()
            left = BooleanExpr("||", left, right)
        return left

    def _parse_and_expr(self) -> FilterExpr:
        left = self._parse_unary_expr()
        while self.accept("&&"):
            right = self._parse_unary_expr()
            left = BooleanExpr("&&", left, right)
        return left

    def _parse_unary_expr(self) -> FilterExpr:
        if self.accept("!"):
            return NotExpr(self._parse_unary_expr())
        if self.accept("("):
            inner = self._parse_bool_expr()
            self.expect(")")
            return inner
        return self._parse_comparison()

    def _parse_comparison(self) -> Comparison:
        left = self._parse_term()
        op_token = self.next()
        if op_token == "!":
            # "!=" may tokenize as "!" "=" when adjacent to a term; rejoin.
            self.expect("=")
            op_token = "!="
        try:
            op = Comparator(op_token)
        except ValueError:
            raise SPARQLSyntaxError(f"unknown comparison operator {op_token!r}") from None
        right = self._parse_term()
        return Comparison(left, op, right)


def parse_query(text: str) -> Query:
    """Parse a SPARQL query string into a :class:`Query` AST."""
    return _Parser(_tokenize(text)).parse_query()
