"""Tests for the SPARQL parser."""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ReproError, SPARQLSyntaxError
from repro.rdf import IRI, Literal
from repro.sparql import (
    BooleanExpr,
    Comparison,
    NotExpr,
    Query,
    QueryForm,
    TriplePattern,
    Variable,
    parse_query,
)
from repro.sparql.ast import Comparator


class TestSelectParsing:
    def test_minimal_select(self):
        query = parse_query("SELECT ?x WHERE { ?x <ex:p> <ex:o> . }")
        assert query.form is QueryForm.SELECT
        assert query.projection == [Variable("x")]
        assert query.patterns == [
            TriplePattern(Variable("x"), IRI("ex:p"), IRI("ex:o"))
        ]

    def test_select_star(self):
        query = parse_query("SELECT * WHERE { ?x <ex:p> ?y . }")
        assert query.projection is None

    def test_select_multiple_variables(self):
        query = parse_query("SELECT ?x ?y WHERE { ?x <ex:p> ?y . }")
        assert query.projection == [Variable("x"), Variable("y")]

    def test_distinct(self):
        query = parse_query("SELECT DISTINCT ?x WHERE { ?x <ex:p> ?y . }")
        assert query.distinct

    def test_count(self):
        query = parse_query("SELECT COUNT(?x) WHERE { ?x <ex:p> ?y . }")
        assert query.count_variable == Variable("x")

    def test_where_keyword_optional(self):
        query = parse_query("SELECT ?x { ?x <ex:p> <ex:o> }")
        assert len(query.patterns) == 1

    def test_multiple_patterns(self):
        query = parse_query(
            "SELECT ?x WHERE { ?x <ex:p> ?y . ?y <ex:q> <ex:o> . }"
        )
        assert len(query.patterns) == 2

    def test_trailing_dot_optional(self):
        query = parse_query("SELECT ?x WHERE { ?x <ex:p> ?y }")
        assert len(query.patterns) == 1

    def test_keywords_case_insensitive(self):
        query = parse_query("select distinct ?x where { ?x <ex:p> ?y } order by ?x limit 3")
        assert query.distinct
        assert query.limit == 3

    def test_literal_objects(self):
        query = parse_query('SELECT ?x WHERE { ?x <ex:name> "Berlin"@de . }')
        assert query.patterns[0].object == Literal("Berlin", language="de")

    def test_numeric_object_integer(self):
        query = parse_query("SELECT ?x WHERE { ?x <ex:age> 42 . }")
        assert query.patterns[0].object.lexical == "42"

    def test_numeric_object_decimal(self):
        query = parse_query("SELECT ?x WHERE { ?x <ex:height> 1.98 . }")
        assert query.patterns[0].object.lexical == "1.98"


class TestAskParsing:
    def test_ask(self):
        query = parse_query("ASK WHERE { <ex:a> <ex:p> <ex:b> . }")
        assert query.form is QueryForm.ASK

    def test_ask_without_where(self):
        query = parse_query("ASK { <ex:a> <ex:p> <ex:b> }")
        assert query.form is QueryForm.ASK


class TestModifiers:
    def test_order_by_plain(self):
        query = parse_query("SELECT ?x WHERE { ?x <ex:p> ?y } ORDER BY ?y")
        assert query.order_by[0].variable == Variable("y")
        assert not query.order_by[0].descending

    def test_order_by_desc(self):
        query = parse_query("SELECT ?x WHERE { ?x <ex:p> ?y } ORDER BY DESC(?y)")
        assert query.order_by[0].descending

    def test_order_by_multiple(self):
        query = parse_query("SELECT ?x WHERE { ?x <ex:p> ?y } ORDER BY DESC(?y) ?x")
        assert len(query.order_by) == 2

    def test_limit_offset(self):
        query = parse_query("SELECT ?x WHERE { ?x <ex:p> ?y } LIMIT 5 OFFSET 2")
        assert query.limit == 5
        assert query.offset == 2

    def test_offset_before_limit(self):
        query = parse_query("SELECT ?x WHERE { ?x <ex:p> ?y } OFFSET 1 LIMIT 1")
        assert query.limit == 1
        assert query.offset == 1

    def test_aggregation_template_from_paper(self):
        # "ORDER BY DESC(?x) OFFSET 0 LIMIT 1" — Section 6.3 failure analysis.
        query = parse_query(
            "SELECT ?p WHERE { ?p <ex:age> ?x } ORDER BY DESC(?x) OFFSET 0 LIMIT 1"
        )
        assert query.order_by[0].descending
        assert query.limit == 1


class TestFilters:
    def test_simple_comparison(self):
        query = parse_query("SELECT ?x WHERE { ?x <ex:age> ?a . FILTER(?a > 30) }")
        comparison = query.filters[0]
        assert isinstance(comparison, Comparison)
        assert comparison.op is Comparator.GT

    def test_conjunction(self):
        query = parse_query(
            "SELECT ?x WHERE { ?x <ex:age> ?a . FILTER(?a > 30 && ?a < 50) }"
        )
        assert isinstance(query.filters[0], BooleanExpr)
        assert query.filters[0].op == "&&"

    def test_disjunction_and_not(self):
        query = parse_query(
            "SELECT ?x WHERE { ?x <ex:age> ?a . FILTER(!(?a = 1) || ?a >= 10) }"
        )
        expr = query.filters[0]
        assert isinstance(expr, BooleanExpr)
        assert expr.op == "||"
        assert isinstance(expr.left, NotExpr)

    def test_not_equal(self):
        query = parse_query("SELECT ?x WHERE { ?x <ex:p> ?y . FILTER(?y != <ex:a>) }")
        assert query.filters[0].op is Comparator.NE


class TestErrors:
    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "FROB ?x WHERE { }",
            "SELECT WHERE { ?x <ex:p> ?y }",
            "SELECT ?x WHERE { ?x <ex:p> }",
            "SELECT ?x WHERE { ?x <ex:p> ?y",
            "SELECT ?x WHERE { ?x <ex:p> ?y } LIMIT ?x",
            "SELECT ?x WHERE { ?x <ex:p> ?y } LIMIT -1",
            "SELECT ?x WHERE { ?x <ex:p> ?y } ORDER BY",
            "SELECT ?x WHERE { ?x <ex:p> ?y } garbage",
            "SELECT ?x WHERE { ?x <> ?y }",
            "SELECT ?x WHERE { FILTER(?y ~ 3) ?x <ex:p> ?y }",
            "SELECT ? WHERE { ?x ?y ?z }",
            "SELECT ?x WHERE { ? <ex:p> ?y }",
            "SELECT ?x WHERE { ?x <ex:p> ?y } ORDER BY DESC(?)",
        ],
    )
    def test_syntax_errors(self, bad):
        with pytest.raises(SPARQLSyntaxError):
            parse_query(bad)

    def test_returns_query_object(self):
        assert isinstance(parse_query("ASK { <ex:a> <ex:b> <ex:c> }"), Query)


#: Every token kind the grammar knows, a few it does not, and the bare
#: ``?`` (a path operator, never a variable).
_TOKENS = (
    "SELECT", "ASK", "WHERE", "DISTINCT", "COUNT", "FILTER", "ORDER", "BY",
    "ASC", "DESC", "LIMIT", "OFFSET", "UNION", "OPTIONAL", "a",
    "{", "}", "(", ")", ".", "*", "+", "/", "^", "|", "!", "?", "?x", "?y",
    "=", "!=", "<", ">", "<=", ">=", "&&", "||",
    "<ex:p>", "<ex:o>", "<>", '"v"', '"v"@en', '"1"^^<xsd:integer>', "3", "-1", "2.5",
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.one_of(st.sampled_from(_TOKENS), st.text(max_size=3)), max_size=24))
def test_a_malformed_query_raises_only_a_repro_error(pieces):
    """Whatever the text, ``parse_query`` returns a query or raises a
    :class:`ReproError` — the one kind the CLI turns into an ``error:``
    line — and does either at once."""
    started = time.perf_counter()
    try:
        parse_query(" ".join(pieces))
    except ReproError:
        pass
    assert time.perf_counter() - started < 1.0
