"""Tests for the UNION and OPTIONAL extensions to the SPARQL subset."""

import pytest

from repro.exceptions import SPARQLSyntaxError
from repro.rdf import IRI, Literal, Triple, TripleStore
from repro.sparql import Variable, evaluate, parse_query


@pytest.fixture
def store():
    store = TripleStore()
    triples = [
        ("banderas", "starring", "philadelphia"),
        ("demme", "director", "philadelphia"),
        ("hanks", "starring", "philadelphia"),
        ("banderas", "spouse", "griffith"),
    ]
    for s, p, o in triples:
        store.add(Triple(IRI(f"u:{s}"), IRI(f"u:{p}"), IRI(f"u:{o}")))
    store.add(Triple(IRI("u:banderas"), IRI("u:height"), Literal("1.74")))
    return store


def values(rows, name):
    return sorted(str(row[Variable(name)]) for row in rows if Variable(name) in row)


class TestUnionParsing:
    def test_two_arms(self):
        query = parse_query(
            "SELECT ?x WHERE { { ?x <u:starring> ?f } UNION { ?x <u:director> ?f } }"
        )
        assert len(query.unions) == 1
        assert len(query.unions[0]) == 2

    def test_three_arms(self):
        query = parse_query(
            "SELECT ?x WHERE { { ?x <u:a> ?f } UNION { ?x <u:b> ?f } UNION { ?x <u:c> ?f } }"
        )
        assert len(query.unions[0]) == 3

    def test_bare_nested_group_rejected(self):
        with pytest.raises(SPARQLSyntaxError):
            parse_query("SELECT ?x WHERE { { ?x <u:a> ?y } }")

    def test_nested_union_rejected(self):
        with pytest.raises(SPARQLSyntaxError):
            parse_query(
                "SELECT ?x WHERE { { { ?x <u:a> ?y } UNION { ?x <u:b> ?y } } UNION { ?x <u:c> ?y } }"
            )


class TestUnionEvaluation:
    def test_union_of_predicates(self, store):
        # Everyone involved with the film, as actor or director.
        query = parse_query(
            "SELECT ?p WHERE {"
            " { ?p <u:starring> <u:philadelphia> } UNION { ?p <u:director> <u:philadelphia> } }"
        )
        assert values(evaluate(store, query), "p") == [
            "u:banderas", "u:demme", "u:hanks",
        ]

    def test_union_joined_with_base_pattern(self, store):
        query = parse_query(
            "SELECT ?w WHERE { ?p <u:spouse> ?w ."
            " { ?p <u:starring> <u:philadelphia> } UNION { ?p <u:director> <u:philadelphia> } }"
        )
        assert values(evaluate(store, query), "w") == ["u:griffith"]

    def test_empty_arm_contributes_nothing(self, store):
        query = parse_query(
            "SELECT ?p WHERE {"
            " { ?p <u:starring> <u:philadelphia> } UNION { ?p <u:nothing> <u:philadelphia> } }"
        )
        assert values(evaluate(store, query), "p") == ["u:banderas", "u:hanks"]

    def test_union_in_ask(self, store):
        query = parse_query(
            "ASK { { <u:demme> <u:starring> <u:philadelphia> }"
            " UNION { <u:demme> <u:director> <u:philadelphia> } }"
        )
        assert evaluate(store, query) is True

    def test_union_with_arm_filter(self, store):
        query = parse_query(
            "SELECT ?p ?h WHERE { ?p <u:starring> <u:philadelphia> ."
            " { ?p <u:height> ?h . FILTER(?h > 1) } UNION { ?p <u:spouse> ?h } }"
        )
        rows = evaluate(store, query)
        assert values(rows, "p") == ["u:banderas", "u:banderas"]


class TestOptionalEvaluation:
    def test_optional_extends_when_present(self, store):
        query = parse_query(
            "SELECT ?p ?s WHERE { ?p <u:starring> <u:philadelphia> ."
            " OPTIONAL { ?p <u:spouse> ?s } }"
        )
        rows = evaluate(store, query)
        assert len(rows) == 2
        bound = [row for row in rows if Variable("s") in row]
        assert values(bound, "s") == ["u:griffith"]

    def test_optional_keeps_row_when_absent(self, store):
        query = parse_query(
            "SELECT ?p ?s WHERE { ?p <u:starring> <u:philadelphia> ."
            " OPTIONAL { ?p <u:spouse> ?s } }"
        )
        rows = evaluate(store, query)
        unbound = [row for row in rows if Variable("s") not in row]
        assert values(unbound, "p") == ["u:hanks"]

    def test_count_skips_unbound(self, store):
        query = parse_query(
            "SELECT COUNT(?s) WHERE { ?p <u:starring> <u:philadelphia> ."
            " OPTIONAL { ?p <u:spouse> ?s } }"
        )
        assert evaluate(store, query) == 1

    def test_order_by_with_unbound_sorts_first(self, store):
        query = parse_query(
            "SELECT ?p ?s WHERE { ?p <u:starring> <u:philadelphia> ."
            " OPTIONAL { ?p <u:spouse> ?s } } ORDER BY ?s"
        )
        rows = evaluate(store, query)
        assert Variable("s") not in rows[0]

    def test_two_optionals(self, store):
        query = parse_query(
            "SELECT ?p ?s ?h WHERE { ?p <u:starring> <u:philadelphia> ."
            " OPTIONAL { ?p <u:spouse> ?s } OPTIONAL { ?p <u:height> ?h } }"
        )
        rows = evaluate(store, query)
        banderas_rows = [
            row for row in rows if str(row[Variable("p")]) == "u:banderas"
        ]
        assert Variable("h") in banderas_rows[0]
