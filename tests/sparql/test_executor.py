"""Tests for SPARQL evaluation over the triple store."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import SPARQLEvaluationError
from repro.rdf import IRI, Literal, Triple, TripleStore
from repro.rdf import vocab
from repro.sparql import Variable, evaluate, parse_query


@pytest.fixture
def store():
    """Small movie/people graph with numeric attributes."""
    store = TripleStore()
    e = lambda name: IRI(f"ex:{name}")
    lit_int = lambda n: Literal(str(n), datatype=vocab.XSD_INTEGER)
    store.add_all(
        [
            Triple(e("banderas"), e("spouse"), e("griffith")),
            Triple(e("banderas"), e("starring"), e("philadelphia_film")),
            Triple(e("hanks"), e("starring"), e("philadelphia_film")),
            Triple(e("hanks"), e("starring"), e("forrest_gump")),
            Triple(e("banderas"), vocab.RDF_TYPE, e("Actor")),
            Triple(e("hanks"), vocab.RDF_TYPE, e("Actor")),
            Triple(e("banderas"), e("age"), lit_int(63)),
            Triple(e("hanks"), e("age"), lit_int(67)),
            Triple(e("griffith"), e("age"), lit_int(66)),
        ]
    )
    return store


def values(rows, name):
    return [row[Variable(name)] for row in rows]


class TestBasicGraphPatterns:
    def test_single_pattern(self, store):
        rows = evaluate(store, parse_query("SELECT ?w WHERE { <ex:banderas> <ex:spouse> ?w }"))
        assert values(rows, "w") == [IRI("ex:griffith")]

    def test_join_two_patterns(self, store):
        # "Who was married to an actor that played in Philadelphia?"
        query = parse_query(
            "SELECT ?who WHERE { ?a <ex:spouse> ?who . ?a <ex:starring> <ex:philadelphia_film> }"
        )
        rows = evaluate(store, query)
        assert values(rows, "who") == [IRI("ex:griffith")]

    def test_join_shares_variable_consistently(self, store):
        # ?x must be the same node in both patterns.
        query = parse_query("SELECT ?x WHERE { ?x <ex:starring> ?f . ?x <ex:spouse> ?s }")
        rows = evaluate(store, query)
        assert values(rows, "x") == [IRI("ex:banderas")]

    def test_variable_predicate(self, store):
        query = parse_query("SELECT ?p WHERE { <ex:banderas> ?p <ex:griffith> }")
        rows = evaluate(store, query)
        assert values(rows, "p") == [IRI("ex:spouse")]

    def test_repeated_variable_in_one_pattern(self, store):
        store.add(Triple(IRI("ex:loop"), IRI("ex:knows"), IRI("ex:loop")))
        query = parse_query("SELECT ?x WHERE { ?x <ex:knows> ?x }")
        rows = evaluate(store, query)
        assert values(rows, "x") == [IRI("ex:loop")]

    def test_no_solutions(self, store):
        rows = evaluate(store, parse_query("SELECT ?x WHERE { ?x <ex:director> ?y }"))
        assert rows == []

    def test_select_star_projects_all(self, store):
        rows = evaluate(store, parse_query("SELECT * WHERE { <ex:banderas> <ex:spouse> ?w }"))
        assert rows == [{Variable("w"): IRI("ex:griffith")}]

    def test_distinct(self, store):
        query = parse_query("SELECT DISTINCT ?f WHERE { ?x <ex:starring> ?f }")
        rows = evaluate(store, query)
        assert sorted(term.value for term in values(rows, "f")) == [
            "ex:forrest_gump",
            "ex:philadelphia_film",
        ]

    def test_without_distinct_keeps_duplicates(self, store):
        query = parse_query("SELECT ?f WHERE { ?x <ex:starring> ?f }")
        rows = evaluate(store, query)
        assert len(rows) == 3


class TestStructuralPredicates:
    """``rdf:type`` / ``rdfs:label`` / ``rdfs:subClassOf`` are ordinary
    predicates to the evaluator (the adjacency kernel leaves them out of
    its rows; the store does not)."""

    @pytest.fixture
    def typed_store(self, store):
        e = lambda name: IRI(f"ex:{name}")
        store.add_all(
            [
                Triple(e("forrest_gump"), vocab.RDF_TYPE, e("Film")),
                Triple(e("banderas"), vocab.RDFS_LABEL, Literal("Banderas")),
                Triple(e("hanks"), vocab.RDFS_LABEL, Literal("Hanks")),
                Triple(e("Actor"), vocab.RDFS_SUBCLASSOF, e("Person")),
            ]
        )
        return store

    @pytest.mark.parametrize(
        "predicate, expected",
        [
            (vocab.RDF_TYPE, {
                (IRI("ex:banderas"), IRI("ex:Actor")),
                (IRI("ex:hanks"), IRI("ex:Actor")),
                (IRI("ex:forrest_gump"), IRI("ex:Film")),
            }),
            (vocab.RDFS_LABEL, {
                (IRI("ex:banderas"), Literal("Banderas")),
                (IRI("ex:hanks"), Literal("Hanks")),
            }),
            (vocab.RDFS_SUBCLASSOF, {(IRI("ex:Actor"), IRI("ex:Person"))}),
        ],
        ids=["rdf:type", "rdfs:label", "rdfs:subClassOf"],
    )
    def test_two_variable_pattern(self, typed_store, predicate, expected):
        query = parse_query(f"SELECT ?s ?o WHERE {{ ?s <{predicate.value}> ?o }}")
        rows = evaluate(typed_store, query)
        assert len(rows) == len(expected)
        assert {(row[Variable("s")], row[Variable("o")]) for row in rows} == expected

    def test_structural_pattern_joins_with_an_ordinary_one(self, typed_store):
        query = parse_query(
            f"SELECT ?a ?c ?f WHERE {{ ?a <{vocab.RDF_TYPE.value}> ?c . ?a <ex:starring> ?f }}"
        )
        rows = evaluate(typed_store, query)
        assert sorted(
            tuple(row[Variable(name)].value for name in "acf") for row in rows
        ) == [
            ("ex:banderas", "ex:Actor", "ex:philadelphia_film"),
            ("ex:hanks", "ex:Actor", "ex:forrest_gump"),
            ("ex:hanks", "ex:Actor", "ex:philadelphia_film"),
        ]


class TestAsk:
    def test_ask_true(self, store):
        assert evaluate(store, parse_query("ASK { <ex:banderas> <ex:spouse> <ex:griffith> }"))

    def test_ask_false(self, store):
        assert not evaluate(store, parse_query("ASK { <ex:hanks> <ex:spouse> <ex:griffith> }"))

    def test_ask_with_join(self, store):
        query = parse_query("ASK { ?x <ex:spouse> ?y . ?x <ex:starring> ?f }")
        assert evaluate(store, query)


class TestFiltersAndModifiers:
    def test_numeric_filter(self, store):
        query = parse_query("SELECT ?x WHERE { ?x <ex:age> ?a . FILTER(?a > 65) }")
        rows = evaluate(store, query)
        names = sorted(term.value for term in values(rows, "x"))
        assert names == ["ex:griffith", "ex:hanks"]

    def test_conjunction_filter(self, store):
        query = parse_query(
            "SELECT ?x WHERE { ?x <ex:age> ?a . FILTER(?a > 65 && ?a < 67) }"
        )
        rows = evaluate(store, query)
        assert values(rows, "x") == [IRI("ex:griffith")]

    def test_not_filter(self, store):
        query = parse_query("SELECT ?x WHERE { ?x <ex:age> ?a . FILTER(!(?a = 66)) }")
        rows = evaluate(store, query)
        assert len(rows) == 2

    def test_filter_on_iri_inequality(self, store):
        query = parse_query(
            "SELECT ?x WHERE { ?x <ex:starring> <ex:philadelphia_film> . FILTER(?x != <ex:hanks>) }"
        )
        rows = evaluate(store, query)
        assert values(rows, "x") == [IRI("ex:banderas")]

    def test_order_by_ascending(self, store):
        query = parse_query("SELECT ?x ?a WHERE { ?x <ex:age> ?a } ORDER BY ?a")
        rows = evaluate(store, query)
        ages = [int(lit.lexical) for lit in values(rows, "a")]
        assert ages == [63, 66, 67]

    def test_superlative_via_order_limit(self, store):
        # The paper's aggregation shape: ORDER BY DESC(?x) OFFSET 0 LIMIT 1.
        query = parse_query(
            "SELECT ?x WHERE { ?x <ex:age> ?a } ORDER BY DESC(?a) OFFSET 0 LIMIT 1"
        )
        rows = evaluate(store, query)
        assert values(rows, "x") == [IRI("ex:hanks")]

    def test_offset_and_limit_window(self, store):
        query = parse_query("SELECT ?x WHERE { ?x <ex:age> ?a } ORDER BY ?a LIMIT 1 OFFSET 1")
        rows = evaluate(store, query)
        assert values(rows, "x") == [IRI("ex:griffith")]

    def test_count(self, store):
        query = parse_query("SELECT COUNT(?f) WHERE { ?x <ex:starring> ?f }")
        assert evaluate(store, query) == 3

    def test_count_distinct(self, store):
        query = parse_query("SELECT DISTINCT COUNT(?f) WHERE { ?x <ex:starring> ?f }")
        assert evaluate(store, query) == 2

    def test_numeric_equality_across_forms(self, store):
        store.add(Triple(IRI("ex:x"), IRI("ex:score"), Literal("1.0")))
        query = parse_query('SELECT ?s WHERE { <ex:x> <ex:score> ?s . FILTER(?s = 1) }')
        assert len(evaluate(store, query)) == 1


class TestEvaluationErrors:
    def test_projection_of_unknown_variable(self, store):
        query = parse_query("SELECT ?nope WHERE { ?x <ex:age> ?a }")
        with pytest.raises(SPARQLEvaluationError):
            evaluate(store, query)

    def test_filter_on_unknown_variable(self, store):
        query = parse_query("SELECT ?x WHERE { ?x <ex:age> ?a . FILTER(?nope > 1) }")
        with pytest.raises(SPARQLEvaluationError):
            evaluate(store, query)

    def test_order_by_unknown_variable(self, store):
        query = parse_query("SELECT ?x WHERE { ?x <ex:age> ?a } ORDER BY ?nope")
        with pytest.raises(SPARQLEvaluationError):
            evaluate(store, query)

    def test_order_comparison_of_mixed_kinds(self, store):
        query = parse_query(
            "SELECT ?x WHERE { ?x <ex:spouse> ?y . FILTER(?y > 3) }"
        )
        with pytest.raises(SPARQLEvaluationError):
            evaluate(store, query)

    def test_count_unknown_variable(self, store):
        query = parse_query("SELECT COUNT(?nope) WHERE { ?x <ex:age> ?a }")
        with pytest.raises(SPARQLEvaluationError):
            evaluate(store, query)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 2), st.integers(0, 5)),
        max_size=20,
    ),
    st.integers(0, 2),
    st.integers(0, 2),
)
def test_random_chain_query_equals_a_nested_loop(triple_specs, p1, p2):
    """On random graphs (self-loops included) a 2-pattern chain query
    returns exactly the rows of a nested loop over the triples — every
    row, with its multiplicity."""
    store = TripleStore()
    for s, p, o in triple_specs:
        store.add(Triple(IRI(f"r:n{s}"), IRI(f"r:p{p}"), IRI(f"r:n{o}")))
    first, second = IRI(f"r:p{p1}"), IRI(f"r:p{p2}")
    expected = Counter(
        (a.subject, a.object, b.object)
        for a in store.triples()
        if a.predicate == first
        for b in store.triples()
        if b.predicate == second and b.subject == a.object
    )
    rows = evaluate(
        store,
        parse_query(
            f"SELECT ?x ?y ?z WHERE {{ ?x <r:p{p1}> ?y . ?y <r:p{p2}> ?z }}"
        ),
    )
    assert Counter(tuple(row[Variable(name)] for name in "xyz") for row in rows) == expected
