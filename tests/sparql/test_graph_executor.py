"""Cross-validation: the matching-based SPARQL engine agrees with the
algebraic one (the gStore equivalence of Section 7)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import SPARQLEvaluationError
from repro.rdf import IRI, KnowledgeGraph, Literal, Triple, TripleStore
from repro.rdf.vocab import RDF_TYPE, RDFS_LABEL, RDFS_SUBCLASSOF
from repro.sparql import Variable, evaluate, parse_query
from repro.sparql.graph_executor import (
    compile_to_space,
    evaluate_by_matching,
    is_compilable,
)


@pytest.fixture(scope="module")
def kg():
    store = TripleStore()
    triples = [
        ("banderas", "spouse", "griffith"),
        ("banderas", "starring", "philadelphia_film"),
        ("hanks", "starring", "philadelphia_film"),
        ("hanks", "starring", "forrest_gump"),
        ("demme", "director", "philadelphia_film"),
    ]
    for s, p, o in triples:
        store.add(Triple(IRI(f"x:{s}"), IRI(f"x:{p}"), IRI(f"x:{o}")))
    # Structural triples: kernel rows leave these predicates out, so a
    # pattern over one must not take its seeds from the rows.
    for actor in ("banderas", "hanks"):
        store.add(Triple(IRI(f"x:{actor}"), RDF_TYPE, IRI("x:Actor")))
        store.add(Triple(IRI(f"x:{actor}"), RDFS_LABEL, Literal(actor.title())))
    store.add(Triple(IRI("x:forrest_gump"), RDF_TYPE, IRI("x:Film")))
    store.add(Triple(IRI("x:Actor"), RDFS_SUBCLASSOF, IRI("x:Person")))
    return KnowledgeGraph(store)


def row_set(rows):
    return {
        tuple(sorted((var.name, repr(term)) for var, term in row.items()))
        for row in rows
    }


class TestCompilability:
    def test_plain_bgp_compilable(self):
        query = parse_query("SELECT ?x WHERE { ?x <x:spouse> ?y }")
        assert is_compilable(query) is None

    def test_filter_not_compilable(self):
        query = parse_query("SELECT ?x WHERE { ?x <x:age> ?a . FILTER(?a > 1) }")
        assert is_compilable(query) is not None

    def test_variable_predicate_not_compilable(self):
        query = parse_query("SELECT ?p WHERE { <x:banderas> ?p ?y }")
        assert is_compilable(query) is not None

    def test_ask_not_compilable(self):
        query = parse_query("ASK { <x:a> <x:b> <x:c> }")
        assert is_compilable(query) is not None

    def test_compile_raises_on_uncompilable(self, kg):
        query = parse_query("SELECT ?p WHERE { <x:banderas> ?p ?y }")
        with pytest.raises(SPARQLEvaluationError):
            compile_to_space(kg, query)


class TestEquivalence:
    @pytest.mark.parametrize(
        "query_text",
        [
            "SELECT ?w WHERE { <x:banderas> <x:spouse> ?w }",
            "SELECT ?a WHERE { ?a <x:starring> <x:philadelphia_film> }",
            "SELECT ?w WHERE { ?a <x:spouse> ?w . ?a <x:starring> <x:philadelphia_film> }",
            "SELECT DISTINCT ?f WHERE { ?a <x:starring> ?f }",
            "SELECT ?a ?f WHERE { ?a <x:starring> ?f . ?d <x:director> ?f }",
            "SELECT ?x WHERE { ?x <x:nonexistent> ?y }",
            f"SELECT ?x ?c WHERE {{ ?x <{RDF_TYPE.value}> ?c }}",
            f"SELECT ?x ?l WHERE {{ ?x <{RDFS_LABEL.value}> ?l }}",
            f"SELECT ?c ?d WHERE {{ ?c <{RDFS_SUBCLASSOF.value}> ?d }}",
            f"SELECT ?a ?c ?f WHERE {{ ?a <{RDF_TYPE.value}> ?c . ?a <x:starring> ?f }}",
        ],
    )
    def test_engines_agree(self, kg, query_text):
        query = parse_query(query_text)
        algebraic = evaluate(kg.store, query)
        matching = evaluate_by_matching(kg, query)
        # Matching is injective; compare on the algebraic rows whose
        # bindings are pairwise distinct (all of them, in these queries).
        distinct_rows = [
            row for row in algebraic
            if len(set(map(repr, row.values()))) == len(row)
        ]
        assert row_set(matching) == row_set(distinct_rows)

    def test_unknown_bound_term_gives_empty(self, kg):
        query = parse_query("SELECT ?x WHERE { <x:nobody> <x:spouse> ?x }")
        assert evaluate_by_matching(kg, query) == []

    def test_limit_offset(self, kg):
        query = parse_query(
            "SELECT DISTINCT ?f WHERE { ?a <x:starring> ?f } LIMIT 1"
        )
        assert len(evaluate_by_matching(kg, query)) == 1


_triples = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 2), st.integers(0, 5)),
    min_size=2,
    max_size=20,
)


@settings(max_examples=50, deadline=None)
@given(_triples, st.integers(0, 2), st.integers(0, 2))
def test_random_graphs_engines_agree(triple_specs, p1, p2):
    """On random graphs, a random 2-pattern chain query evaluates the same
    under both engines (restricted to distinct-binding rows)."""
    store = TripleStore()
    for s, p, o in triple_specs:
        if s != o:
            store.add(Triple(IRI(f"r:n{s}"), IRI(f"r:p{p}"), IRI(f"r:n{o}")))
    store.add(Triple(IRI("r:n0"), IRI("r:p0"), IRI("r:n1")))
    kg = KnowledgeGraph(store)
    query = parse_query(
        f"SELECT ?x ?y ?z WHERE {{ ?x <r:p{p1}> ?y . ?y <r:p{p2}> ?z }}"
    )
    algebraic = evaluate(store, query)
    matching = evaluate_by_matching(kg, query)
    distinct_rows = [
        row for row in algebraic
        if len(set(map(repr, row.values()))) == len(row)
    ]
    assert row_set(matching) == row_set(distinct_rows)
