"""Property-based tests: matcher output always satisfies Definition 3.

Random small graphs and random candidate spaces are generated; every
match the matcher produces must pass the independent validator, pruning
must never change the match set, and the TA search must agree with
exhaustive enumeration on the top-k scores.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.top_k import TopKSearch
from repro.match import (
    CandidateSpace,
    EdgeCandidate,
    QueryEdge,
    QueryVertex,
    SubgraphMatcher,
    VertexCandidate,
    neighborhood_prune,
    validate_match,
)
from repro.rdf import IRI, KnowledgeGraph, Literal, Triple, TripleStore
from repro.rdf.graph import backward_step, forward_step
from repro.rdf.vocab import RDF_TYPE, RDFS_LABEL, RDFS_SUBCLASSOF

_N_NODES = 8
_N_PREDICATES = 3


@st.composite
def graph_and_space(draw):
    """A random KG plus a random connected 2–3 vertex candidate space."""
    edge_specs = draw(
        st.lists(
            st.tuples(
                st.integers(0, _N_NODES - 1),
                st.integers(0, _N_PREDICATES - 1),
                st.integers(0, _N_NODES - 1),
            ),
            min_size=3,
            max_size=18,
        )
    )
    store = TripleStore()
    for s, p, o in edge_specs:
        if s != o:
            store.add(Triple(IRI(f"g:n{s}"), IRI(f"g:p{p}"), IRI(f"g:n{o}")))
    # Ensure at least one triple exists.
    store.add(Triple(IRI("g:n0"), IRI("g:p0"), IRI("g:n1")))
    kg = KnowledgeGraph(store)

    node_ids = sorted(store.node_ids())
    pred_ids = sorted(store.predicate_ids())

    def vertex(vertex_id):
        wildcard = draw(st.booleans())
        if wildcard:
            return QueryVertex(vertex_id, wildcard=True)
        candidates = draw(
            st.lists(
                st.builds(
                    VertexCandidate,
                    st.sampled_from(node_ids),
                    st.floats(0.1, 1.0),
                    st.just(False),
                ),
                min_size=1,
                max_size=4,
            )
        )
        return QueryVertex(vertex_id, candidates=candidates)

    def edge(source, target):
        candidates = draw(
            st.lists(
                st.builds(
                    EdgeCandidate,
                    st.tuples(
                        st.sampled_from(
                            [forward_step(p) for p in pred_ids]
                            + [backward_step(p) for p in pred_ids]
                        )
                    ),
                    st.floats(0.1, 1.0),
                ),
                min_size=1,
                max_size=3,
            )
        )
        return QueryEdge(source, target, candidates=candidates)

    space = CandidateSpace()
    n_vertices = draw(st.integers(2, 3))
    for vertex_id in range(n_vertices):
        space.add_vertex(vertex(vertex_id))
    # A path query graph is always connected.
    for vertex_id in range(n_vertices - 1):
        space.add_edge(edge(vertex_id, vertex_id + 1))
    return kg, space


@settings(max_examples=60, deadline=None)
@given(graph_and_space())
def test_every_match_satisfies_definition3(setup):
    kg, space = setup
    for match in SubgraphMatcher(kg, space, max_matches=300).all_matches():
        assert validate_match(kg, space, match) == []


@settings(max_examples=60, deadline=None)
@given(graph_and_space())
def test_pruning_never_changes_match_set(setup):
    import copy

    kg, space = setup
    before = {
        m.key() for m in SubgraphMatcher(kg, copy.deepcopy(space)).all_matches()
    }
    neighborhood_prune(kg, space)
    after = {m.key() for m in SubgraphMatcher(kg, space).all_matches()}
    assert before == after


@settings(max_examples=40, deadline=None)
@given(graph_and_space(), st.integers(1, 4))
def test_ta_topk_equals_exhaustive_topk(setup, k):
    import copy

    kg, space = setup
    ta = TopKSearch(kg, k=k, use_ta=True).search(copy.deepcopy(space))
    full = TopKSearch(kg, k=k, use_ta=False).search(copy.deepcopy(space))
    assert [round(m.score, 9) for m in ta.matches] == [
        round(m.score, 9) for m in full.matches
    ]
    assert {m.key() for m in ta.matches} == {m.key() for m in full.matches}


@settings(max_examples=40, deadline=None)
@given(graph_and_space())
def test_matches_sorted_and_deduplicated(setup):
    kg, space = setup
    matches = SubgraphMatcher(kg, space, max_matches=300).all_matches()
    scores = [m.score for m in matches]
    assert scores == sorted(scores, reverse=True)
    keys = [m.key() for m in matches]
    assert len(keys) == len(set(keys))


# --------------------------------------------------------------------- #
# All-wildcard spaces: directory seeding vs seeding every node
# --------------------------------------------------------------------- #

_STRUCTURAL = (RDF_TYPE, RDFS_LABEL, RDFS_SUBCLASSOF)


@st.composite
def graph_and_wildcard_space(draw):
    """A random KG with literal-valued and structural triples, plus a
    connected space of 1–3 wildcard vertices whose edges carry one- and
    two-step paths over any predicate of the graph, structural included."""
    node = st.integers(0, _N_NODES - 1)
    predicate = st.integers(0, _N_PREDICATES - 1)
    store = TripleStore()
    store.add(Triple(IRI("g:n0"), IRI("g:p0"), IRI("g:n1")))
    for s, p, o in draw(st.lists(st.tuples(node, predicate, node), max_size=18)):
        if s != o:
            store.add(Triple(IRI(f"g:n{s}"), IRI(f"g:p{p}"), IRI(f"g:n{o}")))
    for s, p, value in draw(
        st.lists(st.tuples(node, predicate, st.integers(0, 2)), max_size=4)
    ):
        store.add(Triple(IRI(f"g:n{s}"), IRI(f"g:p{p}"), Literal(f"v{value}")))
    for s, kind, o in draw(
        st.lists(st.tuples(node, st.sampled_from(_STRUCTURAL), node), max_size=6)
    ):
        target = Literal(f"label {o}") if kind == RDFS_LABEL else IRI(f"g:n{o}")
        if s != o:
            store.add(Triple(IRI(f"g:n{s}"), kind, target))
    kg = KnowledgeGraph(store)

    steps = [
        encode(p) for p in sorted(store.predicate_ids())
        for encode in (forward_step, backward_step)
    ]
    path = st.lists(st.sampled_from(steps), min_size=1, max_size=2).map(tuple)
    candidates = st.lists(
        st.builds(EdgeCandidate, path, st.floats(0.1, 1.0)), min_size=1, max_size=3
    )
    space = CandidateSpace()
    n_vertices = draw(st.integers(1, 3))
    for vertex_id in range(n_vertices):
        space.add_vertex(QueryVertex(vertex_id, wildcard=True))
    # Vertex 0 is where the enumeration starts; a path, a star around it
    # or a triangle give it one or two incident edges, in either direction.
    pairs = [(0, 1)][: n_vertices - 1]
    if n_vertices == 3:
        pairs += draw(st.sampled_from([[(1, 2)], [(0, 2)], [(1, 2), (0, 2)]]))
    for source, target in pairs:
        if draw(st.booleans()):
            source, target = target, source
        space.add_edge(QueryEdge(source, target, candidates=draw(candidates)))
    return kg, space


def matches_seeding_every_node(kg, space):
    """The reference enumeration: one exploration per node of the graph."""
    matcher = SubgraphMatcher(kg, space)
    seen, results = set(), []
    for node in sorted(kg.store.node_ids()):
        for match in matcher.matches_from_seed(0, VertexCandidate(node, 1.0)):
            if match.key() not in seen:
                seen.add(match.key())
                results.append(match)
    results.sort(key=lambda m: -m.score)
    return results


@settings(max_examples=150, deadline=None)
@given(graph_and_wildcard_space())
def test_wildcard_seeding_equals_seeding_every_node(setup):
    """Same matches in the same order: equal-score matches are cut by
    discovery order downstream, so the order is part of the answer."""
    kg, space = setup
    assert SubgraphMatcher(kg, space).all_matches() == matches_seeding_every_node(kg, space)
