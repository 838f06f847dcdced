"""Tests for Algorithm 3: TA-style top-k search with pruning toggles."""

import copy
import time

import pytest

from repro import obs
from repro.core.top_k import TopKSearch
from repro.match import (
    CandidateSpace,
    EdgeCandidate,
    QueryEdge,
    QueryVertex,
    VertexCandidate,
)
from repro.rdf import IRI, KnowledgeGraph, Triple, TripleStore
from repro.rdf.graph import forward_step


@pytest.fixture
def chain_kg():
    """A fan-out graph: hub connects to many leaves by several predicates."""
    store = TripleStore()
    for leaf in range(12):
        predicate = f"p{leaf % 3}"
        store.add(
            Triple(IRI("ex:hub"), IRI(f"ex:{predicate}"), IRI(f"ex:leaf{leaf}"))
        )
    return KnowledgeGraph(store)


def fan_space(kg, confidences):
    """hub --edge--> ?leaf with leaf candidates at given confidences."""
    space = CandidateSpace()
    hub = kg.id_of(IRI("ex:hub"))
    space.add_vertex(QueryVertex(0, candidates=[VertexCandidate(hub, 1.0)]))
    leaf_candidates = [
        VertexCandidate(kg.id_of(IRI(f"ex:leaf{i}")), conf)
        for i, conf in enumerate(confidences)
    ]
    space.add_vertex(QueryVertex(1, candidates=leaf_candidates))
    edges = [
        EdgeCandidate((forward_step(kg.id_of(IRI(f"ex:p{i}"))),), 1.0)
        for i in range(3)
    ]
    space.add_edge(QueryEdge(0, 1, candidates=edges))
    return space


def wildcard_pair_space(kg):
    """?x --p0--> ?y: no vertex has a candidate list to seed from."""
    space = CandidateSpace()
    space.add_vertex(QueryVertex(0, wildcard=True))
    space.add_vertex(QueryVertex(1, wildcard=True))
    edges = [EdgeCandidate((forward_step(kg.id_of(IRI("ex:p0"))),), 1.0)]
    space.add_edge(QueryEdge(0, 1, candidates=edges))
    return space


class TestTopK:
    def test_returns_k_best(self, chain_kg):
        confidences = [1.0 - i * 0.05 for i in range(12)]
        space = fan_space(chain_kg, confidences)
        result = TopKSearch(chain_kg, k=3).search(space)
        assert len(result.matches) == 3
        scores = [m.score for m in result.matches]
        assert scores == sorted(scores, reverse=True)

    def test_k_larger_than_matches(self, chain_kg):
        space = fan_space(chain_kg, [0.9, 0.8])
        result = TopKSearch(chain_kg, k=10).search(space)
        assert len(result.matches) == 2

    def test_ties_at_kth_all_returned(self, chain_kg):
        # Footnote 4: matches sharing the k-th score are all returned.
        confidences = [0.9, 0.8, 0.8, 0.8, 0.1]
        space = fan_space(chain_kg, confidences)
        result = TopKSearch(chain_kg, k=2).search(space)
        assert len(result.matches) == 4  # 0.9 plus the three tied 0.8s

    def test_ta_matches_exhaustive(self, chain_kg):
        confidences = [1.0 - i * 0.07 for i in range(12)]
        space_ta = fan_space(chain_kg, confidences)
        space_full = fan_space(chain_kg, confidences)
        with_ta = TopKSearch(chain_kg, k=4, use_ta=True).search(space_ta)
        without = TopKSearch(chain_kg, k=4, use_ta=False).search(space_full)
        assert [m.key() for m in with_ta.matches] == [m.key() for m in without.matches]

    def test_ta_early_termination_explores_fewer_seeds(self):
        # Both endpoint lists have many candidates with a huge score gap
        # after the first — TA stops after one round-robin pass.
        store = TripleStore()
        for i in range(6):
            store.add(Triple(IRI(f"ex:hub{i}"), IRI("ex:p"), IRI(f"ex:leaf{i}")))
        kg = KnowledgeGraph(store)

        def space():
            s = CandidateSpace()
            gap = [1.0] + [0.01] * 5
            s.add_vertex(QueryVertex(0, candidates=[
                VertexCandidate(kg.id_of(IRI(f"ex:hub{i}")), conf)
                for i, conf in enumerate(gap)
            ]))
            s.add_vertex(QueryVertex(1, candidates=[
                VertexCandidate(kg.id_of(IRI(f"ex:leaf{i}")), conf)
                for i, conf in enumerate(gap)
            ]))
            s.add_edge(QueryEdge(0, 1, candidates=[
                EdgeCandidate((forward_step(kg.id_of(IRI("ex:p"))),), 1.0)
            ]))
            return s

        with_ta = TopKSearch(kg, k=1, use_ta=True).search(space())
        without = TopKSearch(kg, k=1, use_ta=False).search(space())
        assert with_ta.terminated_by == "threshold"
        assert with_ta.seeds_explored < without.seeds_explored
        assert with_ta.matches[0].key() == without.matches[0].key()

    def test_pruning_counts_removed_candidates(self, chain_kg):
        space = fan_space(chain_kg, [0.9, 0.8])
        # Add an unreachable candidate that pruning must remove.
        orphan_store_id = chain_kg.store.dictionary.encode(IRI("ex:orphan"))
        space.vertices[1].candidates.append(VertexCandidate(orphan_store_id, 0.99))
        result = TopKSearch(chain_kg, k=5, use_pruning=True).search(space)
        assert result.candidates_pruned >= 1

    def test_empty_candidate_list_returns_empty(self, chain_kg):
        space = CandidateSpace()
        space.add_vertex(QueryVertex(0, candidates=[]))
        result = TopKSearch(chain_kg).search(space)
        assert result.matches == []
        assert result.terminated_by == "empty"

    def test_exhausted_with_matches(self, chain_kg):
        # k exceeds the number of possible matches: the search drains every
        # seed combination and reports "exhausted", not "empty".
        space = fan_space(chain_kg, [0.9, 0.8])
        result = TopKSearch(chain_kg, k=10).search(space)
        assert len(result.matches) == 2
        assert result.terminated_by == "exhausted"

    def test_exhausted_with_zero_matches(self, chain_kg):
        # Candidate lists are non-empty but no binding satisfies the edge:
        # with pruning off the search runs dry and must say "exhausted"
        # (it explored seeds), not "empty" (it never had any).
        space = fan_space(chain_kg, [])
        orphan = chain_kg.store.dictionary.encode(IRI("ex:orphan"))
        space.vertices[1].candidates.append(VertexCandidate(orphan, 0.9))
        result = TopKSearch(chain_kg, k=3, use_pruning=False).search(space)
        assert result.matches == []
        assert result.seeds_explored >= 1
        assert result.terminated_by == "exhausted"

    def test_pruned_empty_distinct_from_empty(self, chain_kg):
        # The only candidate for vertex 1 is unreachable; pruning removes it
        # and empties the list.  That is "pruned_empty" — the space was
        # satisfiable-looking until pruning, unlike a born-empty list.
        space = fan_space(chain_kg, [])
        orphan = chain_kg.store.dictionary.encode(IRI("ex:orphan"))
        space.vertices[1].candidates.append(VertexCandidate(orphan, 0.9))
        result = TopKSearch(chain_kg, k=3, use_pruning=True).search(space)
        assert result.matches == []
        assert result.terminated_by == "pruned_empty"

    def test_ties_at_kth_terminate_exhausted_or_threshold(self, chain_kg):
        # Footnote 4 runs: whichever way the tie resolves, the reason must
        # be a real termination mode, never the legacy catch-all "empty".
        confidences = [0.9, 0.8, 0.8, 0.8, 0.1]
        space = fan_space(chain_kg, confidences)
        result = TopKSearch(chain_kg, k=2).search(space)
        assert result.terminated_by in {"threshold", "exhausted"}

    def test_ta_trajectory_recorded_under_tracer(self):
        # Both endpoint lists need several candidates, or list exhaustion
        # fires before the first TA round has a chance to be logged.
        store = TripleStore()
        for i in range(6):
            store.add(Triple(IRI(f"ex:hub{i}"), IRI("ex:p"), IRI(f"ex:leaf{i}")))
        kg = KnowledgeGraph(store)
        space = CandidateSpace()
        confidences = [1.0 - i * 0.15 for i in range(6)]
        space.add_vertex(QueryVertex(0, candidates=[
            VertexCandidate(kg.id_of(IRI(f"ex:hub{i}")), conf)
            for i, conf in enumerate(confidences)
        ]))
        space.add_vertex(QueryVertex(1, candidates=[
            VertexCandidate(kg.id_of(IRI(f"ex:leaf{i}")), conf)
            for i, conf in enumerate(confidences)
        ]))
        space.add_edge(QueryEdge(0, 1, candidates=[
            EdgeCandidate((forward_step(kg.id_of(IRI("ex:p"))),), 1.0)
        ]))
        tracer = obs.Tracer()
        result = TopKSearch(kg, k=2, use_ta=True).search(space, tracer=tracer)
        assert result.ta_trajectory, "recording tracer should capture θ/upbound"
        for point in result.ta_trajectory:
            assert set(point) == {"depth", "threshold", "upbound"}
        span = tracer.roots[0]
        assert span.name == "top_k.search"
        assert span.attributes["terminated_by"] == result.terminated_by
        assert span.attributes["seeds_explored"] == result.seeds_explored
        counters = tracer.metrics.counters
        assert counters["top_k.searches"] == 1
        assert counters["top_k.seeds_explored"] == result.seeds_explored
        assert counters[f"top_k.terminated.{result.terminated_by}"] == 1
        assert counters["matcher.expansions"] >= 1

    def test_no_trajectory_without_tracer(self, chain_kg):
        result = TopKSearch(chain_kg, k=2, use_ta=True).search(
            fan_space(chain_kg, [0.9, 0.8, 0.7])
        )
        assert result.ta_trajectory == []

    def test_all_wildcard_query(self, chain_kg):
        result = TopKSearch(chain_kg, k=2).search(wildcard_pair_space(chain_kg))
        assert 1 <= len(result.matches) <= 2

    def test_all_wildcard_cut_keeps_the_lowest_seeds(self, chain_kg):
        # The matches tie on score, so which k survive is decided by the
        # order seeds are explored in: ascending node id.
        result = TopKSearch(chain_kg, k=2).search(wildcard_pair_space(chain_kg))
        assert result.terminated_by == "exhausted"
        every = TopKSearch(chain_kg, k=100).search(wildcard_pair_space(chain_kg))
        every = every.matches
        assert len(every) == 8  # four p0 edges, either way round
        assert result.matches == sorted(every, key=lambda m: m.binding_of(0))[:2]

    def test_all_wildcard_query_honours_an_expired_deadline(self, chain_kg):
        result = TopKSearch(chain_kg, k=2).search(
            wildcard_pair_space(chain_kg), deadline=time.monotonic()
        )
        assert result.terminated_by == "deadline"
        assert result.matches == []
