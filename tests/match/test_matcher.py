"""Tests for candidate spaces and the exploration matcher on the paper's
Figure 1/2 running example."""

import math

import pytest

from repro.match import (
    CandidateSpace,
    EdgeCandidate,
    GraphMatch,
    QueryEdge,
    QueryVertex,
    SubgraphMatcher,
    VertexCandidate,
)
from repro.rdf import IRI, KnowledgeGraph, RDF_TYPE, Triple, TripleStore
from repro.rdf.graph import backward_step, forward_step


def e(name):
    return IRI(f"ex:{name}")


@pytest.fixture(scope="module")
def kg():
    """The running example: who-married-actor-played-in-Philadelphia."""
    store = TripleStore()
    triples = [
        ("Antonio_Banderas", "spouse", "Melanie_Griffith"),
        ("Antonio_Banderas", "starring", "Philadelphia_(film)"),
        ("Tom_Hanks", "starring", "Philadelphia_(film)"),
        ("Aaron_McKie", "playForTeam", "Philadelphia_76ers"),
        ("Jonathan_Demme", "director", "Philadelphia_(film)"),
        ("Constitution", "signedIn", "Philadelphia"),
    ]
    for s, p, o in triples:
        store.add(Triple(e(s), e(p), e(o)))
    store.add(Triple(e("Antonio_Banderas"), RDF_TYPE, e("Actor")))
    store.add(Triple(e("Tom_Hanks"), RDF_TYPE, e("Actor")))
    store.add(Triple(e("Aaron_McKie"), RDF_TYPE, e("BasketballPlayer")))
    return KnowledgeGraph(store)


def nid(kg, name):
    return kg.id_of(e(name))


def pid(kg, name):
    return kg.id_of(e(name))


@pytest.fixture
def running_example_space(kg):
    """Q^S of Figure 2: who --be married to-- actor --play in-- Philadelphia."""
    space = CandidateSpace()
    space.add_vertex(QueryVertex(0, wildcard=True))  # "who"
    space.add_vertex(
        QueryVertex(
            1,
            candidates=[VertexCandidate(nid(kg, "Actor"), 0.9, is_class=True)],
        )
    )
    space.add_vertex(
        QueryVertex(
            2,
            candidates=[
                VertexCandidate(nid(kg, "Philadelphia"), 0.9),
                VertexCandidate(nid(kg, "Philadelphia_(film)"), 0.8),
                VertexCandidate(nid(kg, "Philadelphia_76ers"), 0.7),
            ],
        )
    )
    space.add_edge(
        QueryEdge(
            1, 0, candidates=[EdgeCandidate((forward_step(pid(kg, "spouse")),), 1.0)]
        )
    )
    space.add_edge(
        QueryEdge(
            1,
            2,
            candidates=[
                EdgeCandidate((forward_step(pid(kg, "starring")),), 0.9),
                EdgeCandidate((forward_step(pid(kg, "playForTeam")),), 0.8),
                EdgeCandidate((forward_step(pid(kg, "director")),), 0.5),
            ],
        )
    )
    return space


class TestCandidateSpace:
    def test_candidates_sorted_by_confidence(self, running_example_space):
        scores = [c.confidence for c in running_example_space.vertices[2].candidates]
        assert scores == sorted(scores, reverse=True)

    def test_connected(self, running_example_space):
        assert len(running_example_space.components()) == 1

    def test_components_split(self, kg):
        space = CandidateSpace()
        space.add_vertex(QueryVertex(0, wildcard=True))
        space.add_vertex(QueryVertex(1, wildcard=True))
        assert len(space.components()) == 2

    def test_edge_requires_vertices(self):
        space = CandidateSpace()
        with pytest.raises(ValueError):
            space.add_edge(QueryEdge(0, 1))

    def test_has_empty_list(self, kg):
        space = CandidateSpace()
        space.add_vertex(QueryVertex(0, candidates=[]))
        assert space.has_empty_list()


class TestRunningExampleMatch:
    def test_unique_match_resolves_ambiguity(self, kg, running_example_space):
        matcher = SubgraphMatcher(kg, running_example_space)
        matches = matcher.all_matches()
        assert len(matches) == 1
        (match,) = matches
        # The answer is Melanie Griffith; "Philadelphia" resolved to the film.
        assert match.binding_of(0) == nid(kg, "Melanie_Griffith")
        assert match.binding_of(1) == nid(kg, "Antonio_Banderas")
        assert match.binding_of(2) == nid(kg, "Philadelphia_(film)")

    def test_score_is_sum_of_logs(self, kg, running_example_space):
        (match,) = SubgraphMatcher(kg, running_example_space).all_matches()
        expected = math.log(1.0) + math.log(0.9) + math.log(0.8) + math.log(1.0) + math.log(0.9)
        assert match.score == pytest.approx(expected)

    def test_hanks_excluded_by_spouse_edge(self, kg, running_example_space):
        # Tom Hanks starred in Philadelphia (film) but has no spouse edge,
        # so no match binds him.
        matches = SubgraphMatcher(kg, running_example_space).all_matches()
        assert all(m.binding_of(1) != nid(kg, "Tom_Hanks") for m in matches)

    def test_seeded_exploration_finds_same_match(self, kg, running_example_space):
        matcher = SubgraphMatcher(kg, running_example_space)
        seed = VertexCandidate(nid(kg, "Philadelphia_(film)"), 0.8)
        matches = matcher.matches_from_seed(2, seed)
        assert len(matches) == 1
        assert matches[0].binding_of(0) == nid(kg, "Melanie_Griffith")

    def test_seeding_false_candidate_finds_nothing(self, kg, running_example_space):
        matcher = SubgraphMatcher(kg, running_example_space)
        seed = VertexCandidate(nid(kg, "Philadelphia_76ers"), 0.7)
        assert matcher.matches_from_seed(2, seed) == []

    def test_class_seed_explores_instances(self, kg, running_example_space):
        matcher = SubgraphMatcher(kg, running_example_space)
        seed = VertexCandidate(nid(kg, "Actor"), 0.9, is_class=True)
        matches = matcher.matches_from_seed(1, seed)
        assert len(matches) == 1
        assert matches[0].binding_of(1) == nid(kg, "Antonio_Banderas")


class TestMatchSemantics:
    def test_edge_orientation_both_ways(self, kg):
        # Query edge direction opposite to data direction still matches via
        # the signed path (Definition 3 condition 3).
        space = CandidateSpace()
        space.add_vertex(
            QueryVertex(0, candidates=[VertexCandidate(nid(kg, "Melanie_Griffith"), 1.0)])
        )
        space.add_vertex(QueryVertex(1, wildcard=True))
        space.add_edge(
            QueryEdge(0, 1, candidates=[EdgeCandidate((backward_step(pid(kg, "spouse")),), 1.0)])
        )
        matches = SubgraphMatcher(kg, space).all_matches()
        assert [m.binding_of(1) for m in matches] == [nid(kg, "Antonio_Banderas")]

    def test_injectivity(self, kg):
        # Both wildcard endpoints of a spouse edge cannot bind the same node.
        space = CandidateSpace()
        space.add_vertex(QueryVertex(0, wildcard=True))
        space.add_vertex(QueryVertex(1, wildcard=True))
        space.add_edge(
            QueryEdge(0, 1, candidates=[EdgeCandidate((forward_step(pid(kg, "spouse")),), 1.0)])
        )
        for match in SubgraphMatcher(kg, space).all_matches():
            assert match.binding_of(0) != match.binding_of(1)

    def test_multi_hop_path_edge(self, kg):
        # Griffith --(spouse⁻¹ · starring)--> film: a length-2 path edge.
        space = CandidateSpace()
        space.add_vertex(
            QueryVertex(0, candidates=[VertexCandidate(nid(kg, "Melanie_Griffith"), 1.0)])
        )
        space.add_vertex(QueryVertex(1, wildcard=True))
        path = (backward_step(pid(kg, "spouse")), forward_step(pid(kg, "starring")))
        space.add_edge(QueryEdge(0, 1, candidates=[EdgeCandidate(path, 0.9)]))
        matches = SubgraphMatcher(kg, space).all_matches()
        assert [m.binding_of(1) for m in matches] == [nid(kg, "Philadelphia_(film)")]

    def test_best_edge_path_chosen_for_score(self, kg):
        # Two candidate paths both connect; the higher-confidence one is
        # used for the score.
        space = CandidateSpace()
        space.add_vertex(
            QueryVertex(0, candidates=[VertexCandidate(nid(kg, "Antonio_Banderas"), 1.0)])
        )
        space.add_vertex(
            QueryVertex(1, candidates=[VertexCandidate(nid(kg, "Philadelphia_(film)"), 1.0)])
        )
        starring = (forward_step(pid(kg, "starring")),)
        space.add_edge(
            QueryEdge(
                0, 1,
                candidates=[
                    EdgeCandidate(starring, 0.9),
                    EdgeCandidate(starring, 0.2),
                ],
            )
        )
        (match,) = SubgraphMatcher(kg, space).all_matches()
        assert match.score == pytest.approx(math.log(0.9))

    def test_no_candidates_no_match(self, kg):
        space = CandidateSpace()
        space.add_vertex(QueryVertex(0, candidates=[]))
        space.add_vertex(QueryVertex(1, wildcard=True))
        space.add_edge(
            QueryEdge(0, 1, candidates=[EdgeCandidate((forward_step(pid(kg, "spouse")),), 1.0)])
        )
        assert SubgraphMatcher(kg, space).all_matches() == []

    def test_max_matches_cap(self, kg):
        space = CandidateSpace()
        space.add_vertex(QueryVertex(0, wildcard=True))
        space.add_vertex(QueryVertex(1, wildcard=True))
        # Any predicate at all — bind every edge in the graph.
        candidates = [
            EdgeCandidate((forward_step(p),), 1.0)
            for p in kg.store.predicate_ids()
        ]
        space.add_edge(QueryEdge(0, 1, candidates=candidates))
        matcher = SubgraphMatcher(kg, space, max_matches=2)
        assert len(matcher.all_matches()) <= 2 * len(list(kg.store.node_ids()))


class TestPruning:
    def test_prunes_impossible_candidate(self, kg, running_example_space):
        from repro.match import neighborhood_prune

        removed = neighborhood_prune(kg, running_example_space)
        assert removed >= 1
        surviving = {
            c.node_id for c in running_example_space.vertices[2].candidates
        }
        # Plain Philadelphia (the city) has no starring/playForTeam/director
        # incident edge → pruned (u₅ in Figure 2).
        assert nid(kg, "Philadelphia") not in surviving
        assert nid(kg, "Philadelphia_(film)") in surviving

    def test_pruning_preserves_matches(self, kg, running_example_space):
        from repro.match import neighborhood_prune
        import copy

        unpruned = SubgraphMatcher(kg, copy.deepcopy(running_example_space)).all_matches()
        neighborhood_prune(kg, running_example_space)
        pruned = SubgraphMatcher(kg, running_example_space).all_matches()
        assert {m.key() for m in pruned} == {m.key() for m in unpruned}

    def test_wildcards_not_pruned(self, kg, running_example_space):
        from repro.match import neighborhood_prune

        neighborhood_prune(kg, running_example_space)
        assert running_example_space.vertices[0].wildcard


class TestSelfLoopGuard:
    def test_self_loop_edge_rejected(self, kg):
        space = CandidateSpace()
        space.add_vertex(QueryVertex(0, wildcard=True))
        with pytest.raises(ValueError):
            space.add_edge(QueryEdge(0, 0, candidates=[]))


class _CountingBackend:
    """Delegates to a store backend and counts the calls it forwards."""

    def __init__(self, inner):
        self.inner = inner
        self.reads = 0

    def __len__(self):
        return len(self.inner)

    def __getattr__(self, name):
        target = getattr(self.inner, name)
        if not callable(target):
            return target

        def counted(*args, **kwargs):
            self.reads += 1
            return target(*args, **kwargs)

        return counted


def two_wildcards_over(kg, predicate):
    space = CandidateSpace()
    space.add_vertex(QueryVertex(0, wildcard=True))
    space.add_vertex(QueryVertex(1, wildcard=True))
    path = (forward_step(pid(kg, predicate)),)
    space.add_edge(QueryEdge(0, 1, candidates=[EdgeCandidate(path, 1.0)]))
    return space


class TestWildcardSeeding:
    """An all-wildcard query explores from the nodes that carry one of
    its edges' steps — work set by the predicate, not by the graph."""

    @staticmethod
    def work(filler_nodes, pairs=3):
        """(explorations started, store reads, matches) of ``?x rare ?y`` on
        a graph of ``pairs`` rare edges beside a chain of filler nodes."""
        store = TripleStore()
        for i in range(pairs):
            store.add(Triple(e(f"s{i}"), e("rare"), e(f"o{i}")))
        for i in range(filler_nodes):
            store.add(Triple(e(f"f{i}"), e("common"), e(f"f{i + 1}")))
        kg = KnowledgeGraph(store)
        _ = kg.kernel  # built before the reads are counted
        matcher = SubgraphMatcher(kg, two_wildcards_over(kg, "rare"))
        started = []
        explore_from = matcher.matches_from_seed
        matcher.matches_from_seed = lambda vertex_id, candidate: (
            started.append(candidate.node_id) or explore_from(vertex_id, candidate)
        )
        counting = _CountingBackend(store.backend)
        store.swap_backend(counting)
        matches = matcher.all_matches()
        return len(started), counting.reads, len(matches)

    def test_work_is_bounded_by_the_nodes_carrying_the_predicate(self):
        started, reads, matches = self.work(filler_nodes=40)
        assert matches == 6  # each pair, either way round (Definition 3)
        assert started <= 6  # three subjects and three objects carry `rare`
        # Ten times the graph, the same query: not one more read.
        assert self.work(filler_nodes=400) == (started, reads, matches)

    @pytest.mark.parametrize("incremental", [False, True])
    def test_node_gaining_its_first_edge_becomes_a_seed(self, incremental):
        store = TripleStore()
        store.add(Triple(e("a"), e("rare"), e("b")))
        store.add(Triple(e("c"), e("common"), e("d")))
        store = store.compacted().overlay()
        kg = KnowledgeGraph(store)

        def bound():
            matches = SubgraphMatcher(kg, two_wildcards_over(kg, "rare")).all_matches()
            return {
                (kg.term_of(m.binding_of(0)), kg.term_of(m.binding_of(1)))
                for m in matches
            }

        assert bound() == {(e("a"), e("b")), (e("b"), e("a"))}
        store.add(Triple(e("c"), e("rare"), e("d")))
        kg.refresh(incremental=incremental)
        assert (e("c"), e("d")) in bound()

    def test_expansion_order_is_per_seed_vertex_not_per_instance(
        self, kg, running_example_space
    ):
        matcher = SubgraphMatcher(kg, running_example_space)
        orders = []
        expansion_order = matcher._expansion_order
        matcher._expansion_order = lambda seed: (
            orders.append(seed) or expansion_order(seed)
        )
        actor = running_example_space.vertices[1].candidates[0]  # class, two instances
        assert len(matcher.matches_from_seed(1, actor)) == 1
        assert orders == [1]
