"""Property-style tests: the adjacency kernel against nested-dict references.

Every result the kernel serves — adjacency rows, incident-predicate
signatures, path walks, mined simple-path sets — is recomputed here by a
straightforward reference implementation over the triple store's index
views, and the two must agree exactly on both the synthetic generator
output and the curated dbpedia-mini graph.  A final regression test pins
the ``refresh()`` invalidation contract.
"""

from collections import Counter, defaultdict

import pytest

from repro.datasets import SyntheticConfig, build_dbpedia_mini, build_synthetic_kg
from repro.paraphrase.path_mining import find_simple_paths
from repro.rdf import IRI, RDF_TYPE, RDFS_LABEL, KnowledgeGraph, Literal, Triple, TripleStore
from repro.rdf.kernel import (
    AdjacencyKernel,
    rows_from_sorted_triples,
    step_is_forward,
    step_predicate,
)


@pytest.fixture(params=["synthetic", "dbpedia_mini"])
def kg(request):
    if request.param == "synthetic":
        return build_synthetic_kg(
            SyntheticConfig(entities=200, triples_per_entity=4, predicates=12)
        )
    return build_dbpedia_mini()


# --------------------------------------------------------------------- #
# Nested-dict reference implementations
# --------------------------------------------------------------------- #

def reference_adjacency(kg, include_literals):
    """node → multiset of (signed step, neighbor), straight off the triples."""
    structural = kg.structural_predicate_ids
    is_literal = kg.store.is_literal_id
    adjacency = defaultdict(list)
    for sid, pid, oid in kg.store.triples_ids():
        if pid in structural:
            continue
        if not include_literals and is_literal(oid):
            continue
        adjacency[sid].append((pid + 1, oid))
        adjacency[oid].append((-(pid + 1), sid))
    return adjacency


def reference_neighbors(kg, node):
    """(signed step, neighbor) pairs via the store's nested index views."""
    structural = kg.structural_predicate_ids
    for pid, objects in kg.store.out_index(node).items():
        if pid in structural:
            continue
        for oid in objects:
            yield pid + 1, oid
    for sid, predicates in kg.store.in_index(node).items():
        for pid in predicates:
            if pid in structural:
                continue
            yield -(pid + 1), sid


def reference_walk(kg, start, path):
    """Frontier-by-frontier path walk over the nested dict indexes."""
    frontier = {start}
    for step in path:
        next_frontier = set()
        pid = abs(step) - 1
        for node in frontier:
            if step > 0:
                next_frontier |= set(kg.store.objects_ids(node, pid))
            else:
                next_frontier |= set(kg.store.subjects_ids(pid, node))
        frontier = next_frontier
        if not frontier:
            break
    return frontier


def naive_simple_paths(kg, source, target, max_length):
    """Exhaustive DFS simple-path enumeration (the semantic ground truth).

    Paths never pass *through* a literal, but may end on one when the
    literal is the target — the same contract as ``find_simple_paths``.
    """
    is_literal = kg.store.is_literal_id
    found = set()

    def extend(node, path, visited):
        if node == target and path:
            found.add(tuple(path))
            return
        if len(path) >= max_length or is_literal(node):
            return
        for step, neighbor in reference_neighbors(kg, node):
            if neighbor in visited:
                continue
            if neighbor != target and is_literal(neighbor):
                continue
            visited.add(neighbor)
            path.append(step)
            extend(neighbor, path, visited)
            path.pop()
            visited.discard(neighbor)

    if source == target:
        return found
    if is_literal(source):
        # The real miner reverses the literal-source case; mirror it.
        return {
            tuple(-step for step in reversed(path))
            for path in naive_simple_paths(kg, target, source, max_length)
        }
    extend(source, [], {source})
    return found


def sample_entities(kg, count):
    """A deterministic spread of entity ids (not hand-picked hubs)."""
    entities = sorted(kg.entity_ids())
    stride = max(1, len(entities) // count)
    return entities[::stride][:count]


# --------------------------------------------------------------------- #
# Equivalence properties
# --------------------------------------------------------------------- #

class TestKernelMatchesReference:
    def test_full_adjacency_edge_sets(self, kg):
        reference = reference_adjacency(kg, include_literals=True)
        nodes = set(reference) | set(kg.store.node_ids())
        for node in nodes:
            steps, neighbors = kg.kernel.adjacency(node)
            assert Counter(zip(steps, neighbors)) == Counter(reference.get(node, []))

    def test_entity_adjacency_edge_sets(self, kg):
        reference = reference_adjacency(kg, include_literals=False)
        nodes = set(reference) | set(kg.store.node_ids())
        for node in nodes:
            steps, neighbors = kg.kernel.entity_adjacency(node)
            assert Counter(zip(steps, neighbors)) == Counter(reference.get(node, []))

    def test_incident_steps_signature(self, kg):
        reference = reference_adjacency(kg, include_literals=True)
        for node in set(reference) | set(kg.store.node_ids()):
            expected = frozenset(step for step, _ in reference.get(node, []))
            assert kg.kernel.incident_steps(node) == expected

    def test_step_directory_inverts_the_signatures(self, kg):
        reference = reference_adjacency(kg, include_literals=True)
        carriers = defaultdict(set)
        for node, edges in reference.items():
            for step, _neighbor in edges:
                carriers[step].add(node)
        for step, nodes in carriers.items():
            assert kg.kernel.nodes_with_step(step) == nodes
        # Steps no row carries: a predicate id never issued, and the
        # structural predicates the rows leave out.
        assert kg.kernel.nodes_with_step(len(kg.store.dictionary) + 1) == frozenset()
        for pid in kg.structural_predicate_ids:
            assert kg.kernel.nodes_with_step(pid + 1) == frozenset()
            assert kg.kernel.nodes_with_step(-(pid + 1)) == frozenset()

    def test_incident_predicates_signature(self, kg):
        # The signature decoded to (predicate, follows-the-edge?) pairs
        # against the same pairs read straight off the triples.
        incident = defaultdict(set)
        structural = kg.structural_predicate_ids
        for sid, pid, oid in kg.store.triples_ids():
            if pid not in structural:
                incident[sid].add((pid, True))
                incident[oid].add((pid, False))
        for node, expected in incident.items():
            assert {
                (step_predicate(step), step_is_forward(step))
                for step in kg.kernel.incident_steps(node)
            } == expected

    def test_walk_path_matches_reference(self, kg):
        for start in sample_entities(kg, 12):
            for step, _neighbor in list(kg.kernel.neighbors(start))[:4]:
                for extra, _ in list(kg.kernel.neighbors(start))[:2]:
                    path = (step, -extra)
                    assert kg.kernel.walk_path(start, path) == frozenset(
                        reference_walk(kg, start, path)
                    )
                assert kg.kernel.walk_path(start, (step,)) == frozenset(
                    reference_walk(kg, start, (step,))
                )

    def test_walk_path_returns_shared_frozenset(self, kg):
        start = sample_entities(kg, 1)[0]
        steps, _ = kg.kernel.adjacency(start)
        if not steps:
            pytest.skip("isolated sample node")
        first = kg.kernel.walk_path(start, (steps[0],))
        assert isinstance(first, frozenset)
        assert kg.kernel.walk_path(start, (steps[0],)) is first  # LRU hit

    def test_statistics_count_the_rows_served(self, kg):
        # The dict QAEngine.warm() and GET /stats report.  Literal
        # endpoints hold rows too (their incoming fact edges).
        stats = kg.kernel.statistics()
        assert stats["edge_slots_full"] >= stats["edge_slots_entity"] > 0
        endpoints = kg.store.node_ids() | set(kg.store.iter_literal_ids())
        assert stats["edge_slots_full"] == sum(
            len(kg.kernel.adjacency(node)[0]) for node in endpoints
        )

    def test_statistics_report_the_walk_cache_and_the_directory(self, kg):
        kernel = AdjacencyKernel(kg.store)
        before = kernel.statistics()
        # Reporting builds nothing: the directory waits for its first reader.
        assert before["directory_steps"] == before["walk_cache_size"] == 0
        start = sample_entities(kg, 1)[0]
        step = kernel.adjacency(start)[0][0]
        kernel.walk_path(start, (step,))
        kernel.walk_path(start, (step,))
        kernel.nodes_with_step(step)
        after = kernel.statistics()
        assert (after["walk_cache_hits"], after["walk_cache_misses"]) == (1, 1)
        assert after["walk_cache_size"] == 1
        assert after["directory_steps"] == len(
            {s for steps, _n in kernel.full_rows().values() for s in steps}
        )

    @pytest.mark.parametrize("max_length", [2, 3])
    def test_mined_path_sets_match_naive_dfs(self, kg, max_length):
        entities = sample_entities(kg, 6)
        pairs = [(a, b) for a in entities for b in entities if a != b][:15]
        for source, target in pairs:
            assert find_simple_paths(kg, source, target, max_length) == \
                naive_simple_paths(kg, source, target, max_length), (source, target)

    def test_mined_paths_to_literal_match_naive_dfs(self, kg):
        literals = sorted(kg.store.iter_literal_ids())[:4]
        for source in sample_entities(kg, 4):
            for literal in literals:
                assert find_simple_paths(kg, source, literal, 3) == \
                    naive_simple_paths(kg, source, literal, 3), (source, literal)


# --------------------------------------------------------------------- #
# refresh() invalidation
# --------------------------------------------------------------------- #

class TestRefreshInvalidation:
    def build(self):
        store = TripleStore()
        e = lambda name: IRI(f"ex:{name}")
        store.add(Triple(e("a"), e("knows"), e("b")))
        store.add(Triple(e("b"), e("knows"), e("c")))
        return store, KnowledgeGraph(store), e

    def test_kernel_is_stale_until_refresh(self):
        store, kg, e = self.build()
        kernel_before = kg.kernel
        a = kg.id_of(e("a"))
        c = kg.id_of(e("c"))
        knows = kg.id_of(e("knows"))
        assert find_simple_paths(kg, a, c, 1) == set()
        store.add(Triple(e("a"), e("likes"), e("c")))
        # The kernel is immutable: the new triple is invisible until refresh.
        assert kg.kernel is kernel_before
        likes = kg.id_of(e("likes"))
        assert (likes + 1) not in kg.kernel.incident_steps(a)

        kg.refresh()
        assert kg.kernel is not kernel_before
        assert (likes + 1) in kg.kernel.incident_steps(a)
        assert find_simple_paths(kg, a, c, 1) == {(likes + 1,)}
        assert kg.kernel.walk_path(a, (likes + 1,)) == frozenset({c})
        assert kg.kernel.incident_steps(a) == {knows + 1, likes + 1}

    def test_step_directory_dropped_on_refresh(self):
        store, kg, e = self.build()
        a, b, c = (kg.id_of(e(name)) for name in "abc")
        knows = kg.id_of(e("knows")) + 1
        assert kg.kernel.nodes_with_step(-knows) == {b, c}
        store.add(Triple(e("c"), e("knows"), e("a")))
        assert kg.kernel.nodes_with_step(-knows) == {b, c}  # stale, like the rows
        kg.refresh()
        assert kg.kernel.nodes_with_step(-knows) == {a, b, c}

    def test_cache_regions_dropped_on_refresh(self):
        store, kg, e = self.build()
        a = kg.id_of(e("a"))
        c = kg.id_of(e("c"))
        find_simple_paths(kg, a, c, 4)  # populates the expand-tree region
        assert kg.kernel.cache_region("mining.expand_tree")
        old_region = kg.kernel.cache_region("mining.expand_tree")
        kg.refresh()
        assert kg.kernel.cache_region("mining.expand_tree") is not old_region
        assert not kg.kernel.cache_region("mining.expand_tree")


# --------------------------------------------------------------------- #
# The single row builder
# --------------------------------------------------------------------- #

class TestSingleRowBuilder:
    """``rows_from_sorted_triples`` is the only place triples become rows:
    every construction path — the cold build on any layout (overlay,
    compact, sharded, dirty overlay) and incremental patching — must
    reproduce it byte for byte."""

    @pytest.fixture(scope="class")
    def stores(self):
        store = build_dbpedia_mini().store.overlay()
        e = lambda name: IRI(f"pin:{name}")
        store.add_all([
            Triple(e("loop"), e("rel"), e("loop")),  # self-loop: fwd then bwd, adjacent
            Triple(e("loop"), e("rel"), e("far")),
            Triple(e("typed_only"), RDF_TYPE, e("Class")),  # only structural out-edges
            Triple(e("far"), e("rel"), e("typed_only")),  # ...but still an object
        ])
        dirty = store.compacted().overlay()
        stale = AdjacencyKernel(dirty)
        dirty.add(Triple(e("loop"), e("rel2"), e("loop")))
        dirty.add(Triple(e("typed_only"), RDFS_LABEL, Literal("typed only")))
        dirty.remove(Triple(e("loop"), e("rel"), e("far")))
        return store, dirty, stale, e

    @staticmethod
    def built(store):
        structural = AdjacencyKernel(store).structural_predicate_ids
        rows = rows_from_sorted_triples(sorted(store.triples_ids()), structural)
        return {node: (tuple(steps), tuple(nbrs)) for node, (steps, nbrs) in rows.items()}

    def test_every_build_path_equals_the_builder(self, stores):
        store, dirty, stale, _ = stores
        expected = self.built(store)
        assert AdjacencyKernel(store).full_rows() == expected
        assert AdjacencyKernel(store.compacted()).full_rows() == expected
        assert AdjacencyKernel(store.sharded(8)).full_rows() == expected

        expected_dirty = self.built(dirty)
        assert expected_dirty != expected
        assert AdjacencyKernel(dirty).full_rows() == expected_dirty
        assert AdjacencyKernel(dirty, patch_from=stale).full_rows() == expected_dirty

    def test_self_loop_and_structural_only_subject(self, stores):
        store, dirty, _, e = stores
        rows = self.built(store)
        loop, far, typed_only = (store.dictionary.lookup(e(n)) for n in ("loop", "far", "typed_only"))
        rel = store.dictionary.lookup(e("rel")) + 1
        # Visiting `loop`: objects ascending (loop < far by id), the
        # self-loop's forward entry immediately followed by its backward one.
        assert rows[loop] == ((rel, -rel, rel), (loop, loop, far))
        # A subject with only structural out-edges has a row only because
        # it is someone's object; its own triples contribute nothing.
        assert rows[typed_only] == ((-rel,), (far,))
        assert AdjacencyKernel(dirty).full_rows()[typed_only] == ((-rel,), (far,))
