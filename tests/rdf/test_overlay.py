"""Overlay backend tests: merge equivalence, mutation semantics, kernel
patching, compaction, and answer identity.

The contract under test: an :class:`OverlayBackend` (frozen base + delta
adds + tombstones) is observably identical to the plain set of merged
triples (the shared ``store_checks`` walk) — at delta size 0, 1, and
1000, over compact and sharded bases, through randomized interleavings of
adds, removes, and re-adds of tombstoned triples.  The state machine in
``test_store_machine.py`` covers the same ground on tiny graphs after
every step; these are the large pinned streams.  On top of that: per-triple
version monotonicity (including the bulk path), incremental kernel rows
byte-identical to a cold rebuild with untouched rows reused *by
reference*, and full-QALD answer identity across dict / overlay /
post-compaction engines.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import GAnswer
from repro.datasets import build_dbpedia_mini, build_phrase_dataset, qald_questions
from repro.exceptions import StoreFrozenError
from repro.paraphrase import ParaphraseMiner
from repro.rdf import IRI, Literal, Triple
from repro.rdf.backend import CompactBackend
from repro.rdf.graph import KnowledgeGraph
from repro.rdf.kernel import AdjacencyKernel, KernelRows
from repro.rdf.overlay import OverlayBackend
from repro.rdf.shard import ShardedBackend
from repro.rdf.store import TripleStore
from tests.rdf.store_checks import assert_matches_model

DELTA_SIZES = (0, 1, 1000)


def random_triples(rng, count, subjects=200, predicates=9, objects=260):
    seen = set()
    while len(seen) < count:
        seen.add((
            rng.randrange(subjects),
            1000 + rng.randrange(predicates),
            2000 + rng.randrange(objects),
        ))
    return sorted(seen)


def assert_observably_identical(overlay, triples):
    """The shared model walk, over a bare backend and a set of id triples."""
    assert_matches_model(TripleStore(backend=overlay), set(triples), cap=12)


def frozen_base(triples, sharded=False):
    if sharded:
        return ShardedBackend.from_triples(triples, shards=4)
    return CompactBackend.from_triples(triples)


class TestMergeEquivalence:
    """Randomized adds/removes/re-adds vs a plain-set mirror."""

    @pytest.mark.parametrize("delta", DELTA_SIZES)
    @pytest.mark.parametrize("sharded", (False, True), ids=("compact", "sharded"))
    def test_equivalent_to_rebuilt_dict_backend(self, delta, sharded):
        rng = random.Random(1234 + delta)
        base_triples = random_triples(rng, 1500)
        overlay = OverlayBackend(frozen_base(base_triples, sharded))
        mirror = set(base_triples)

        mutations = 0
        while mutations < delta:
            roll = rng.random()
            if roll < 0.55:  # fresh add (may collide with base: no-op)
                triple = (
                    rng.randrange(240),
                    1000 + rng.randrange(11),
                    2000 + rng.randrange(300),
                )
                if overlay.add_all_ids([triple]):
                    assert triple not in mirror
                    mirror.add(triple)
                    mutations += 1
                else:
                    assert triple in mirror
            elif roll < 0.85 and mirror:  # remove (base → tombstone)
                triple = rng.choice(sorted(mirror))
                assert overlay.remove(*triple)
                mirror.discard(triple)
                mutations += 1
            else:  # re-add a tombstoned base triple
                tombstoned = [t for t in base_triples if t not in mirror]
                if not tombstoned:
                    continue
                triple = rng.choice(tombstoned)
                assert overlay.add_all_ids([triple])
                mirror.add(triple)
                mutations += 1

        stats = overlay.delta_statistics()
        assert stats["base_triples"] == len(base_triples)
        assert len(overlay) == len(mirror)
        assert_observably_identical(overlay, mirror)

    def test_zero_delta_reads_pass_through(self):
        base_triples = random_triples(random.Random(7), 300)
        base = frozen_base(base_triples)
        overlay = OverlayBackend(base)
        assert list(overlay.triples_ids()) == list(base.triples_ids())
        assert overlay.delta_statistics() == {
            "base_triples": 300, "delta_adds": 0, "tombstones": 0,
        }
        # Zero-delta index reads pass straight through to the base.
        s = base_triples[0][0]
        assert overlay.out_index(s) == base.out_index(s)


class TestMutationSemantics:
    def setup_method(self):
        self.base_triples = [(1, 10, 2), (1, 10, 3), (2, 11, 4)]
        self.overlay = OverlayBackend(CompactBackend.from_triples(self.base_triples))

    def test_requires_frozen_base(self):
        writable = OverlayBackend(CompactBackend.from_triples(()))
        with pytest.raises(ValueError):
            OverlayBackend(writable)

    def test_add_existing_base_triple_is_noop(self):
        version = self.overlay.version
        assert self.overlay.add_all_ids([(1, 10, 2)]) == 0
        assert self.overlay.version == version
        assert len(self.overlay) == 3

    def test_remove_then_readd_clears_tombstone(self):
        assert self.overlay.remove(1, 10, 2)
        assert not self.overlay.contains(1, 10, 2)
        assert self.overlay.delta_statistics()["tombstones"] == 1
        assert self.overlay.add_all_ids([(1, 10, 2)])
        assert self.overlay.contains(1, 10, 2)
        # Re-add resurrects the base triple: no delta entry remains.
        assert self.overlay.delta_statistics() == {
            "base_triples": 3, "delta_adds": 0, "tombstones": 0,
        }

    def test_remove_delta_triple_drops_it(self):
        assert self.overlay.add_all_ids([(5, 12, 6)])
        assert self.overlay.remove(5, 12, 6)
        assert self.overlay.delta_statistics() == {
            "base_triples": 3, "delta_adds": 0, "tombstones": 0,
        }
        assert not self.overlay.contains(5, 12, 6)

    def test_remove_absent_triple_is_noop(self):
        version = self.overlay.version
        assert not self.overlay.remove(9, 9, 9)
        assert self.overlay.remove(1, 10, 2)
        assert not self.overlay.remove(1, 10, 2)  # double remove
        assert self.overlay.version == version + 1

    def test_version_bumps_once_per_successful_mutation(self):
        v0 = self.overlay.version
        assert self.overlay.add_all_ids([(7, 13, 8)])
        assert self.overlay.version == v0 + 1
        assert self.overlay.remove(7, 13, 8)
        assert self.overlay.version == v0 + 2

    def test_add_all_ids_is_per_triple_monotone(self):
        v0 = self.overlay.version
        batch = [(5, 12, 6), (5, 12, 7), (1, 10, 2), (5, 12, 6)]
        # Two fresh triples; one base duplicate and one batch duplicate.
        assert self.overlay.add_all_ids(batch) == 2
        assert self.overlay.version == v0 + 2

    def test_frozen_base_is_never_mutated(self):
        base = self.overlay.base
        before = sorted(base.triples_ids())
        self.overlay.add_all_ids([(5, 12, 6)])
        self.overlay.remove(1, 10, 2)
        self.overlay.add_all_ids([(8, 14, 9)])
        assert sorted(base.triples_ids()) == before
        assert len(base) == 3
        with pytest.raises(StoreFrozenError):
            base.add_all_ids([(99, 99, 99)])

    def test_touched_since_reports_dirty_nodes(self):
        v0 = self.overlay.version
        self.overlay.add_all_ids([(5, 12, 6)])
        v1 = self.overlay.version
        self.overlay.remove(1, 10, 2)
        assert self.overlay.touched_since(v0) == {5, 6, 1, 2}
        assert self.overlay.touched_since(v1) == {1, 2}
        assert self.overlay.touched_since(self.overlay.version) == set()


_SMALL_TRIPLE = st.tuples(
    st.integers(0, 5), st.integers(10, 12), st.integers(0, 5)
)
_OPERATION = st.one_of(
    st.tuples(st.just("add"), st.lists(_SMALL_TRIPLE, min_size=1, max_size=4)),
    st.tuples(st.just("remove"), _SMALL_TRIPLE),
    st.tuples(st.just("compact"), st.none()),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(_SMALL_TRIPLE, max_size=6), st.lists(_OPERATION, max_size=25))
def test_touched_since_is_the_last_touch_per_node(base_triples, operations):
    """``touched_since`` reads a log of mutations; it must return what a
    per-node "last version that touched it" map would — the set
    comprehension it replaced — for every version the overlay has held,
    across compactions (which start a fresh overlay over the folded base
    at the same version)."""
    overlay = OverlayBackend(CompactBackend.from_triples(sorted(set(base_triples))))
    last_touch: dict[int, int] = {}
    for kind, argument in operations:
        if kind == "compact":
            overlay = OverlayBackend(
                CompactBackend.from_triples(
                    sorted(overlay.triples_ids()), version=overlay.version
                )
            )
            last_touch = {}
        else:
            triples = argument if kind == "add" else [argument]
            for triple in triples:
                before = overlay.version
                if kind == "add":
                    overlay.add_all_ids([triple])
                else:
                    overlay.remove(*triple)
                if overlay.version != before:
                    last_touch[triple[0]] = last_touch[triple[2]] = overlay.version
        for version in range(overlay.base.version - 1, overlay.version + 1):
            assert overlay.touched_since(version) == {
                node for node, touched in last_touch.items() if touched > version
            }


@pytest.fixture(scope="module")
def setup():
    kg = build_dbpedia_mini()
    dictionary = ParaphraseMiner(kg, max_path_length=4, top_k=3).mine(
        build_phrase_dataset()
    )
    return kg, dictionary


class TestStoreIntegration:
    def test_overlay_store_shares_dictionary_and_version(self, setup):
        kg, _ = setup
        overlay = kg.store.compacted().overlay()
        assert overlay.writable
        assert overlay.version == kg.store.version
        assert len(overlay) == len(kg.store)
        assert overlay.dictionary is kg.store.dictionary

    def test_overlay_requires_frozen_backend(self, setup):
        kg, _ = setup
        with pytest.raises(ValueError):
            kg.store.overlay().overlay()  # an overlay is not frozen

    def test_literal_bookkeeping_follows_delta(self, setup):
        kg, _ = setup
        store = kg.store.compacted().overlay()
        triple = Triple(
            IRI("bench:s"), IRI("bench:p"), Literal("fresh value", language="en")
        )
        assert store.add(triple)
        oid = store.dictionary.lookup(triple.object)
        assert store.is_literal_id(oid)
        assert store.remove(triple)
        assert not store.is_literal_id(oid)

    def test_bulk_add_all_matches_serial_adds(self, setup):
        kg, _ = setup
        bulk = kg.store.compacted().overlay()
        serial = kg.store.compacted().overlay()
        triples = [
            Triple(IRI(f"bench:e{i % 5}"), IRI("bench:rel"), IRI(f"bench:e{i}"))
            for i in range(30)
        ] * 2  # duplicates: bulk must dedupe exactly like serial adds
        added = bulk.add_all(triples)
        assert added == sum(1 for t in triples if serial.add(t))
        assert bulk.version == serial.version
        assert sorted(bulk.triples_ids()) == sorted(serial.triples_ids())


class TestKernelPatch:
    """Incremental rows byte-identical; untouched rows reused by reference."""

    def _overlay_kg(self, setup):
        kg, _ = setup
        return KnowledgeGraph(kg.store.compacted().overlay())

    def test_patched_rows_byte_identical_to_cold_rebuild(self, setup):
        kg = self._overlay_kg(setup)
        store = kg.store
        old = AdjacencyKernel(store)
        store.add(Triple(IRI("res:Berlin"), IRI("bench:rel"), IRI("bench:new")))
        store.remove(
            Triple(IRI("res:Berlin"), IRI("ont:mayor"), IRI("res:Klaus_Wowereit"))
        )
        patched = AdjacencyKernel(store, patch_from=old)
        cold = AdjacencyKernel(store)
        assert patched.full_rows() == cold.full_rows()
        for node, row in cold.full_rows().items():
            assert patched.full_rows()[node] == row

    def test_untouched_rows_reused_by_reference(self, setup):
        kg = self._overlay_kg(setup)
        store = kg.store
        old = AdjacencyKernel(store)
        store.add(Triple(IRI("res:Berlin"), IRI("bench:rel"), IRI("bench:new")))
        dirty = store.backend.touched_since(old.store_version)
        patched = AdjacencyKernel(store, patch_from=old)
        old_rows, new_rows = old.full_rows(), patched.full_rows()
        reused = [n for n in old_rows if n not in dirty and n in new_rows]
        assert reused
        for node in reused:
            assert new_rows[node] is old_rows[node]

    def test_patch_over_successive_batches(self, setup):
        kg = self._overlay_kg(setup)
        store = kg.store
        kernel = AdjacencyKernel(store)
        rng = random.Random(99)
        for batch in range(4):
            store.add_all([
                Triple(
                    IRI(f"bench:b{batch}/e{rng.randrange(6)}"),
                    IRI("bench:rel"),
                    IRI(f"bench:b{batch}/e{rng.randrange(6)}"),
                )
                for _ in range(8)
            ])
            kernel = AdjacencyKernel(store, patch_from=kernel)
            assert kernel.full_rows() == AdjacencyKernel(store).full_rows()

    def test_patched_kernel_keeps_its_step_directory_and_signatures(
        self, setup, monkeypatch
    ):
        """The memos live with the rows: a patched kernel takes the
        root's, repairs the directory for the dirty nodes only — no second
        scan — and answers like a cold build for every step and node,
        across adds, removals that empty a row, and re-adds."""
        kg = self._overlay_kg(setup)
        store = kg.store
        kernel = AdjacencyKernel(store)
        kernel.nodes_with_step(1)  # built once, by the one scan
        root = kernel.full_rows()
        root_directory = root.directory()
        known = set(root)
        for node in known:
            kernel.incident_steps(node)
        rng = random.Random(7)
        live: list[Triple] = [
            t for t in store.triples() if t.predicate == IRI("ont:mayor")
        ]
        for batch in range(12):
            if batch % 3 == 2:
                for triple in rng.sample(live, min(3, len(live))):
                    live.remove(triple)
                    store.remove(triple)
            else:
                adds = [
                    Triple(
                        IRI(f"bench:e{rng.randrange(8)}"),
                        IRI(rng.choice(["bench:rel", "ont:mayor", "ont:spouse"])),
                        rng.choice([IRI(f"bench:e{rng.randrange(8)}"), IRI("res:Berlin")]),
                    )
                    for _ in range(5)
                ]
                store.add_all(adds)
                live.extend(adds)
            kernel = AdjacencyKernel(store, patch_from=kernel)
            cold = AdjacencyKernel(store)
            assert kernel.full_rows() == cold.full_rows()
            known |= set(cold.full_rows())
            steps = {step for _n, row, _nb in cold.full_rows().scan() for step in row}
            # Derived from the root's directory and the dirty rows: the
            # patched kernel reads no row it did not rebuild.
            with monkeypatch.context() as patch:
                patch.setattr(KernelRows, "scan", None)
                patched_directory = kernel.full_rows().directory()
            assert root.directory() is root_directory
            assert patched_directory == cold.full_rows().directory()
            for step in steps | {-step for step in steps} | {10**6}:
                assert kernel.nodes_with_step(step) == cold.nodes_with_step(step)
            for node in known:
                assert kernel.incident_steps(node) == cold.incident_steps(node)
            # An undirtied row's signature is the root's own object.
            clean = next(n for n in root if n not in kernel.full_rows()._dirty)
            assert kernel.incident_steps(clean) is root.signature(clean)

    def test_refresh_incremental_matches_cold(self, setup):
        kg = self._overlay_kg(setup)
        before = kg.kernel.full_rows()
        kg.store.add(Triple(IRI("res:Berlin"), IRI("bench:rel"), IRI("bench:x")))
        kg.refresh(incremental=True)
        assert kg.kernel.full_rows() == AdjacencyKernel(kg.store).full_rows()
        assert kg.kernel.full_rows() != before


class TestCompaction:
    def test_recompacted_base_equivalent_and_version_preserved(self):
        rng = random.Random(42)
        base_triples = random_triples(rng, 800)
        overlay = OverlayBackend(frozen_base(base_triples))
        for triple in random_triples(rng, 120, subjects=40):
            overlay.add_all_ids([triple])
        for triple in base_triples[::13]:
            overlay.remove(*triple)
        merged = sorted(overlay.triples_ids())
        compacted = CompactBackend.from_triples(merged, version=overlay.version)
        fresh = OverlayBackend(compacted)
        assert fresh.version == overlay.version
        assert len(fresh) == len(overlay)
        assert fresh.delta_statistics()["delta_adds"] == 0
        assert_observably_identical(fresh, merged)

    def test_sharded_recompaction_equivalent(self):
        rng = random.Random(43)
        base_triples = random_triples(rng, 500)
        overlay = OverlayBackend(frozen_base(base_triples))
        for triple in random_triples(rng, 60, subjects=30):
            overlay.add_all_ids([triple])
        merged = sorted(overlay.triples_ids())
        sharded = ShardedBackend.from_triples(
            merged, shards=4, version=overlay.version
        )
        assert sharded.version == overlay.version
        assert_observably_identical(OverlayBackend(sharded), merged)


class TestAnswerIdentity:
    def test_qald_answers_identical_dict_overlay_postcompaction(self, setup):
        """The acceptance bar: the built store, zero-delta overlay, dirty
        overlay (bench-namespace churn), and re-compacted engines answer
        the full QALD set byte-identically."""
        kg, dictionary = setup
        overlay_store = kg.store.compacted().overlay()

        dirty_store = kg.store.compacted().overlay()
        churn = [
            Triple(IRI(f"bench:c{i}"), IRI("bench:rel"), IRI(f"bench:c{i + 1}"))
            for i in range(40)
        ]
        assert dirty_store.add_all(churn) == 40
        for triple in churn:
            assert dirty_store.remove(triple)

        recompacted = TripleStore(
            backend=OverlayBackend(
                CompactBackend.from_triples(
                    dirty_store.backend.triples_ids(),
                    version=dirty_store.version,
                )
            ),
            dictionary=dirty_store.dictionary,
            literal_flags=dirty_store.literal_flags,
        )
        engines = [
            GAnswer(kg, dictionary),
            GAnswer(KnowledgeGraph(overlay_store), dictionary),
            GAnswer(KnowledgeGraph(dirty_store), dictionary),
            GAnswer(KnowledgeGraph(recompacted), dictionary),
        ]
        for question in qald_questions():
            results = [engine.answer(question.text) for engine in engines]
            expected = ([str(t) for t in results[0].answers], results[0].boolean)
            for result in results[1:]:
                assert ([str(t) for t in result.answers], result.boolean) == (
                    expected
                ), question.text
