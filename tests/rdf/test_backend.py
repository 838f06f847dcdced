"""Backend equivalence: a writable store and its compaction answer identically.

A ``TripleStore()`` is an overlay over an empty compact base; the compact
backend is a frozen, sorted-column re-encoding of the same triples.  Every
id-level read — all eight triple-pattern shapes, counts, adjacency rows,
distinct-id streams — must return exactly what the writable store returns,
or query results would depend on how the store was loaded.  The walk itself is ``store_checks.assert_matches_model``, shared
with the random state machine (``test_store_machine.py``); this file pins
it on one readable fixture and keeps the frozen-store contract tests.
"""

import re
from pathlib import Path

import pytest

import repro
from repro.exceptions import StoreFrozenError
from repro.rdf import (
    IRI,
    CompactBackend,
    Literal,
    OverlayBackend,
    ShardedBackend,
    StoreBackend,
    Triple,
    TripleStore,
)
from tests.rdf.store_checks import assert_matches_model


def t(s, p, o):
    obj = o if isinstance(o, Literal) else IRI(o)
    return Triple(IRI(s), IRI(p), obj)


TRIPLES = [
    t("ex:banderas", "ex:spouse", "ex:griffith"),
    t("ex:banderas", "ex:starring", "ex:philadelphia_film"),
    t("ex:banderas", "ex:type", "ex:Actor"),
    t("ex:hanks", "ex:starring", "ex:philadelphia_film"),
    t("ex:hanks", "ex:type", "ex:Actor"),
    t("ex:banderas", "ex:height", Literal("1.74")),
    t("ex:griffith", "ex:spouse", "ex:banderas"),
]


@pytest.fixture
def pair():
    """(writable store, compact re-encoding of the same store)."""
    store = TripleStore()
    store.add_all(TRIPLES)
    return store, store.compacted()


DERIVED_VIEWS = (
    "objects_ids", "subjects_ids", "out_index", "in_index",
    "objects_of_predicate", "iter_out_rows",
)


class TestProtocolSurface:
    def test_eleven_core_members_and_no_backend_carries_a_derived_view(self):
        core = {
            name for name in vars(StoreBackend)
            if name == "__len__" or not name.startswith("_")
        }
        assert len(core) == 11
        frozen = CompactBackend.from_triples([(1, 2, 3)])
        backends = (
            frozen,
            ShardedBackend.from_triples([(1, 2, 3)], shards=2),
            OverlayBackend(frozen),
        )
        for backend in backends:
            assert isinstance(backend, StoreBackend)
            assert all(hasattr(backend, name) for name in core)
        # Derived once in the facade / the kernel, implemented nowhere else
        # (the overlay's delta index included).
        for layout in (*backends, backends[-1]._adds):
            assert [name for name in DERIVED_VIEWS if hasattr(layout, name)] == [], layout
        assert not hasattr(TripleStore, "in_index")

    def test_layout_modules_are_imported_only_inside_repro_rdf(self):
        # backend.py's docstring: everyone else goes through the facade,
        # which is also the one place a store is frozen/sharded/overlaid.
        source = Path(repro.__file__).parent
        layout_import = re.compile(
            r"^\s*(from|import)\s+repro\.rdf\.(backend|shard|overlay)\b", re.MULTILINE
        )
        offenders = [
            str(path.relative_to(source))
            for path in source.rglob("*.py")
            if path.parent != source / "rdf"
            and layout_import.search(path.read_text(encoding="utf-8"))
        ]
        assert offenders == []


class TestEquivalence:
    def test_fixture_store(self, pair):
        store, compact = pair
        model = set(store.triples_ids())
        assert len(model) == len(TRIPLES)
        assert_matches_model(store, model)
        assert_matches_model(compact, model)

    def test_objects_of_predicate(self, pair):
        store, compact = pair
        spouse = store.dictionary.lookup(IRI("ex:spouse"))
        expected = {store.dictionary.lookup(IRI(f"ex:{name}")) for name in ("griffith", "banderas")}
        for layout in (store, compact):
            derived = list(layout.objects_of_predicate(spouse))
            assert set(derived) == expected and len(derived) == 2

    def test_from_triples_dedups(self):
        compact = CompactBackend.from_triples([(1, 2, 3), (1, 2, 3), (0, 2, 3)])
        assert len(compact) == 2


class TestOverlayBulkInsert:
    """``OverlayBackend.add_all_ids`` publishes a batch at once and lands
    where a loop of one-triple batches would."""

    BATCH = [
        (1, 2, 3), (1, 2, 4), (1, 2, 3),  # a duplicate inside the batch
        (3, 2, 1), (1, 5, 3), (3, 2, 1), (4, 2, 3), (1, 2, 3),
        (7, 7, 7), (7, 7, 7),  # a tombstoned base triple, revived once
    ]

    @staticmethod
    def _overlay():
        overlay = OverlayBackend(CompactBackend.from_triples([(4, 2, 3), (9, 9, 9), (7, 7, 7)]))
        assert overlay.remove(7, 7, 7)
        return overlay

    @staticmethod
    def _permutations(backend):
        delta = backend._adds
        return [dict(index) for index in (delta._spo, delta._pos, delta._osp)]

    def test_equals_a_loop_of_single_triple_batches(self):
        bulk, single = self._overlay(), self._overlay()
        added = bulk.add_all_ids(iter(self.BATCH))
        assert added == sum(single.add_all_ids([triple]) for triple in self.BATCH) == 5
        assert len(bulk) == len(single) == 7
        assert bulk.version == single.version == 6
        assert bulk.delta_statistics() == single.delta_statistics() == {
            "base_triples": 3, "delta_adds": 4, "tombstones": 0,
        }
        assert self._permutations(bulk) == self._permutations(single)
        # Same key order too, and the touched log in input order.
        assert list(bulk.triples_ids()) == list(single.triples_ids())
        assert list(bulk.triples_ids(p=2)) == list(single.triples_ids(p=2))
        assert list(bulk.triples_ids(o=3)) == list(single.triples_ids(o=3))
        assert bulk._touched == single._touched
        for version in range(0, 7):
            assert bulk.touched_since(version) == single.touched_since(version)

    def test_a_batch_that_fails_midway_changes_nothing(self):
        def batch():
            yield (1, 2, 3)
            yield (1, 2, 4)
            raise KeyError("source ran dry")

        backend = OverlayBackend(CompactBackend.from_triples([(4, 2, 3)], version=1))
        with pytest.raises(KeyError):
            backend.add_all_ids(batch())
        assert len(backend) == backend.version == 1
        assert backend.touched_since(0) == set()
        assert sorted(backend.triples_ids()) == [(4, 2, 3)]

    def test_a_held_row_is_never_edited(self):
        store = TripleStore()
        backend = store.backend
        backend.add_all_ids([(1, 2, 3), (1, 5, 3)])
        row, objects = backend.triples_ids(s=1), store.objects_ids(1, 2)
        first = next(row)
        backend.add_all_ids([(1, 2, 4), (1, 6, 3)])
        backend.remove(1, 5, 3)
        assert [first, *row] == [(1, 2, 3), (1, 5, 3)] and objects == {3}
        assert store.out_index(1) == {2: {3, 4}, 6: {3}}


class TestFrozen:
    def test_compact_backend_rejects_mutation(self):
        compact = CompactBackend.from_triples([(1, 2, 3)])
        with pytest.raises(StoreFrozenError):
            compact.add_all_ids([(4, 5, 6)])
        with pytest.raises(StoreFrozenError):
            compact.remove(1, 2, 3)

    def test_compacted_store_rejects_mutation(self, pair):
        _, compact = pair
        assert not compact.writable
        with pytest.raises(StoreFrozenError):
            compact.add(t("ex:new", "ex:p", "ex:o"))
        with pytest.raises(StoreFrozenError):
            compact.remove(TRIPLES[0])

    def test_frozen_add_does_not_grow_shared_dictionary(self, pair):
        store, compact = pair
        size_before = len(store.dictionary)
        with pytest.raises(StoreFrozenError):
            compact.add(t("ex:unseen", "ex:unseen_p", "ex:unseen_o"))
        assert len(store.dictionary) == size_before

    def test_version_carried_forward(self, pair):
        store, compact = pair
        assert compact.version == store.version


class TestCompactedStore:
    def test_term_level_queries_match(self, pair):
        store, compact = pair
        assert set(compact.triples()) == set(store.triples())
        assert set(compact.triples(subject=IRI("ex:banderas"))) == set(
            store.triples(subject=IRI("ex:banderas"))
        )
        assert compact.statistics() == store.statistics()

    def test_shares_term_ids(self, pair):
        store, compact = pair
        assert compact.dictionary is store.dictionary

    def test_literals_survive(self, pair):
        store, compact = pair
        assert sorted(compact.iter_literal_ids()) == sorted(store.iter_literal_ids())
