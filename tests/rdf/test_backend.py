"""Backend equivalence: DictBackend and CompactBackend answer identically.

The compact backend is a frozen, sorted-column re-encoding of the same
index; every id-level read — all eight triple-pattern shapes, counts,
adjacency rows, distinct-id streams — must return exactly what the dict
backend returns, or query results would depend on how the store was
loaded.  The walk itself is ``store_checks.assert_matches_model``, shared
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
    DictBackend,
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
    """(dict-backed store, compact re-encoding of the same store)."""
    store = TripleStore()
    store.add_all(TRIPLES)
    return store, store.compacted()


class TestProtocolSurface:
    def test_sixteen_core_members_and_no_backend_carries_a_derived_view(self):
        core = {
            name for name in vars(StoreBackend)
            if name == "__len__" or not name.startswith("_")
        }
        assert len(core) == 16
        frozen = CompactBackend.from_triples([(1, 2, 3)])
        for backend in (
            DictBackend(),
            frozen,
            ShardedBackend.from_triples([(1, 2, 3)], shards=2),
            OverlayBackend(frozen),
        ):
            assert isinstance(backend, StoreBackend)
            assert all(hasattr(backend, name) for name in core)
            # Derived once in the facade / the kernel, implemented nowhere else.
            assert not hasattr(backend, "objects_of_predicate")
            assert not hasattr(backend, "iter_out_rows")


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


class TestDictBulkInsert:
    """``DictBackend.add_all_ids`` is a loop of ``add``, written as one."""

    BATCH = [
        (1, 2, 3), (1, 2, 4), (1, 2, 3),  # a duplicate inside the batch
        (3, 2, 1), (1, 5, 3), (3, 2, 1), (4, 2, 3), (1, 2, 3),
    ]

    def _permutations(self, backend):
        return [
            {outer: {inner: set(leaf) for inner, leaf in row.items()} for outer, row in index.items()}
            for index in (backend._spo, backend._pos, backend._osp)
        ]

    def test_equals_a_loop_of_add(self):
        bulk, single = DictBackend(), DictBackend()
        for backend in (bulk, single):  # and duplicates of what is already there
            backend.add(4, 2, 3)
            backend.add(9, 9, 9)
        added = bulk.add_all_ids(iter(self.BATCH))
        assert added == sum(single.add(*triple) for triple in self.BATCH) == 4
        assert len(bulk) == len(single) == 6
        assert bulk.version == single.version == 6
        assert self._permutations(bulk) == self._permutations(single)
        # Same key order too: scans of a dict store follow insertion order.
        assert list(bulk.triples_ids()) == list(single.triples_ids())
        assert list(bulk.triples_ids(p=2)) == list(single.triples_ids(p=2))
        assert list(bulk.triples_ids(o=3)) == list(single.triples_ids(o=3))

    def test_a_batch_that_fails_midway_keeps_size_and_version_in_step(self):
        def batch():
            yield (1, 2, 3)
            yield (1, 2, 4)
            raise KeyError("source ran dry")

        backend = DictBackend()
        with pytest.raises(KeyError):
            backend.add_all_ids(batch())
        assert len(backend) == backend.version == 2
        assert sorted(backend.triples_ids()) == [(1, 2, 3), (1, 2, 4)]


class TestFrozen:
    def test_compact_backend_rejects_mutation(self):
        compact = CompactBackend.from_triples([(1, 2, 3)])
        with pytest.raises(StoreFrozenError):
            compact.add(4, 5, 6)
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
