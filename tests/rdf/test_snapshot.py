"""Compiled snapshot tests: id stability, integrity, and answer equivalence.

A snapshot is only useful if loading it is indistinguishable from
rebuilding everything from source — same term ids, same kernel rows,
same linker candidates, same QALD answers — and only safe if corruption
is detected rather than silently served.
"""

import pytest

from repro.core import GAnswer
from repro.datasets import build_dbpedia_mini, build_phrase_dataset, qald_questions
from repro.exceptions import SnapshotError, StoreFrozenError
from repro.paraphrase import ParaphraseMiner
from repro.rdf import IRI, Triple
from repro.rdf.kernel import AdjacencyKernel
from repro.rdf.snapshot import compile_snapshot, load_snapshot

_HEADER_BYTES = 15  # magic(10) + format version u32 + byteorder u8
_DIGEST_BYTES = 32


@pytest.fixture(scope="module")
def setup():
    kg = build_dbpedia_mini()
    dictionary = ParaphraseMiner(kg, max_path_length=4, top_k=3).mine(
        build_phrase_dataset()
    )
    return kg, dictionary


@pytest.fixture(scope="module")
def snapshot(setup, tmp_path_factory):
    kg, dictionary = setup
    path = tmp_path_factory.mktemp("snap") / "graph.snap"
    info = compile_snapshot(path, kg, dictionary)
    return path, info


@pytest.fixture(scope="module")
def loaded(snapshot):
    path, _ = snapshot
    return load_snapshot(path)


class TestRoundTrip:
    def test_info_counts(self, setup, snapshot):
        kg, dictionary = setup
        _, info = snapshot
        assert info.triples == len(kg.store)
        assert info.terms == len(kg.store.dictionary)
        assert info.phrases == len(dictionary)

    def test_term_ids_frozen(self, setup, loaded):
        kg, _ = setup
        assert (
            loaded.kg.store.dictionary.terms_in_id_order()
            == kg.store.dictionary.terms_in_id_order()
        )

    def test_triples_identical(self, setup, loaded):
        kg, _ = setup
        assert sorted(loaded.kg.store.triples_ids()) == sorted(
            kg.store.triples_ids()
        )
        assert set(loaded.kg.store.triples()) == set(kg.store.triples())

    def test_literal_ids_identical(self, setup, loaded):
        kg, _ = setup
        assert sorted(loaded.kg.store.iter_literal_ids()) == sorted(
            kg.store.iter_literal_ids()
        )

    def test_loaded_store_is_frozen(self, loaded):
        with pytest.raises(StoreFrozenError):
            loaded.kg.store.add(Triple(IRI("ex:a"), IRI("ex:b"), IRI("ex:c")))

    def test_store_version_preserved(self, setup, loaded):
        kg, _ = setup
        assert loaded.kg.store.version == kg.store.version

    def test_dictionary_round_trips_by_id(self, setup, loaded):
        _, dictionary = setup
        assert set(loaded.dictionary.phrases()) == set(dictionary.phrases())
        for phrase in dictionary.phrases():
            original = [
                (m.path, m.confidence) for m in dictionary.lookup(phrase)
            ]
            restored = [
                (m.path, m.confidence) for m in loaded.dictionary.lookup(phrase)
            ]
            assert restored == original


class TestKernelEquivalence:
    def test_prebuilt_rows_match_fresh_build(self, setup, loaded):
        kg, _ = setup
        assert loaded.kg.kernel.full_rows() == kg.kernel.full_rows()

    def test_compact_build_matches_dict_build(self, setup):
        """Building the kernel *from* a compact store (no prebuilt rows)
        must give the same rows as building from the dict store — the
        canonical build order makes iteration order irrelevant."""
        kg, _ = setup
        dict_kernel = AdjacencyKernel(kg.store)
        compact_kernel = AdjacencyKernel(kg.store.compacted())
        assert compact_kernel.full_rows() == dict_kernel.full_rows()

    def test_closures_preserved(self, setup, loaded):
        kg, _ = setup
        for class_id in kg.class_ids:
            assert loaded.kg.superclasses_of(class_id) == kg.superclasses_of(class_id)
            assert loaded.kg.subclasses_of(class_id) == kg.subclasses_of(class_id)

    def test_class_ids_preserved(self, setup, loaded):
        kg, _ = setup
        assert loaded.kg.class_ids == kg.class_ids


class TestLinkerEquivalence:
    def test_compiled_linker_matches_fresh(self, setup, loaded):
        from repro.linking import EntityLinker

        kg, _ = setup
        fresh = EntityLinker(kg)
        compiled = loaded.build_linker()
        assert compiled.max_degree == fresh.max_degree
        for phrase in ("Philadelphia", "actor", "Margaret Thatcher", "films"):
            assert [
                (c.node_id, c.label, c.score, c.is_class)
                for c in compiled.link(phrase)
            ] == [
                (c.node_id, c.label, c.score, c.is_class)
                for c in fresh.link(phrase)
            ]


class TestAnswerEquivalence:
    def test_qald_answers_identical(self, setup, loaded):
        """The acceptance bar: a snapshot-loaded engine gives byte-identical
        answers to the from-source engine on the full QALD set."""
        kg, dictionary = setup
        original = GAnswer(kg, dictionary)
        restored = GAnswer(loaded.kg, loaded.dictionary, linker=loaded.build_linker())
        for question in qald_questions():
            a = original.answer(question.text)
            b = restored.answer(question.text)
            assert ([str(t) for t in b.answers], b.boolean) == (
                [str(t) for t in a.answers], a.boolean
            ), question.text

    def test_engine_from_snapshot(self, snapshot):
        from repro.serve import QAEngine

        path, _ = snapshot
        engine = QAEngine.from_snapshot(path)
        try:
            result = engine.answer("Who is the mayor of Berlin?")
            assert result.processed
            assert result.answers
        finally:
            engine.close()


class TestMmapLoading:
    """The zero-copy path: mmap-backed columns, equivalence with copy mode."""

    @pytest.fixture(scope="class")
    def copied(self, snapshot):
        path, _ = snapshot
        return load_snapshot(path, mode="copy")

    def test_mmap_columns_are_borrowed_views(self, loaded):
        """The acceptance bar for zero-copy: every permutation column of an
        mmap-loaded backend is a memoryview over the file mapping — no
        ``frombytes`` copy anywhere on the triple-index path."""
        columns = loaded.kg.store.backend.permutation_columns()
        for name, triple in columns.items():
            for column in triple:
                assert isinstance(column, memoryview), name
                assert column.format == "q"

    def test_copy_columns_are_owned_arrays(self, copied):
        from array import array

        columns = copied.kg.store.backend.permutation_columns()
        for name, triple in columns.items():
            for column in triple:
                assert isinstance(column, array), name

    def test_mapping_held_by_state(self, loaded, copied):
        # The mmap must stay alive as long as the state (the views borrow
        # from it); the copying path has nothing to hold.
        assert loaded.mapping is not None
        assert not loaded.mapping.closed
        assert copied.mapping is None

    def test_modes_see_identical_triples(self, loaded, copied):
        assert sorted(loaded.kg.store.triples_ids()) == sorted(
            copied.kg.store.triples_ids()
        )
        assert loaded.kg.kernel.full_rows() == copied.kg.kernel.full_rows()

    def test_unknown_mode_rejected(self, snapshot):
        path, _ = snapshot
        with pytest.raises(ValueError, match="mode"):
            load_snapshot(path, mode="chaotic")

    def test_qald_answers_identical_mmap_vs_copy(self, loaded, copied):
        """Byte-identical answers over the full QALD set whether the triple
        index is borrowed from the page cache or owned by the process."""
        over_mmap = GAnswer(
            loaded.kg, loaded.dictionary, linker=loaded.build_linker()
        )
        over_copy = GAnswer(
            copied.kg, copied.dictionary, linker=copied.build_linker()
        )
        for question in qald_questions():
            a = over_mmap.answer(question.text)
            b = over_copy.answer(question.text)
            assert ([str(t) for t in a.answers], a.boolean) == (
                [str(t) for t in b.answers], b.boolean
            ), question.text


class TestIntegrity:
    def _bytes(self, snapshot):
        path, _ = snapshot
        return path, bytearray(path.read_bytes())

    def test_bad_magic_rejected(self, snapshot, tmp_path):
        path, raw = self._bytes(snapshot)
        raw[0] ^= 0xFF
        bad = tmp_path / "bad_magic.snap"
        bad.write_bytes(raw)
        with pytest.raises(SnapshotError, match="not a compiled snapshot"):
            load_snapshot(bad)

    def test_future_version_rejected(self, snapshot, tmp_path):
        path, raw = self._bytes(snapshot)
        raw[10] = 99  # format-version u32 lives right after the magic
        bad = tmp_path / "future.snap"
        bad.write_bytes(raw)
        with pytest.raises(SnapshotError, match="unsupported snapshot format"):
            load_snapshot(bad)

    def test_flipped_body_byte_rejected(self, snapshot, tmp_path):
        path, raw = self._bytes(snapshot)
        raw[len(raw) // 2] ^= 0xFF
        bad = tmp_path / "corrupt.snap"
        bad.write_bytes(raw)
        with pytest.raises(SnapshotError, match="checksum"):
            load_snapshot(bad)

    def test_truncated_file_rejected(self, snapshot, tmp_path):
        path, raw = self._bytes(snapshot)
        bad = tmp_path / "truncated.snap"
        bad.write_bytes(raw[: len(raw) - _DIGEST_BYTES - 100])
        with pytest.raises(SnapshotError):
            load_snapshot(bad)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(SnapshotError):
            load_snapshot(tmp_path / "nope.snap")
