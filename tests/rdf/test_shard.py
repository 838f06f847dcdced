"""Sharded backend tests: partitioning, merged views, kernel identity,
snapshot round trips, lazy loading, and answer equivalence.

The contract under test: a :class:`ShardedBackend` at any shard count is
observably identical to a single :class:`CompactBackend` over the same
triples — same iteration orders, same counts, same kernel rows, same
QALD answers — while bound-subject reads touch exactly one segment.
"""

import json

import pytest

from repro.cli import main
from repro.core import GAnswer
from repro.datasets import build_dbpedia_mini, build_phrase_dataset, qald_questions
from repro.exceptions import SnapshotError
from repro.paraphrase import ParaphraseMiner
from repro.rdf.backend import CompactBackend
from repro.rdf.graph import KnowledgeGraph
from repro.rdf.kernel import AdjacencyKernel
from repro.rdf.shard import (
    PARTITION_SCHEME,
    ShardedBackend,
    partition_triples,
    shard_of,
)
from repro.rdf.snapshot import compile_snapshot, load_snapshot
from repro.rdf.store import TripleStore
from tests.rdf.store_checks import (
    assert_matches_model,
    assert_refuses_mutation,
    assert_same_pattern_order,
    assert_same_row_order,
    assert_same_vocabulary_order,
)

SHARD_COUNTS = (1, 2, 8)


@pytest.fixture(scope="module")
def setup():
    kg = build_dbpedia_mini()
    dictionary = ParaphraseMiner(kg, max_path_length=4, top_k=3).mine(
        build_phrase_dataset()
    )
    return kg, dictionary


@pytest.fixture(scope="module")
def stores(setup):
    kg, _ = setup
    compact = kg.store.compacted()
    sharded = {k: kg.store.sharded(k) for k in SHARD_COUNTS}
    return kg.store, compact, sharded


@pytest.fixture(scope="module")
def model(stores):
    return set(stores[0].triples_ids())


class TestPartition:
    def test_shard_of_is_deterministic_and_in_range(self):
        for shards in (1, 2, 7, 8, 64):
            for sid in range(0, 5000, 7):
                index = shard_of(sid, shards)
                assert 0 <= index < shards
                assert index == shard_of(sid, shards)

    def test_shard_of_decorrelates_strided_ids(self):
        # Dense ids of stride 2 (entity + its label literal) must still
        # cover every segment — the original motivation for hashing the
        # high bits instead of taking ids mod K.
        hit = {shard_of(sid, 8) for sid in range(0, 4000, 2)}
        assert hit == set(range(8))

    def test_partition_round_trips_every_triple(self, stores):
        base, _, _ = stores
        triples = sorted(base.triples_ids())
        partitions = partition_triples(triples, 8)
        assert sorted(t for part in partitions for t in part) == triples
        for index, part in enumerate(partitions):
            assert all(shard_of(s, 8) == index for s, _p, _o in part)

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(ValueError):
            partition_triples([], 0)
        with pytest.raises(ValueError):
            ShardedBackend.from_triples([], shards=-1)


class TestBackendEquivalence:
    """Every read view matches a single CompactBackend, at every K.

    The walks are the shared ``store_checks`` (the state machine runs
    them at random K on tiny graphs); here they are pinned on the real
    dbpedia-mini graph, one slice per test.
    """

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_full_scan_order_identical(self, stores, shards):
        _, compact, sharded = stores
        assert list(sharded[shards].triples_ids()) == list(compact.triples_ids())

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_bound_patterns_identical(self, stores, model, shards):
        _, compact, sharded = stores
        assert_same_pattern_order(sharded[shards], compact, model, cap=10)

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_counts_identical(self, stores, model, shards):
        _, _, sharded = stores
        assert_matches_model(sharded[shards], model, cap=10)

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_index_views_identical(self, stores, model, shards):
        _, compact, sharded = stores
        assert_same_row_order(sharded[shards], compact, model, cap=30)

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_vocabulary_iterators_identical(self, stores, model, shards):
        _, compact, sharded = stores
        assert_same_vocabulary_order(sharded[shards], compact, model, cap=30)

    def test_sharded_store_is_frozen(self, stores):
        _, _, sharded = stores
        assert_refuses_mutation(sharded[2])

    def test_version_carried_forward(self, stores):
        base, _, sharded = stores
        for store in sharded.values():
            assert store.version == base.version


class TestKernelIdentity:
    """Kernel rows over a sharded store's merged scan are byte-identical
    to the rows over a single compact backend."""

    @pytest.mark.parametrize("shards", SHARD_COUNTS)
    def test_rows_identical_across_shard_counts(self, stores, shards):
        base, compact, sharded = stores
        reference = AdjacencyKernel(compact).full_rows()
        rows = AdjacencyKernel(sharded[shards]).full_rows()
        assert rows == reference
        # Byte identity, not just set equality: tuple order matters to
        # the mined-path and matcher contracts.
        for node in reference:
            assert rows[node] == reference[node]


class TestMinerDeterminism:
    def test_mined_dictionary_identical_over_sharded_store(self, setup, stores):
        kg, dictionary = setup
        _, _, sharded = stores
        sharded_kg = KnowledgeGraph(sharded[8])
        mined = ParaphraseMiner(
            sharded_kg, max_path_length=4, top_k=3
        ).mine(build_phrase_dataset())
        assert sorted(mined.phrases()) == sorted(dictionary.phrases())
        for phrase in dictionary.phrases():
            assert [
                (m.path, m.confidence) for m in mined.lookup(phrase)
            ] == [(m.path, m.confidence) for m in dictionary.lookup(phrase)]


@pytest.fixture(scope="module")
def snapshots(setup, tmp_path_factory):
    kg, dictionary = setup
    directory = tmp_path_factory.mktemp("shardsnap")
    single = directory / "single.snap"
    manifest = directory / "sharded.snap"
    compile_snapshot(single, kg, dictionary)
    info = compile_snapshot(manifest, kg, dictionary, shards=4)
    return single, manifest, info


class TestShardedSnapshot:
    def test_manifest_shape(self, snapshots):
        _, manifest, info = snapshots
        assert info.shards == 4
        payload = json.loads(manifest.read_text())
        assert payload["format"] == "reprosnap-manifest"
        assert payload["partition"] == PARTITION_SCHEME
        assert payload["shards"] == 4
        assert len(payload["segments"]) == 4
        assert sum(payload["segment_triples"]) == payload["triples"]
        for name in [payload["state"], *payload["segments"]]:
            assert (manifest.parent / name).exists()

    def test_lazy_load_defers_segments(self, snapshots, setup):
        kg, _ = setup
        _, manifest, _ = snapshots
        state = load_snapshot(manifest)
        backend = state.kg.store.backend
        assert isinstance(backend, ShardedBackend)
        assert backend.loaded_segments() == []
        # Size and per-segment counts answerable without loading anything.
        assert len(state.kg.store) == len(kg.store)
        assert backend.loaded_segments() == []

    def test_subject_query_touches_one_segment(self, snapshots):
        single, manifest, _ = snapshots
        reference = load_snapshot(single)
        state = load_snapshot(manifest)
        backend = state.kg.store.backend
        sid = next(iter(reference.kg.store.triples_ids()))[0]
        rows = list(state.kg.store.triples_ids(s=sid))
        assert rows == list(reference.kg.store.triples_ids(s=sid))
        assert backend.loaded_segments() == [backend.shard_of_subject(sid)]

    def test_triples_and_kernel_match_single_snapshot(self, snapshots):
        single, manifest, _ = snapshots
        a = load_snapshot(single)
        b = load_snapshot(manifest)
        assert list(a.kg.store.triples_ids()) == list(b.kg.store.triples_ids())
        assert a.kg.kernel.full_rows() == b.kg.kernel.full_rows()
        assert sorted(a.dictionary.phrases()) == sorted(b.dictionary.phrases())

    def test_qald_answers_identical_across_backends(self, setup, snapshots):
        """The acceptance bar: the built store, compact snapshot, and sharded
        manifest engines answer the full QALD set byte-identically."""
        kg, dictionary = setup
        single, manifest, _ = snapshots
        engines = [
            GAnswer(kg, dictionary),
        ]
        for path in (single, manifest):
            state = load_snapshot(path)
            engines.append(
                GAnswer(state.kg, state.dictionary, linker=state.build_linker())
            )
        for question in qald_questions():
            results = [engine.answer(question.text) for engine in engines]
            expected = ([str(t) for t in results[0].answers], results[0].boolean)
            for result in results[1:]:
                assert ([str(t) for t in result.answers], result.boolean) == (
                    expected
                ), question.text

    def test_engine_from_sharded_snapshot(self, snapshots):
        from repro.serve import QAEngine

        _, manifest, _ = snapshots
        engine = QAEngine.from_snapshot(manifest)
        try:
            result = engine.answer("Who is the mayor of Berlin?")
            assert result.processed
            assert result.answers
            stats = engine.stats()
            assert stats["store"]["backend"] == "ShardedBackend"
            assert stats["store"]["shards"] == 4
        finally:
            engine.close()


def _negative_count(payload):
    counts = payload["segment_triples"]
    counts[1] += counts[0] + 1
    counts[0] = -1  # the sum still matches "triples"


#: Manifest edits that must be refused at open, each in place.
_MANIFEST_MALFORMATIONS = {
    "segment_count_is_a_string": lambda m: m.update(
        segment_triples=[str(count) for count in m["segment_triples"]]
    ),
    "segment_count_is_negative": _negative_count,
    "shard_count_is_a_bool": lambda m: m.update(
        shards=True, segments=m["segments"][:1], segment_triples=[m["triples"]]
    ),
    "state_name_is_empty": lambda m: m.update(state=""),
    "state_name_has_a_directory": lambda m: m.update(state="sub/" + m["state"]),
    "segment_name_has_a_directory": lambda m: m["segments"].__setitem__(
        0, "../" + m["segments"][0]
    ),
    "segment_name_is_an_int": lambda m: m["segments"].__setitem__(0, 7),
    "segment_name_has_a_nul": lambda m: m["segments"].__setitem__(
        0, m["segments"][0] + "\0"
    ),
}


class TestShardedIntegrity:
    def _fresh(self, snapshots, tmp_path):
        """A private copy of the sharded snapshot set to corrupt."""
        _, manifest, _ = snapshots
        copies = {}
        names = [manifest.name, *(
            p.name for p in manifest.parent.iterdir() if p.name != manifest.name
        )]
        for name in names:
            data = (manifest.parent / name).read_bytes()
            (tmp_path / name).write_bytes(data)
        return tmp_path / manifest.name

    def test_corrupt_segment_detected_on_touch(self, snapshots, tmp_path):
        manifest = self._fresh(snapshots, tmp_path)
        segment = tmp_path / json.loads(manifest.read_text())["segments"][1]
        data = bytearray(segment.read_bytes())
        data[len(data) // 2] ^= 0xFF
        segment.write_bytes(bytes(data))
        state = load_snapshot(manifest)  # state container loads fine
        backend = state.kg.store.backend
        backend.segment(0)  # untouched segments still load
        with pytest.raises(SnapshotError):
            backend.segment(1)

    def test_swapped_segment_files_detected(self, snapshots, tmp_path):
        manifest = self._fresh(snapshots, tmp_path)
        names = json.loads(manifest.read_text())["segments"]
        a = (tmp_path / names[0]).read_bytes()
        b = (tmp_path / names[1]).read_bytes()
        (tmp_path / names[0]).write_bytes(b)
        (tmp_path / names[1]).write_bytes(a)
        backend = load_snapshot(manifest).kg.store.backend
        with pytest.raises(SnapshotError):
            backend.segment(0)

    def test_missing_segment_detected_at_load(self, snapshots, tmp_path):
        # Missing files are caught eagerly (the loader stats every member
        # for the size report) rather than surprising a query later.
        manifest = self._fresh(snapshots, tmp_path)
        names = json.loads(manifest.read_text())["segments"]
        (tmp_path / names[2]).unlink()
        with pytest.raises(SnapshotError):
            load_snapshot(manifest)

    def test_wrong_partition_scheme_rejected(self, snapshots, tmp_path):
        manifest = self._fresh(snapshots, tmp_path)
        payload = json.loads(manifest.read_text())
        payload["partition"] = "subject-mod/legacy"
        manifest.write_text(json.dumps(payload))
        with pytest.raises(SnapshotError):
            load_snapshot(manifest)

    def test_inconsistent_segment_counts_rejected(self, snapshots, tmp_path):
        manifest = self._fresh(snapshots, tmp_path)
        payload = json.loads(manifest.read_text())
        payload["segment_triples"][0] += 1
        manifest.write_text(json.dumps(payload))
        with pytest.raises(SnapshotError):
            load_snapshot(manifest)

    def test_future_manifest_version_rejected(self, snapshots, tmp_path):
        manifest = self._fresh(snapshots, tmp_path)
        payload = json.loads(manifest.read_text())
        payload["manifest_version"] = 99
        manifest.write_text(json.dumps(payload))
        with pytest.raises(SnapshotError):
            load_snapshot(manifest)

    @pytest.mark.parametrize("malformation", sorted(_MANIFEST_MALFORMATIONS))
    def test_malformed_manifest_fails_closed(
        self, snapshots, tmp_path, capsys, malformation
    ):
        """A count that is not a non-negative int, or a member name that is
        not a bare file name, is a ``SnapshotError`` — and so one
        ``error:`` line and exit 2 from the CLI, never a traceback."""
        manifest = self._fresh(snapshots, tmp_path)
        payload = json.loads(manifest.read_text())
        _MANIFEST_MALFORMATIONS[malformation](payload)
        manifest.write_text(json.dumps(payload))
        with pytest.raises(SnapshotError, match="malformed sharded-snapshot manifest"):
            load_snapshot(manifest)
        capsys.readouterr()
        assert main(["serve", "--snapshot", str(manifest), "--port", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_non_snapshot_json_rejected(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(SnapshotError):
            load_snapshot(path)
