"""Sharded backend tests: partitioning, merged views, kernel identity,
snapshot round trips, and answer equivalence.

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
from tests.rdf.test_snapshot import _DIGEST_BYTES, _join_container, _split_container

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
    sharded = directory / "sharded.snap"
    compile_snapshot(single, kg, dictionary)
    info = compile_snapshot(sharded, kg, dictionary, shards=4)
    return single, sharded, info


class TestShardedSnapshot:
    def test_subject_query_touches_one_segment(self, snapshots):
        single, sharded, _ = snapshots
        reference = load_snapshot(single)
        state = load_snapshot(sharded)
        backend = state.kg.store.backend
        sid = next(iter(reference.kg.store.triples_ids()))[0]
        rows = list(state.kg.store.triples_ids(s=sid))
        assert rows == list(reference.kg.store.triples_ids(s=sid))
        home = shard_of(sid, backend.shards)
        assert [bool(segment.count(s=sid)) for segment in backend.segments] == [
            index == home for index in range(backend.shards)
        ]

    def test_triples_and_kernel_match_single_snapshot(self, snapshots):
        single, sharded, _ = snapshots
        a = load_snapshot(single)
        b = load_snapshot(sharded)
        assert list(a.kg.store.triples_ids()) == list(b.kg.store.triples_ids())
        assert a.kg.kernel.full_rows() == b.kg.kernel.full_rows()
        assert sorted(a.dictionary.phrases()) == sorted(b.dictionary.phrases())

    def test_qald_answers_identical_across_backends(self, setup, snapshots):
        """The acceptance bar: the built store, compact snapshot, and sharded
        snapshot engines answer the full QALD set byte-identically."""
        kg, dictionary = setup
        single, sharded, _ = snapshots
        engines = [
            GAnswer(kg, dictionary),
        ]
        for path in (single, sharded):
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

        _, sharded, _ = snapshots
        engine = QAEngine.from_snapshot(sharded)
        try:
            result = engine.answer("Who is the mayor of Berlin?")
            assert result.processed
            assert result.answers
            stats = engine.stats()
            assert stats["store"]["backend"] == "ShardedBackend"
            assert stats["store"]["shards"] == 4
        finally:
            engine.close()


def _resigned(path, tmp_path, edit_meta=None, edit_sections=None):
    """A re-signed copy of ``path`` with its meta dict or its section list
    edited in place."""
    header, meta, sections = _split_container(path.read_bytes())
    if edit_meta is not None:
        fields = json.loads(meta)
        edit_meta(fields)
        meta = json.dumps(fields, sort_keys=True).encode("utf-8")
    if edit_sections is not None:
        edit_sections(dict(sections))
    bad = tmp_path / path.name
    bad.write_bytes(_join_container(header, meta, sections))
    return bad


def _permutation_columns(sections):
    """The permutation sections' column lists, to be edited in place."""
    return [sections[name] for name in (b"spo", b"pos", b"osp")]


def _drop_last_segment(sections):
    for columns in _permutation_columns(sections):
        del columns[-4:]


def _shorten_one_column(sections):
    sections[b"pos"][2] = sections[b"pos"][2][:-8]  # segment 0's POS second column


class TestShardedIntegrity:
    def test_corrupt_segment_detected_at_open(self, snapshots, tmp_path):
        """Every segment is under the one checksum, verified at open."""
        _, sharded, _ = snapshots
        raw = bytearray(sharded.read_bytes())
        raw[-_DIGEST_BYTES - 1] ^= 0xFF  # the last byte of the last segment's last column
        bad = tmp_path / "corrupt.snap"
        bad.write_bytes(bytes(raw))
        with pytest.raises(SnapshotError, match="checksum"):
            load_snapshot(bad)

    def test_missing_segment_detected_at_load(self, snapshots, tmp_path):
        _, sharded, _ = snapshots
        bad = _resigned(sharded, tmp_path, edit_sections=_drop_last_segment)
        with pytest.raises(SnapshotError, match="wrong column count: spo, pos, osp"):
            load_snapshot(bad)

    def test_wrong_partition_scheme_rejected(self, snapshots, tmp_path):
        _, sharded, _ = snapshots
        bad = _resigned(
            sharded, tmp_path, edit_meta=lambda meta: meta.update(partition="subject-mod/legacy")
        )
        with pytest.raises(SnapshotError, match="partitioned by 'subject-mod/legacy'.*recompile"):
            load_snapshot(bad)

    def test_inconsistent_segment_counts_rejected(self, snapshots, tmp_path):
        """One segment whose three columns differ in length."""
        _, sharded, _ = snapshots
        bad = _resigned(sharded, tmp_path, edit_sections=_shorten_one_column)
        with pytest.raises(SnapshotError, match="disagree on triple count"):
            load_snapshot(bad)

    @pytest.mark.parametrize("shards", [True, 0, "2"], ids=["true", "zero", "string"])
    def test_shard_count_that_is_not_a_positive_int_rejected(self, snapshots, tmp_path, shards):
        _, sharded, _ = snapshots
        bad = _resigned(sharded, tmp_path, edit_meta=lambda meta: meta.update(shards=shards))
        with pytest.raises(SnapshotError, match="shards"):
            load_snapshot(bad)

    def test_a_column_short_of_three_per_segment_rejected(self, snapshots, tmp_path):
        """A permutation section of 3K - 1 columns."""
        _, sharded, _ = snapshots
        bad = _resigned(
            sharded, tmp_path, edit_sections=lambda sections: sections[b"pos"].pop()
        )
        with pytest.raises(SnapshotError, match="wrong column count: pos"):
            load_snapshot(bad)

    def test_parent_format_manifest_refused(self, tmp_path, capsys):
        """An earlier build's sharded snapshot — a JSON manifest naming a
        state container and segment files — is not a container: refused
        with "recompile", and one ``error:`` line and exit 2 from the CLI."""
        manifest = tmp_path / "graph.snap"
        manifest.write_text(json.dumps({
            "format": "reprosnap-manifest", "manifest_version": 1,
            "partition": PARTITION_SCHEME, "shards": 2, "state": "graph.state.snap",
            "segments": ["graph.seg000.snap", "graph.seg001.snap"],
            "segment_triples": [1, 1], "triples": 2, "terms": 3, "phrases": 0,
            "store_version": 0, "created": "2026-01-01T00:00:00+00:00",
        }, indent=1))
        with pytest.raises(SnapshotError, match="recompile"):
            load_snapshot(manifest)
        assert main(["serve", "--snapshot", str(manifest), "--port", "0"]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("error: ") and "recompile" in line

    def test_non_snapshot_json_rejected(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(SnapshotError):
            load_snapshot(path)
