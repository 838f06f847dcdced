"""Compiled snapshot tests: id stability, integrity, and answer equivalence.

A snapshot is only useful if loading it is indistinguishable from
rebuilding everything from source — same term ids, same kernel rows,
same linker candidates, same QALD answers — and only safe if corruption
is detected rather than silently served.
"""

import hashlib
import json
import os
import struct
import subprocess
import sys
from array import array
from itertools import groupby
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import GAnswer
from repro.datasets import build_dbpedia_mini, build_phrase_dataset, qald_questions
from repro.exceptions import SnapshotError, StoreFrozenError
from repro.paraphrase import ParaphraseMiner
from repro.rdf import IRI, Triple, TripleStore
from repro.rdf.kernel import AdjacencyKernel
from repro.rdf.snapshot import compile_snapshot, load_snapshot

_HEADER_BYTES = 15  # magic(10) + format version u32 + byteorder u8
_BYTE_ORDER_OFFSET = 14  # the header's last byte, outside the checksummed body
_DIGEST_BYTES = 32
SRC = Path(__file__).resolve().parents[2] / "src"


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


@pytest.fixture(scope="module")
def sharded_snapshot(setup, tmp_path_factory):
    """A 2-shard snapshot: one container, each permutation in eight columns."""
    kg, dictionary = setup
    path = tmp_path_factory.mktemp("shardsnap") / "sharded.snap"
    info = compile_snapshot(path, kg, dictionary, shards=2)
    return path, info


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


def _without_stamp(raw):
    """A compiled file's bytes with the meta ``created`` stamp blanked and
    the trailing digest, which signs the stamp, cut off."""
    (meta_len,) = struct.unpack_from("<Q", raw, _HEADER_BYTES)
    start = _HEADER_BYTES + 8
    meta = raw[start:start + meta_len]
    stamp = json.dumps(json.loads(meta)["created"]).encode("utf-8")
    assert meta.count(stamp) == 1
    masked = meta.replace(stamp, b"x" * len(stamp))
    return raw[:start] + masked + raw[start + meta_len:len(raw) - _DIGEST_BYTES]


_COMPILE_BOTH_FORMS = """
import sys
from repro.cli import main
from repro.experiments.common import default_setup
from repro.rdf.snapshot import compile_snapshot

assert main(["compile", sys.argv[1]]) == 0
setup = default_setup(0)
compile_snapshot(sys.argv[2], setup.kg, setup.dictionary, shards=2)
"""


def test_compile_is_byte_identical_under_any_hash_seed(tmp_path):
    """Same graph, same bytes: ``repro compile`` and a 2-shard compile in
    three interpreters with different string-hash seeds write one file
    each, stamp aside."""
    bodies = set()
    for seed in ("0", "1", "2"):
        single, sharded = tmp_path / f"seed{seed}.snap", tmp_path / f"seed{seed}-2.snap"
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        subprocess.run(
            [sys.executable, "-c", _COMPILE_BOTH_FORMS, str(single), str(sharded)],
            env=env, cwd=tmp_path, capture_output=True, timeout=300, check=True,
        )
        bodies.add((_without_stamp(single.read_bytes()), _without_stamp(sharded.read_bytes())))
    assert len(bodies) == 1
    ((single_body, sharded_body),) = bodies
    assert single_body != sharded_body


class TestKernelEquivalence:
    def test_prebuilt_rows_match_fresh_build(self, setup, loaded):
        kg, _ = setup
        assert loaded.kg.kernel.full_rows() == kg.kernel.full_rows()

    def test_compact_build_matches_dict_build(self, setup):
        """Building the kernel *from* a compact store (no prebuilt rows)
        must give the same rows as building from a store that scans in
        insertion order (an overlay's delta, filled back to front) — the
        canonical build order makes iteration order irrelevant."""
        kg, _ = setup
        unsorted = TripleStore(dictionary=kg.store.dictionary, literal_flags=kg.store.literal_flags)
        unsorted.backend.add_all_ids(reversed(list(kg.store.triples_ids())))
        assert list(unsorted.triples_ids()) != sorted(unsorted.triples_ids())
        unsorted_kernel = AdjacencyKernel(unsorted)
        compact_kernel = AdjacencyKernel(kg.store.compacted())
        assert compact_kernel.full_rows() == unsorted_kernel.full_rows()

    def test_closures_preserved(self, setup, loaded):
        """Derived lazily from the opened store, not read from the file."""
        kg, _ = setup
        for class_id in kg.class_ids:
            assert loaded.kg.superclasses_of(class_id) == kg.superclasses_of(class_id)
            assert loaded.kg.subclasses_of(class_id) == kg.subclasses_of(class_id)

    def test_class_ids_preserved(self, setup, loaded):
        kg, _ = setup
        assert loaded.kg.class_ids == kg.class_ids


class _RecordingLinker:
    """Passes every call through to ``linker``; keeps each linked phrase."""

    def __init__(self, linker):
        self.linker = linker
        self.phrases = []

    def link(self, phrase, tracer=None):
        self.phrases.append(phrase)
        return self.linker.link(phrase, tracer)

    def __getattr__(self, name):
        return getattr(self.linker, name)


class TestLinkerEquivalence:
    def test_compiled_linker_matches_fresh(self, setup, loaded):
        """Every phrase the QALD questions link, field for field, and the
        posting keys of every indexed node."""
        from repro.linking import EntityLinker

        kg, dictionary = setup
        fresh = EntityLinker(kg)
        compiled = loaded.build_linker()
        assert compiled.max_degree == fresh.max_degree
        recording = _RecordingLinker(fresh)
        system = GAnswer(kg, dictionary, linker=recording)
        for question in qald_questions():
            system.answer(question.text)
        phrases = recording.phrases + ["Philadelphia", "actor", "Margaret Thatcher", "films"]
        assert len(phrases) > 100
        for phrase in phrases:
            assert [
                (c.node_id, c.label, c.score, c.is_class)
                for c in compiled.link(phrase)
            ] == [
                (c.node_id, c.label, c.score, c.is_class)
                for c in fresh.link(phrase)
            ], phrase
        assert compiled.index.entries() == fresh.index.entries()
        for entry in fresh.index.entries():
            node = entry.node_id
            assert sorted(compiled.index.words_of(node)) == sorted(fresh.index.words_of(node))


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

    def test_answers_survive_open_ingest_compact_reopen(self, setup, snapshot, tmp_path):
        """compile → open → ingest → ``compact(snapshot_path=)`` → open:
        the second snapshot holds the first one's terms at their ids with
        the new ones behind them, the live kernel's rows, and all 99
        answers."""
        from repro.serve import QAEngine

        kg, dictionary = setup
        path, _ = snapshot
        engine = QAEngine.from_snapshot(path)
        try:
            engine.ingest([Triple(IRI("x:new/a"), IRI("x:new/rel"), IRI("x:new/b"))])
            second = tmp_path / "second.snap"
            engine.compact(snapshot_path=str(second))
            reopened = load_snapshot(second)
            live = engine.kg
            assert sorted(reopened.kg.store.triples_ids()) == sorted(live.store.triples_ids())
            terms = reopened.kg.store.dictionary.terms_in_id_order()
            assert terms == live.store.dictionary.terms_in_id_order()
            assert terms[:len(kg.store.dictionary)] == kg.store.dictionary.terms_in_id_order()
            assert reopened.kg.kernel.full_rows() == live.kernel.full_rows()
            assert live.kernel.full_rows() == reopened.kg.kernel.full_rows()
        finally:
            engine.close()
        original = GAnswer(kg, dictionary)
        restored = GAnswer(
            reopened.kg, reopened.dictionary, linker=reopened.build_linker()
        )
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
    """The one load path: mmap-backed columns, nothing copied."""

    def test_mmap_columns_are_borrowed_views(self, loaded):
        """The acceptance bar for zero-copy: every permutation column of a
        loaded backend is a memoryview over the file mapping — no
        ``frombytes`` copy anywhere on the triple-index path."""
        columns = loaded.kg.store.backend.permutation_columns()
        for name, triple in columns.items():
            for column in triple:
                assert isinstance(column, memoryview), name
                assert column.format == "i"

    def test_kernel_rows_and_terms_are_served_from_the_mapping(self, setup, snapshot):
        """A row is read from the permutation runs, which are views of the
        mapping: nothing is read before a question asks, and what is read
        is the built store's row."""
        kg, _ = setup
        path, _ = snapshot
        state = load_snapshot(path)
        state.build_linker()
        for columns in state.kg.store.backend.permutation_columns().values():
            assert all(column.obj is state.mapping for column in columns)
        assert state.kg.kernel.statistics()["rows_boxed"] == 0
        node = kg.store.dictionary.lookup(IRI("res:Berlin"))
        assert state.kg.kernel.adjacency(node) == kg.kernel.adjacency(node)
        assert state.kg.kernel.statistics()["rows_boxed"] == 1
        terms = state.kg.store.dictionary.statistics()
        assert terms["terms_decoded"] == 0 < terms["terms_total"]
        assert terms["snapshot_mapped_bytes"] == path.stat().st_size

    def test_mapping_held_by_state(self, loaded):
        # The mmap must stay alive as long as the state (the views borrow
        # from it).
        assert loaded.mapping is not None
        assert not loaded.mapping.closed


def _split_container(raw):
    """(header, meta JSON bytes, [(name, [column bytes, ...])]) of a good
    container: the directory up front, the columns where it says."""
    body = memoryview(raw)[_HEADER_BYTES:len(raw) - _DIGEST_BYTES]
    (meta_len,) = struct.unpack_from("<Q", body, 0)
    offset = 8 + meta_len
    meta = bytes(body[8:offset])
    (count,) = struct.unpack_from("<I", body, offset)
    offset += 4
    sections = []
    for _ in range(count):
        name_len = body[offset]
        name = bytes(body[offset + 1:offset + 1 + name_len])
        offset += 1 + name_len
        (columns,) = struct.unpack_from("<I", body, offset)
        offset += 4
        found = []
        for _ in range(columns):
            start, size = struct.unpack_from("<QQ", body, offset)
            offset += 16
            found.append(bytes(raw[start:start + size]))
        sections.append((name, found))
    return bytes(raw[:_HEADER_BYTES]), meta, sections


def _join_container(header, meta, sections, extra_count=0, lie=None):
    """Re-assemble and **re-sign** a container, optionally lying about the
    section count or — ``lie(extents)`` edits the ``[offset, length]``
    list in place — about where the columns are."""
    directory_len = 8 + len(meta) + 4 + sum(
        1 + len(name) + 4 + 16 * len(columns) for name, columns in sections
    )
    offset = -(-(_HEADER_BYTES + directory_len) // 8) * 8
    extents = []
    for _name, columns in sections:
        for column in columns:
            extents.append([offset, len(column)])
            offset = -(-(offset + len(column)) // 8) * 8
    placed = [tuple(extent) for extent in extents]
    if lie is not None:
        lie(extents)
    body = struct.pack("<Q", len(meta)) + meta
    body += struct.pack("<I", len(sections) + extra_count)
    told = iter(extents)
    for name, columns in sections:
        body += bytes((len(name),)) + name + struct.pack("<I", len(columns))
        for _column in columns:
            body += struct.pack("<QQ", *next(told))
    for (start, _size), column in zip(
        placed, (column for _name, columns in sections for column in columns)
    ):
        body += bytes(start - _HEADER_BYTES - len(body)) + column
    return header + body + hashlib.sha256(body).digest()


def _without_phrases(meta):
    fields = json.loads(meta)
    del fields["phrases"]
    return json.dumps(fields, sort_keys=True).encode("utf-8")


def _past_end(extents):
    extents[-1][1] += 1 << 40


def _offset_past_end(extents):
    extents[-1][0] += 1 << 40


def _overlapping(extents):
    extents[1][0] = extents[0][0]


def _misaligned(extents):
    extents[-1][0] += 1
    extents[-1][1] -= 1


def _with_column(sections, name, index, edit, typecode="i"):
    """``sections`` with column ``index`` of section ``name`` edited in
    place by ``edit(array)`` — 4-byte int items, or bytes for ``typecode="B"``."""
    changed = []
    for section, columns in sections:
        if section == name.encode("ascii"):
            values = array(typecode, columns[index])
            edit(values)
            columns = [*columns[:index], values.tobytes(), *columns[index + 1:]]
        changed.append((section, columns))
    return changed


def _swap_first_two(values):
    values[1], values[2] = values[2], values[1]


def _repeat_first(values):
    values[1] = values[0]


def _lengthen_last(values):
    values[-1] += 1


def _drop_last(values):
    del values[-1]


def _zero_first(values):
    values[0] = 0


def _two_first(values):
    values[0] = 2


def _tilde_first(values):
    values[0] = ord("~")  # ASCII, and above every [a-z0-9 ] byte


def _two_on_first_literal(values):
    values[values.index(1)] = 2  # still a literal's id: only the 0-or-1 rule fails


def _million_last(values):
    values[-1] = 10**6


def _billion_first(values):
    values[0] = 10**9  # fits a 4-byte column, far past every term id


def _negative_first(values):
    values[0] = -1


def _not_utf8_at(offset):
    def edit(values):
        values[offset] = 0xFF

    return edit


#: Columns of the ``linker`` section: ``LabelIndex.columns()`` — node ids,
#: class flags, label offsets and blob, normalized offsets and blob, the
#: word table and the label table (key offsets, keys, run starts,
#: positions each) — then the max degree.
_NODE_IDS, _FLAGS, _LABEL_OFFSETS, _LABELS = 0, 1, 2, 3
_WORD_KEYS, _WORD_STARTS, _WORD_POSITIONS = 7, 8, 9
_MAX_DEGREE = 14
#: Columns of a permutation section's first segment: its run table.
_KEYS, _STARTS, _SECOND, _THIRD = 0, 1, 2, 3


def _flag_first_iri(sections):
    """``sections`` with the literal flag of the first IRI's id set."""
    (terms,) = [columns for name, columns in sections if name == b"terms"]
    offsets = array("i", terms[0])
    first_iri = next(i for i, at in enumerate(offsets[:-1]) if terms[1][at] == 0)

    def flag(values):
        values[first_iri] = 1

    return _with_column(sections, "literals", 0, flag, "B")


def _descending_word_run(sections):
    """The first word run of two or more positions, reversed."""
    (columns,) = [columns for name, columns in sections if name == b"linker"]
    starts = array("i", columns[_WORD_STARTS])
    start, end = next((a, b) for a, b in zip(starts, starts[1:]) if b - a > 1)

    def reverse(values):
        values[start:end] = values[start:end][::-1]

    return _with_column(sections, "linker", _WORD_POSITIONS, reverse)


def _second_falls_in_a_run(sections, name):
    """The first run of permutation ``name`` (its first segment) whose
    second column holds two values, with that column reversed over it."""
    (columns,) = [columns for section, columns in sections if section == name.encode("ascii")]
    starts, second = array("i", columns[_STARTS]), array("i", columns[_SECOND])
    start, end = next((a, b) for a, b in zip(starts, starts[1:]) if second[a] != second[b - 1])

    def reverse(values):
        values[start:end] = values[start:end][::-1]

    return _with_column(sections, name, _SECOND, reverse)


def _third_falls_in_a_run(sections, name):
    """The first two-row run of equal second keys of permutation ``name``
    (its first segment), with its two third-column values swapped."""
    (columns,) = [columns for section, columns in sections if section == name.encode("ascii")]
    starts, second = array("i", columns[_STARTS]), array("i", columns[_SECOND])
    row = next(
        rows[0]
        for begin, end in zip(starts, starts[1:])
        for _key, run in groupby(range(begin, end), key=second.__getitem__)
        if len(rows := list(run)) == 2
    )

    def swap(values):
        values[row], values[row + 1] = values[row + 1], values[row]

    return _with_column(sections, name, _THIRD, swap)


#: Well-signed but malformed: each maps a good container's parts to the
#: bytes of one whose checksum holds and whose structure does not.
_MALFORMATIONS = {
    "section_count_past_end": lambda h, m, s: _join_container(h, m, s, extra_count=2),
    "meta_key_dropped": lambda h, m, s: _join_container(h, _without_phrases(m), s),
    "meta_not_json": lambda h, m, s: _join_container(h, b"x" * len(m), s),
    "section_name_not_ascii": lambda h, m, s: _join_container(
        h, m, [(b"\xff" + s[0][0][1:], s[0][1]), *s[1:]]
    ),
    "payload_length_past_end": lambda h, m, s: _join_container(h, m, s, lie=_past_end),
    "column_offset_past_end": lambda h, m, s: _join_container(h, m, s, lie=_offset_past_end),
    "columns_overlap": lambda h, m, s: _join_container(h, m, s, lie=_overlapping),
    "column_misaligned": lambda h, m, s: _join_container(h, m, s, lie=_misaligned),
    "term_offsets_not_monotone": lambda h, m, s: _join_container(
        h, m, _with_column(s, "terms", 0, _swap_first_two)
    ),
    "term_sort_column_not_a_permutation": lambda h, m, s: _join_container(
        h, m, _with_column(s, "terms", 2, _repeat_first)
    ),
    # Text that is not UTF-8, and a posting past the entries, used to
    # escape as UnicodeDecodeError at open or IndexError from link().
    "dictionary_text_not_utf8": lambda h, m, s: _join_container(
        h, m, _with_column(s, "dictionary", 0, _not_utf8_at(12), "B")  # u64 count, u32 length
    ),
    "linker_label_not_utf8": lambda h, m, s: _join_container(
        h, m, _with_column(s, "linker", _LABELS, _not_utf8_at(0), "B")
    ),
    "linker_position_past_entries": lambda h, m, s: _join_container(
        h, m, _with_column(s, "linker", _WORD_POSITIONS, _million_last)
    ),
    # Format 4's linker columns, one rule each.
    "linker_offsets_decrease": lambda h, m, s: _join_container(
        h, m, _with_column(s, "linker", _LABEL_OFFSETS, _swap_first_two)
    ),
    "linker_offsets_past_blob": lambda h, m, s: _join_container(
        h, m, _with_column(s, "linker", _LABEL_OFFSETS, _lengthen_last)
    ),
    "linker_run_starts_do_not_rise": lambda h, m, s: _join_container(
        h, m, _with_column(s, "linker", _WORD_STARTS, _repeat_first)
    ),
    "linker_run_not_ascending": lambda h, m, s: _join_container(h, m, _descending_word_run(s)),
    "linker_keys_not_ascending": lambda h, m, s: _join_container(
        h, m, _with_column(s, "linker", _WORD_KEYS, _tilde_first, "B")
    ),
    "linker_flag_not_0_or_1": lambda h, m, s: _join_container(
        h, m, _with_column(s, "linker", _FLAGS, _two_first, "B")
    ),
    "linker_entry_columns_disagree": lambda h, m, s: _join_container(
        h, m, _with_column(s, "linker", _NODE_IDS, _drop_last)
    ),
    "linker_max_degree_zero": lambda h, m, s: _join_container(
        h, m, _with_column(s, "linker", _MAX_DEGREE, _zero_first)
    ),
    # Format 5's literal flags, one rule each: a flag per term, each 0 or
    # 1, and only on a literal's record.
    "literal_flags_short_of_the_terms": lambda h, m, s: _join_container(
        h, m, _with_column(s, "literals", 0, _drop_last, "B")
    ),
    "literal_flag_not_0_or_1": lambda h, m, s: _join_container(
        h, m, _with_column(s, "literals", 0, _two_on_first_literal, "B")
    ),
    "literal_flag_on_an_iri": lambda h, m, s: _join_container(h, m, _flag_first_iri(s)),
    # Format 7's run tables (keys, run starts, second, third column per
    # segment), one rule each.  Before the open checked them, the first
    # two opened with all their triples and answered from them.
    "spo_keys_swapped": lambda h, m, s: _join_container(
        h, m, _with_column(s, "spo", _KEYS, _swap_first_two)
    ),
    "spo_id_past_terms": lambda h, m, s: _join_container(
        h, m, _with_column(s, "spo", _THIRD, _billion_first)
    ),
    "osp_negative_id": lambda h, m, s: _join_container(
        h, m, _with_column(s, "osp", _SECOND, _negative_first)
    ),
    "pos_starts_not_rising": lambda h, m, s: _join_container(
        h, m, _with_column(s, "pos", _STARTS, _repeat_first)
    ),
    "spo_start_past_rows": lambda h, m, s: _join_container(
        h, m, _with_column(s, "spo", _STARTS, _lengthen_last)
    ),
    # A run whose second column falls: the bisect that narrows the run to
    # one second key would miss rows.
    "osp_second_falls_in_a_run": lambda h, m, s: _join_container(
        h, m, _second_falls_in_a_run(s, "osp")
    ),
    # An (s, p) run whose objects fall: ``contains`` bisects the third
    # column and would answer False for a triple the store holds.
    "spo_third_falls_in_a_run": lambda h, m, s: _join_container(
        h, m, _third_falls_in_a_run(s, "spo")
    ),
}


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

    def test_previous_format_refused_not_converted(self, snapshot, tmp_path):
        """There is one reader: a format-4 file (the literals as a sorted
        id column, decoded into a ``set``) is named, refused and sent back
        to the compiler — its body is never looked at."""
        path, raw = self._bytes(snapshot)
        raw[10] = 4
        bad = tmp_path / "format4.snap"
        bad.write_bytes(raw)
        with pytest.raises(SnapshotError, match=r"format 4 .*reads format 7.*recompile"):
            load_snapshot(bad)

    def test_a_format_5_file_is_refused(self, snapshot, tmp_path):
        """Format 5 shipped the kernel rows as a section of their own; the
        rows are store reads now, and such a file is refused, not read
        around its extra section."""
        path, raw = self._bytes(snapshot)
        raw[10:14] = struct.pack("<I", 5)
        bad = tmp_path / "format5.snap"
        bad.write_bytes(raw)
        with pytest.raises(SnapshotError, match=r"format 5 .*recompile"):
            load_snapshot(bad)

    def test_an_entity_flagged_as_a_literal_is_refused(self, loaded, snapshot, tmp_path):
        """Regression: at format 4, a well-signed file whose literal ids
        named ``res:Klaus_Wowereit`` (and ids no term has) opened cleanly,
        and "Who is the mayor of Berlin?" then answered ``[]``."""
        from repro.serve import QAEngine

        question = "Who is the mayor of Berlin?"
        path, raw = self._bytes(snapshot)
        engine = QAEngine.from_snapshot(path)
        assert engine.ask(question, use_cache=False)["answers"] == ["res:Klaus_Wowereit"]
        engine.close()
        mayor = loaded.kg.store.dictionary.lookup(IRI("res:Klaus_Wowereit"))
        assert not loaded.kg.store.is_literal_id(mayor)

        def flag(values):
            values[mayor] = 1

        bad = tmp_path / "mayor_a_literal.snap"
        header, meta, sections = _split_container(raw)
        bad.write_bytes(
            _join_container(header, meta, _with_column(sections, "literals", 0, flag, "B"))
        )
        with pytest.raises(SnapshotError, match="flagged id is not a literal"):
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

    @pytest.mark.parametrize(
        "form, malformation",
        [
            pytest.param(form, name, id=f"{form}-{name}" if form == "sharded" else name)
            for form in ("single", "sharded")
            for name in sorted(_MALFORMATIONS)
        ],
    )
    def test_resigned_malformed_single_file_rejected(
        self, snapshot, sharded_snapshot, tmp_path, form, malformation
    ):
        """A valid checksum over an invalid structure — another build, a
        buggy writer, a hand edit — fails closed, never with a crash, in
        either form of the one container."""
        path, raw = self._bytes(sharded_snapshot if form == "sharded" else snapshot)
        bad = tmp_path / "malformed.snap"
        bad.write_bytes(_MALFORMATIONS[malformation](*_split_container(raw)))
        with pytest.raises(SnapshotError):
            load_snapshot(bad)

    def test_foreign_byte_order_single_file_refused(self, snapshot, tmp_path):
        """Columns are served in place from the mapping, so a file of the
        other byte order is refused — never loaded, never converted."""
        path, raw = self._bytes(snapshot)
        raw[_BYTE_ORDER_OFFSET] ^= 1
        bad = tmp_path / "foreign.snap"
        bad.write_bytes(raw)
        with pytest.raises(SnapshotError, match="byte order.*recompile"):
            load_snapshot(bad)

    def test_foreign_byte_order_sharded_file_refused(self, sharded_snapshot, tmp_path):
        path, raw = self._bytes(sharded_snapshot)
        raw[_BYTE_ORDER_OFFSET] ^= 1
        bad = tmp_path / "foreign.snap"
        bad.write_bytes(raw)
        with pytest.raises(SnapshotError, match="byte order.*recompile"):
            load_snapshot(bad)


# --------------------------------------------------------------------- #
# Fail closed: mutated containers, as they are and re-signed
# --------------------------------------------------------------------- #

def _directory_fields(raw):
    """``(position, width)`` of every column count and every extent
    length in a good container's directory."""
    body = _HEADER_BYTES
    (meta_len,) = struct.unpack_from("<Q", raw, body)
    offset = body + 8 + meta_len
    (count,) = struct.unpack_from("<I", raw, offset)
    offset += 4
    fields = []
    for _ in range(count):
        offset += 1 + raw[offset]
        (columns,) = struct.unpack_from("<I", raw, offset)
        fields.append((offset, 4))
        offset += 4
        for _ in range(columns):
            fields.append((offset + 8, 8))  # (u64 offset, u64 length)
            offset += 16
    return fields


def _resigned(raw):
    """``raw`` with its last 32 bytes replaced by the digest of what lies
    between the header and them — what a writer of the mutation would
    have signed."""
    if len(raw) < _HEADER_BYTES + _DIGEST_BYTES:
        return raw
    return raw[:-_DIGEST_BYTES] + hashlib.sha256(raw[_HEADER_BYTES:-_DIGEST_BYTES]).digest()


@pytest.fixture(scope="module")
def fuzz_target(setup, tmp_path_factory):
    kg, dictionary = setup
    directory = tmp_path_factory.mktemp("fuzz")
    compile_snapshot(directory / "good.snap", kg, dictionary)
    raw = (directory / "good.snap").read_bytes()
    return directory, raw, _directory_fields(raw)


_mutations = st.one_of(
    st.tuples(st.just("flip"), st.integers(0, 1 << 30), st.integers(1, 255)),
    st.tuples(st.just("truncate"), st.integers(0, 1 << 30), st.just(0)),
    st.tuples(st.just("length"), st.integers(0, 1 << 10), st.integers(-(1 << 16), 1 << 16)),
    st.tuples(st.just("length"), st.integers(0, 1 << 10), st.integers(0, (1 << 64) - 1)),
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(mutation=_mutations, resign=st.booleans())
def test_mutated_containers_fail_closed(fuzz_target, mutation, resign):
    """Byte flips, truncations and section-length edits of a format-6
    container, each as it is and re-signed: an open either succeeds or
    raises :class:`SnapshotError` — never any other exception."""
    directory, raw, fields = fuzz_target
    kind, where, value = mutation
    mutated = bytearray(raw)
    if kind == "flip":
        mutated[where % len(raw)] ^= value
    elif kind == "truncate":
        del mutated[where % len(raw):]
    else:
        position, width = fields[where % len(fields)]
        (current,) = struct.unpack_from(f"<{'I' if width == 4 else 'Q'}", raw, position)
        edited = value if value >= 1 << 16 else current + value
        mutated[position:position + width] = (edited % (1 << (8 * width))).to_bytes(width, "little")
    if resign:
        mutated = _resigned(mutated)
    path = directory / f"mutated-{hashlib.sha256(mutated).hexdigest()[:16]}.snap"
    path.write_bytes(mutated)
    try:
        load_snapshot(path)
    except SnapshotError:
        pass
    finally:
        path.unlink()
