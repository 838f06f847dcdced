"""Compiled, id-stable snapshots: the offline phase as an on-disk artifact.

Starting from text means parsing N-Triples, assigning every term id, then
building the entity-linker index before the first question is answered.
Native RDF engines (gStore in the source paper; RDF-3X-style permutation
stores) instead treat the *encoded, indexed* form as the deployment
artifact.  A compiled snapshot is exactly
that: one versioned, checksummed binary file holding what the online
phase (Section 4.2) reads, and nothing else —

* the term table **with its ids frozen**, as the three columns a built or
  opened :class:`~repro.rdf.dictionary.TermDictionary` holds (a reclaimed
  id holds :data:`~repro.rdf.dictionary.RECLAIMED_RECORD`),
* the three permutation run tables of the
  :class:`~repro.rdf.backend.CompactBackend` (raw ``array('i')`` bytes) —
  the graph's adjacency too: a kernel row is read from a node's SPO and
  OSP runs (:mod:`repro.rdf.kernel`), so no second copy of it is shipped,
* the literal flags, one byte per term id,
* the entity-linker label index as its columns, and the max degree,
* the mined paraphrase dictionary **by id** (signed steps).

The class set and the ``rdfs:subClassOf`` closures are not in it: the
graph derives them lazily from the store, the same way after an open as
after a live ingest.

Because every id is stable across the round-trip, loading is an **open**,
not a load: no parsing, no re-encoding, no re-mining, no index rebuild —
and what is already a column in the file is never rebuilt as Python
objects either.  The file is memory-mapped; the permutation columns, the
term table's three and the label index's word and label tables are
``memoryview`` casts straight over the mapping.  A kernel row is read
from the permutation runs when a query first asks for it, a term object
is built when its id is first decoded, a term is found by bisecting the
record-sorted id column, a posting is a run of the mapping.  The literal flags are copied, at a byte per term, into the
store's writable flag column (a live ingest flags new literals in it).
What has no columnar form is decoded exactly once at open, into the
object that serves it: the paraphrase dictionary and the label index's
entries (``by_words`` walks them on every question).  Every check an
open makes walks its columns in place and builds nothing per item, and
the permutation pages the checks read are handed back before the first
question (see below).  The columns stay in the page cache, shared
read-only between every process that maps the same file — which is what
makes pre-fork serving (:mod:`repro.serve.prefork`)
cheap: N workers, one physical copy.  A view serves the file's bytes as
they are, so a snapshot written on a machine of the other byte order is
refused (recompile it on the serving host).

File layout (format 7)::

    MAGIC | u32 format | u8 byteorder
    | u64 meta_len | meta JSON | u32 section_count | directory entries...
    | columns, each starting on an 8-byte boundary | sha256 digest (32 bytes)

where a directory entry is ``u8 name_len | name | u32 column_count |
column_count x (u64 offset, u64 length)``, offsets counted from the start
of the file.  There is one integer width: every integer column — the
permutations', the term table's offsets and record-sorted ids, the label
index's nine, the max degree and the paths in line in the paraphrase
records — is 4-byte signed (``'i'``, :mod:`repro.rdf.columns`); the
directory's offsets and lengths and the records' length prefixes are
header fields and keep their widths.  A compile whose ids, offsets or
run starts pass 2^31 - 1 fails with a :class:`SnapshotError` that names
the limit.  Each permutation section holds a run table of four columns:
the distinct first keys, where each key's run starts (one entry more
than there are keys, the last the row count), and the second and third
column of every row.  Everything a reader needs to find a column sits
in front of the first one, so opening a file reads its first pages and nothing else:
the page cache hands a mapping out in extents (2 MB here), and a length
prefix in front of each payload — format 1 — made every extent resident
before the first question.  The digest covers everything between the
fixed header and itself and is checked, over the whole file, before
anything is decoded (the pages it read are handed back as it goes); a
flipped bit anywhere surfaces as :class:`~repro.exceptions.SnapshotError`
at open, never as silently wrong answers.  So does a well-signed file
whose directory or columns do not describe one another.  Of the run
tables the open checks that the keys rise strictly, that the run starts
begin at 0, rise strictly and end at the row count, that every id of
the key, second and third columns lies in ``[0, terms)`` (one ``max``
over each column's bytes read unsigned), and that the ``(second,
third)`` rows rise strictly within each run
(:func:`~repro.rdf.columns.runs_ascend`, which reads both columns 2 048
rows at a time as one integer and takes a Python step per run, not per
row).  The checks read every permutation page, and the pages are handed
back as the checksum's are.

Every file is written to a temporary sibling, flushed, synced and renamed
over its target, so a process that has the old file mapped keeps reading
the old bytes: recompiling onto a live snapshot is safe.

**Sharded snapshots** (``compile_snapshot(..., shards=K)``) are the same
container.  Each permutation section holds 4·K columns, segment *i*'s
run table at 4·*i* … 4·*i* + 3, and segment *i* holds the triples whose
subject :func:`~repro.rdf.shard.shard_of` places in it.  The meta names
``shards`` and the ``partition`` scheme, and an open refuses a file whose
placement is not this build's.  :func:`load_snapshot` hands the store a
:class:`~repro.rdf.shard.ShardedBackend` of K
:class:`~repro.rdf.backend.CompactBackend` segments over views of the one
mapping, so a segment's pages fault in when a read first touches them,
like every other column's.  An earlier build wrote a sharded snapshot as
a JSON manifest beside a state container and K segment files; such a
manifest is not a container, and an open refuses it: recompile it.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import mmap
import os
import struct
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from itertools import compress, count
from pathlib import Path
from typing import TYPE_CHECKING, BinaryIO, Iterator

from repro.exceptions import ColumnOverflowError, SnapshotError
from repro.rdf.backend import CompactBackend
from repro.rdf.collector import collector_paused
from repro.rdf.columns import WIDTH, borrowed_column, owned_column
from repro.rdf.dictionary import TermDictionary
from repro.rdf.graph import KnowledgeGraph
from repro.rdf.shard import PARTITION_SCHEME, ShardedBackend
from repro.rdf.store import TripleStore

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (linking sits above rdf)
    from repro.linking.index import LabelIndex
    from repro.linking.linker import EntityLinker
    from repro.paraphrase.dictionary import ParaphraseDictionary

__all__ = [
    "FORMAT_VERSION",
    "SnapshotInfo",
    "CompiledState",
    "compile_snapshot",
    "load_snapshot",
]

_MAGIC = b"REPROSNAP\x00"
FORMAT_VERSION = 7

#: magic + u32 format version + u8 byte order; the checksummed body follows.
_HEAD_LEN = len(_MAGIC) + 5
_DIGEST_LEN = 32
#: Every column starts on a multiple of this many bytes.
_ALIGN = 8
#: The checksum pass reads, and hands back, this much of the mapping at a
#: time: the size the page cache maps a file in on the hosts measured.
_VERIFY_CHUNK = 1 << 21
#: The ``madvise`` advice that drops this process's pages of a range of
#: the mapping; a later read faults them back in from the page cache.
_LET_GO = getattr(mmap, "MADV_DONTNEED", None)

#: Column count of every section a container may hold.  The order is the
#: file order: what an open decodes in full comes first, the columns a
#: query pages in on demand last.
_SECTION_COLUMNS = {
    "literals": 1,    # one flag byte per term id
    "linker": 15,     # LabelIndex.columns(), max degree
    "dictionary": 1,  # record stream
    "terms": 3,       # offsets, records, ids sorted by record
    "spo": 4,         # per segment (see _PERMUTATIONS)
    "pos": 4,
    "osp": 4,
}
#: The permutation sections: a run table per segment — keys, run starts,
#: second and third column — segment by segment.
_PERMUTATIONS = ("spo", "pos", "osp")
#: Section order; load rejects files missing any of these.
_SECTIONS = tuple(_SECTION_COLUMNS)


# --------------------------------------------------------------------- #
# Primitive packing
# --------------------------------------------------------------------- #

def _pack_str(text: str) -> bytes:
    data = text.encode("utf-8")
    return struct.pack("<I", len(data)) + data


def _pack_array(values) -> bytes:
    """Length-prefixed 4-byte column bytes, in line in a record stream."""
    return struct.pack("<Q", len(values)) + owned_column(values).tobytes()


def _aligned(offset: int) -> int:
    return -(-offset // _ALIGN) * _ALIGN


class _Reader:
    """Sequential, bounds-checked decoder over one byte range.

    The record streams run to 10^5 fields, so each method does its own
    offset arithmetic instead of calling another.
    """

    __slots__ = ("_view", "offset")

    def __init__(self, payload: memoryview):
        self._view = payload
        #: Bytes consumed so far.
        self.offset = 0

    def take(self, size: int) -> memoryview:
        start = self.offset
        end = start + size
        if end > len(self._view):
            raise SnapshotError("snapshot section truncated")
        self.offset = end
        return self._view[start:end]

    def unpack(self, fields: struct.Struct) -> tuple:
        """The next ``fields.size`` bytes, unpacked."""
        start = self.offset
        self.offset = start + fields.size
        try:
            return fields.unpack_from(self._view, start)
        except struct.error:
            raise SnapshotError("snapshot section truncated") from None

    def u8(self) -> int:
        return self.unpack(_U8)[0]

    def u32(self) -> int:
        return self.unpack(_U32)[0]

    def u64(self) -> int:
        return self.unpack(_U64)[0]

    def f64(self) -> float:
        return self.unpack(_F64)[0]

    def _prefixed(self, prefix: struct.Struct, width: int) -> memoryview:
        """A run of ``width``-byte items behind its count."""
        view, start = self._view, self.offset + prefix.size
        try:
            end = start + prefix.unpack_from(view, self.offset)[0] * width
        except struct.error:
            end = len(view) + 1
        if end > len(view):
            raise SnapshotError("snapshot section truncated")
        self.offset = end
        return view[start:end]

    def text(self) -> str:
        try:
            return str(self._prefixed(_U32, 1), "utf-8")
        except UnicodeDecodeError as exc:
            raise SnapshotError(f"snapshot section holds text that is not UTF-8: {exc}") from None

    def int_column(self) -> memoryview:
        """A length-prefixed 4-byte column, as a view over the stream."""
        return borrowed_column(self._prefixed(_U64, WIDTH))


_U8 = struct.Struct("<B")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_F64 = struct.Struct("<d")


def _ints(column: memoryview) -> memoryview:
    """A directory column as 4-byte ints — a cast over the mapping, no
    copy."""
    try:
        return borrowed_column(column)
    except ValueError as exc:
        raise SnapshotError(str(exc)) from None


# --------------------------------------------------------------------- #
# Info / compiled state
# --------------------------------------------------------------------- #

@dataclass(frozen=True, slots=True)
class SnapshotInfo:
    """Facts about one compiled snapshot, as its meta records them."""

    path: Path
    format_version: int
    created: str
    store_version: int
    triples: int
    terms: int
    phrases: int
    section_bytes: dict[str, int]
    #: Segment count: 1 unless the snapshot was compiled with ``shards=K``.
    shards: int = 1

    @property
    def total_bytes(self) -> int:
        return sum(self.section_bytes.values())


#: Integer facts every snapshot's meta records and :class:`SnapshotInfo`
#: reports.
_COUNT_KEYS = ("store_version", "triples", "terms", "phrases")


def _snapshot_info(path: Path, meta: dict, section_bytes: dict[str, int]) -> SnapshotInfo:
    """The :class:`SnapshotInfo` of ``path`` from its meta dict."""
    return SnapshotInfo(
        path=path,
        format_version=FORMAT_VERSION,
        created=meta.get("created", ""),
        section_bytes=section_bytes,
        shards=meta.get("shards", 1),
        **{key: meta[key] for key in _COUNT_KEYS},
    )


@dataclass(slots=True)
class CompiledState:
    """Everything a serving replica needs, opened from a snapshot.

    ``mapping`` is the ``mmap`` every section was read from, the triple
    columns included.  It is kept here — and implicitly by every ``memoryview`` column — so the
    mapping outlives the state; dropping the state releases it.
    """

    kg: KnowledgeGraph
    dictionary: "ParaphraseDictionary"
    info: SnapshotInfo
    #: The label index opened over the ``linker`` section's columns.
    index: "LabelIndex"
    #: The linker's prominence ceiling, stored beside the index.
    max_degree: int
    mapping: mmap.mmap

    def build_linker(self) -> "EntityLinker":
        """An :class:`EntityLinker` over the compiled label index.

        Skips the linker's scan-everything index build *and* its
        max-degree sweep — both were done at compile time, and the index
        was opened with the state.
        """
        from repro.linking.linker import EntityLinker

        return EntityLinker(self.kg, index=self.index, max_degree=self.max_degree)


# --------------------------------------------------------------------- #
# Compile
# --------------------------------------------------------------------- #

@contextlib.contextmanager
def _replacing(path: Path) -> Iterator[BinaryIO]:
    """Open a temporary sibling of ``path`` for writing; on a clean exit
    flush it, sync it and rename it over ``path``, otherwise remove it.

    A rename gives ``path`` a new inode: a process that has the old file
    mapped keeps the old bytes (truncating in place would kill it with
    SIGBUS, or — at equal length — change bytes under a checksum it has
    already verified), and a reader never sees a half-written file.
    """
    temporary = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        handle = open(temporary, "wb")
    except OSError as error:
        raise SnapshotError(f"cannot write snapshot {path}: {error}") from error
    try:
        with handle:
            yield handle
            handle.flush()
            os.fsync(handle.fileno())
        try:
            os.replace(temporary, path)
        except OSError as error:  # ``path`` is a directory, say
            raise SnapshotError(f"cannot write snapshot {path}: {error}") from error
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise


def _write_container(out: BinaryIO, sections: dict[str, list], meta: dict) -> dict[str, int]:
    """Write one checksummed ``REPROSNAP`` container; return section sizes.

    ``sections[name]`` is that section's columns, each anything with a
    buffer (``bytes``, ``array``, a borrowed ``memoryview``).
    """
    meta_bytes = json.dumps(meta, sort_keys=True).encode("utf-8")
    columns = {
        name: [memoryview(column).cast("B") for column in sections[name]]
        for name in _SECTIONS
    }
    directory_len = 8 + len(meta_bytes) + 4 + sum(
        1 + len(name) + 4 + 16 * len(columns[name]) for name in _SECTIONS
    )
    offset = _aligned(_HEAD_LEN + directory_len)
    directory = [struct.pack("<Q", len(meta_bytes)), meta_bytes, struct.pack("<I", len(_SECTIONS))]
    for name in _SECTIONS:
        directory.append(struct.pack("<B", len(name)) + name.encode("ascii"))
        directory.append(struct.pack("<I", len(columns[name])))
        for column in columns[name]:
            directory.append(struct.pack("<QQ", offset, len(column)))
            offset = _aligned(offset + len(column))

    digest = hashlib.sha256()
    written = _HEAD_LEN

    def emit(data) -> None:
        nonlocal written
        digest.update(data)
        out.write(data)
        written += len(data)

    out.write(_MAGIC + struct.pack("<IB", FORMAT_VERSION, sys.byteorder == "big"))
    emit(b"".join(directory))
    for name in _SECTIONS:
        for column in columns[name]:
            emit(bytes(_aligned(written) - written))
            emit(column)
    out.write(digest.digest())
    return {name: sum(map(len, columns[name])) for name in _SECTIONS}


def _encode_sections(
    kg: KnowledgeGraph, dictionary: "ParaphraseDictionary"
) -> dict[str, list]:
    """The columns of every section but the permutations: the term table,
    the literal flags, the linker material and the paraphrase
    dictionary."""
    from repro.linking.linker import EntityLinker

    store = kg.store
    linker = EntityLinker(kg)

    sections: dict[str, list] = {}
    # The term columns the dictionary holds (packed if terms lie past its base).
    sections["terms"] = list(store.dictionary.columns())
    # A flag per term id: a built store's column stops at its last literal.
    sections["literals"] = [bytes(store.literal_flags).ljust(len(store.dictionary), b"\0")]

    sections["linker"] = [*linker.index.columns(), owned_column([linker.max_degree])]

    phrases = sorted(dictionary.phrases())
    dict_parts = [struct.pack("<Q", len(phrases))]
    for phrase in phrases:
        mappings = dictionary.lookup(phrase)
        dict_parts.append(_pack_str(" ".join(phrase)))
        dict_parts.append(struct.pack("<I", len(mappings)))
        for mapping in mappings:
            dict_parts.append(struct.pack("<d", mapping.confidence))
            dict_parts.append(_pack_array(mapping.path))
    sections["dictionary"] = [b"".join(dict_parts)]
    return sections


def compile_snapshot(
    path: str | Path,
    kg: KnowledgeGraph,
    dictionary: "ParaphraseDictionary",
    shards: int | None = None,
) -> SnapshotInfo:
    """Compile the warm state of ``kg`` + ``dictionary`` into a snapshot.

    Builds the linker index, the one structure serving reads from the
    file that the store's columns do not already hold, so what gets
    persisted is exactly what a warm engine would have built.  Everything
    else the graph derives (kernel rows, class set, closures, instance
    sets) stays lazy after an open, as it does after a live ingest.

    ``shards=None`` (default) writes the triples as one segment.
    ``shards=K`` partitions them by subject hash into K segments, each a
    run table of four columns in every permutation section, and records
    ``shards`` and the partition scheme in the meta.  Both load through
    :func:`load_snapshot` and answer identically.

    The file appears under ``path`` complete or not at all, and ``path``
    may be a snapshot some process has open (see :func:`_replacing`); a
    compile that raises leaves what was there.  A value that does not fit
    a 4-byte column (an id, offset or run start past 2^31 - 1) is a
    :class:`SnapshotError` that names the limit.
    """
    try:
        return _compile(Path(path), kg, dictionary, shards)
    except ColumnOverflowError as exc:
        raise SnapshotError(f"cannot compile {path}: {exc}") from exc


def _compile(
    path: Path, kg: KnowledgeGraph, dictionary: "ParaphraseDictionary", shards: int | None
) -> SnapshotInfo:
    store = kg.store
    with collector_paused():
        sections = _encode_sections(kg, dictionary)
    meta = {
        "format_version": FORMAT_VERSION,
        "created": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "store_version": store.version,
        "triples": len(store),
        "terms": len(store.dictionary),
        "phrases": len(dictionary),
    }
    if shards is None:
        backend = store.backend
        if not isinstance(backend, CompactBackend):
            backend = store.compacted().backend
        assert isinstance(backend, CompactBackend)
        segments: tuple[CompactBackend, ...] = (backend,)
    else:
        sharded = store.sharded(shards).backend
        assert isinstance(sharded, ShardedBackend)
        segments = sharded.segments
        meta |= {"shards": shards, "partition": PARTITION_SCHEME}
    permutations = [segment.permutation_columns() for segment in segments]
    for name in _PERMUTATIONS:
        sections[name] = [column for columns in permutations for column in columns[name]]
    with _replacing(path) as out:
        section_bytes = _write_container(out, sections, meta)
    return _snapshot_info(path, meta, section_bytes)


# --------------------------------------------------------------------- #
# Load
# --------------------------------------------------------------------- #

def _hand_back(mapping: mmap.mmap, start: int, stop: int) -> None:
    """Drop this process's pages of ``mapping[start:stop]``, the page
    ``start`` lies in included: a read of them faults them back in.

    A check that walks a column makes every page of it resident, and the
    mapping is the size of the graph; what the open read only to check it
    is handed back before the first question.
    """
    if _LET_GO is not None and hasattr(mapping, "madvise") and start < stop:
        start -= start % mmap.PAGESIZE
        mapping.madvise(_LET_GO, start, stop - start)


def _verify(path: Path, mapping: mmap.mmap, data: memoryview) -> None:
    """Check the body's sha256, handing each extent back once it is hashed.

    The whole body is hashed before anything is decoded — but a page the
    hash has read is a page the process holds, and the mapping is the
    size of the graph: without the ``madvise`` the checksum alone would
    make every column resident before the first question.
    """
    expected = bytes(data[len(data) - _DIGEST_LEN:])
    digest = hashlib.sha256()
    end = len(data) - _DIGEST_LEN
    start = _HEAD_LEN
    while start < end:
        chunk = start - start % _VERIFY_CHUNK
        stop = min(end, chunk + _VERIFY_CHUNK)
        digest.update(data[start:stop])
        _hand_back(mapping, chunk, min(chunk + _VERIFY_CHUNK, len(data)))
        start = stop
    if digest.digest() != expected:
        raise SnapshotError(
            f"snapshot checksum mismatch: {path} is truncated or corrupt"
        )


def _open_container(
    path: Path,
) -> tuple[dict, dict[str, list[memoryview]], mmap.mmap, tuple[int, int]]:
    """Verify the container; return (meta, name → column views, mapping,
    the byte range the permutation columns span).

    The file is mapped read-only and every column view borrows from the
    mapping (returned so callers keep it alive).  The sha256 digest is
    verified over the body before any decoding, so a flipped bit surfaces
    here, never as silently wrong answers — and so does a body that is
    well signed but malformed: the directory is bounds-checked as it is
    walked, every column must lie inside the body, on an aligned offset
    and clear of every other, and the meta's integer counts, its segment
    count and partition scheme, and every section with the column count
    it must have are checked before anything reads them.
    """
    try:
        with open(path, "rb") as handle:
            mapping = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
    except (OSError, ValueError) as exc:
        raise SnapshotError(f"cannot read snapshot {path}: {exc}") from exc
    data = memoryview(mapping)
    if len(data) < _HEAD_LEN + _DIGEST_LEN or bytes(data[: len(_MAGIC)]) != _MAGIC:
        raise SnapshotError(
            f"not a compiled snapshot: {path} (recompile it with `repro compile`)"
        )
    format_version, big_endian = struct.unpack_from("<IB", data, len(_MAGIC))
    if format_version != FORMAT_VERSION:
        raise SnapshotError(
            f"unsupported snapshot format {format_version} "
            f"(this build reads format {FORMAT_VERSION}); recompile with "
            f"`repro compile`"
        )
    written_order = "big" if big_endian else "little"
    if written_order != sys.byteorder:
        # The columns are served in place from the mapping: there is no
        # owned copy whose byte order could be converted.
        raise SnapshotError(
            f"snapshot {path} was written in {written_order}-endian byte "
            f"order, this host is {sys.byteorder}-endian; recompile it on "
            f"the serving host with `repro compile`"
        )
    _verify(path, mapping, data)
    body_end = len(data) - _DIGEST_LEN
    directory = _Reader(data[_HEAD_LEN:body_end])
    extents: dict[str, list[tuple[int, int]]] = {}
    try:
        meta = json.loads(bytes(directory.take(directory.u64())))
        for _ in range(directory.u32()):
            name = bytes(directory.take(directory.u8())).decode("ascii")
            extents[name] = [
                (directory.u64(), directory.u64()) for _ in range(directory.u32())
            ]
    except ValueError as exc:  # meta is not JSON / a name is not ASCII
        raise SnapshotError(f"malformed snapshot container {path}: {exc}") from exc
    floor = _HEAD_LEN + directory.offset
    for offset, length in sorted(extent for found in extents.values() for extent in found):
        if offset % _ALIGN or offset < floor or offset + length > body_end:
            raise SnapshotError(
                f"malformed snapshot container {path}: a column at {offset} "
                f"(+{length}) is misaligned, overlaps another or runs past the end"
            )
        floor = offset + length
    if not isinstance(meta, dict):
        raise SnapshotError(f"malformed snapshot container {path}: meta is not an object")
    absent = [key for key in _COUNT_KEYS if not isinstance(meta.get(key), int)]
    if absent:
        raise SnapshotError(f"snapshot meta lacks integer {', '.join(absent)}: {path}")
    shards = meta.get("shards", 1)
    if isinstance(shards, bool) or not isinstance(shards, int) or shards < 1:
        raise SnapshotError(f"malformed snapshot container {path}: shards {shards!r}")
    if "shards" in meta and meta.get("partition") != PARTITION_SCHEME:
        raise SnapshotError(
            f"snapshot {path} was partitioned by {meta.get('partition')!r}, "
            f"this build places subjects by {PARTITION_SCHEME!r} — recompile"
        )
    missing = [name for name in _SECTIONS if name not in extents]
    if missing:
        raise SnapshotError(f"snapshot missing sections: {', '.join(missing)}")
    misshapen = [
        name for name, columns in _SECTION_COLUMNS.items()
        if len(extents[name]) != (columns * shards if name in _PERMUTATIONS else columns)
    ]
    if misshapen:
        raise SnapshotError(
            f"snapshot sections with the wrong column count: {', '.join(misshapen)}"
        )
    sections = {
        name: [data[offset:offset + length] for offset, length in found]
        for name, found in extents.items()
    }
    permutations = [extent for name in _PERMUTATIONS for extent in extents[name]]
    span = (
        min(offset for offset, _length in permutations),
        max(offset + length for offset, length in permutations),
    )
    return meta, sections, mapping, span


def _section_bytes(sections: dict[str, list[memoryview]]) -> dict[str, int]:
    return {name: sum(map(len, columns)) for name, columns in sections.items()}


def _assemble_state(
    backend: CompactBackend | ShardedBackend,
    sections: dict[str, list[memoryview]],
    info: SnapshotInfo,
    mapping: mmap.mmap,
) -> CompiledState:
    """Wire every section but the permutations into the object that
    serves it.

    The term table and the label index's tables stay columns over the
    mapping; the literal flags are copied into the store's column; the
    paraphrase dictionary and the label index's entries are decoded here,
    once.
    """
    from repro.linking.index import LabelIndex
    from repro.paraphrase.dictionary import ParaphraseDictionary, PredicateMapping

    offsets, records, by_record = sections["terms"]
    try:
        terms = TermDictionary.over_records(_ints(offsets), records, _ints(by_record))
    except ValueError as exc:
        raise SnapshotError(f"malformed term table in {info.path}: {exc}") from exc
    if len(terms) != info.terms:
        raise SnapshotError(
            f"snapshot holds {len(terms)} terms, its meta says "
            f"{info.terms} — inconsistent file"
        )
    literal_flags = bytearray(sections["literals"][0])
    if len(literal_flags) != len(terms):
        raise SnapshotError(
            f"malformed literals section in {info.path}: {len(literal_flags)} "
            f"flags for {len(terms)} terms"
        )
    if literal_flags.count(0) + literal_flags.count(1) != len(literal_flags):
        raise SnapshotError(f"malformed literals section in {info.path}: a flag is not 0 or 1")
    if not terms.base_literals(compress(count(), literal_flags)):
        raise SnapshotError(
            f"malformed literals section in {info.path}: a flagged id is not a literal"
        )
    kg = KnowledgeGraph(
        TripleStore(backend=backend, dictionary=terms, literal_flags=literal_flags)
    )

    dict_reader = _Reader(sections["dictionary"][0])
    paraphrases = ParaphraseDictionary()
    for _ in range(dict_reader.u64()):
        phrase = tuple(dict_reader.text().split())
        mappings = []
        for _ in range(dict_reader.u32()):
            confidence = dict_reader.f64()
            steps = tuple(dict_reader.int_column())
            mappings.append(PredicateMapping(steps, confidence))
        paraphrases.add(phrase, mappings)
    if len(paraphrases) != info.phrases:
        raise SnapshotError(
            f"snapshot holds {len(paraphrases)} phrases, its meta says "
            f"{info.phrases} — inconsistent file"
        )

    *index_columns, max_degree = sections["linker"]
    try:
        index = LabelIndex(kg, index_columns)
    except ValueError as exc:
        raise SnapshotError(f"malformed linker section in {info.path}: {exc}") from exc
    max_degree = _ints(max_degree)
    if len(max_degree) != 1 or max_degree[0] < 1:
        raise SnapshotError(f"malformed linker section in {info.path}: no max degree >= 1")

    return CompiledState(
        kg=kg,
        dictionary=paraphrases,
        info=info,
        index=index,
        max_degree=max_degree[0],
        mapping=mapping,
    )


def load_snapshot(path: str | Path) -> CompiledState:
    """Open the full warm state of a compiled snapshot.

    The returned :class:`CompiledState` carries a frozen store whose term
    ids are identical to the compile-time store's and whose term table is
    served from the mapping, a graph whose kernel rows are read from the
    permutation columns, the id-level paraphrase dictionary, and the
    material to build an entity linker without an index scan.

    The store's backend is one :class:`~repro.rdf.backend.CompactBackend`,
    or — when the meta names ``shards`` — a
    :class:`~repro.rdf.shard.ShardedBackend` of that many.  The file is
    memory-mapped and the backend and the term dictionary get zero-copy ``memoryview`` columns — none of them is duplicated into
    process memory, and concurrent processes mapping the same file share
    one page-cache copy.
    """
    path = Path(path)
    meta, sections, mapping, span = _open_container(path)
    version = meta["store_version"]
    spo, pos, osp = ([_ints(column) for column in sections[name]] for name in _PERMUTATIONS)
    try:
        segments = [
            CompactBackend(spo[at:at + 4], pos[at:at + 4], osp[at:at + 4], version=version)
            for at in range(0, len(spo), 4)
        ]
        for segment in segments:
            segment.check(meta["terms"])
    except ValueError as exc:
        raise SnapshotError(f"malformed permutation section in {path}: {exc}") from exc
    finally:
        _hand_back(mapping, *span)
    backend = ShardedBackend(segments, version=version) if "shards" in meta else segments[0]
    if len(backend) != meta["triples"]:
        raise SnapshotError(
            f"snapshot holds {len(backend)} triples, its meta says "
            f"{meta['triples']} — inconsistent file"
        )
    info = _snapshot_info(path, meta, _section_bytes(sections))
    return _assemble_state(backend, sections, info, mapping)
