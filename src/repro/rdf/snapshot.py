"""Compiled, id-stable snapshots: the offline phase as an on-disk artifact.

Starting from text means parsing N-Triples, assigning every term id, then
building the adjacency kernel, label/linker indexes, and subclass
closures before the first question is answered.  Native RDF engines
(gStore in the source paper; RDF-3X-style permutation stores) instead
treat the *encoded, indexed* form as the deployment artifact.  A compiled
snapshot is exactly that: one versioned, checksummed binary file holding

* the term dictionary **with its ids frozen** (position == id),
* the three sorted permutation columns of the
  :class:`~repro.rdf.backend.CompactBackend` (raw ``array('q')`` bytes),
* the literal-id set,
* the prebuilt adjacency-kernel rows,
* the class set and both ``rdfs:subClassOf`` closures,
* the graph label index and the entity-linker index entries/postings,
* the mined paraphrase dictionary **by id** (signed steps).

Because every id is stable across the round-trip, loading is direct
reconstruction — dict assembly over borrowed byte ranges — with no
parsing, no re-encoding, no re-mining, and no index rebuild.  The
``offline_build_200k`` workload of ``bench/run.py`` times both loads.

Loading opens, it never copies or converts: each file is memory-mapped
and the three permutation columns become ``memoryview`` casts straight
over the mapping, so the triple index is **never copied into process
memory**.  The kernel rows, closures, and dictionary are still
materialized as Python objects, but the columns — the bulk of a large
snapshot — stay in the page cache, shared read-only between every
process that maps the same file.  This is what makes pre-fork serving
(:mod:`repro.serve.prefork`) cheap: N workers, one physical copy.  A view
serves the file's bytes as they are, so a snapshot written on a machine
of the other byte order is refused (recompile it on the serving host).

File layout::

    MAGIC | u32 format | u8 byteorder | u64 meta_len | meta JSON
    | u32 section_count | sections... | sha256 digest (32 bytes)

where each section is ``u8 name_len | name | u64 payload_len | payload``.
The digest covers everything between the fixed header and itself; a
flipped bit anywhere surfaces as :class:`~repro.exceptions.SnapshotError`
at load time, never as silently wrong answers.

**Sharded snapshots** (``compile_snapshot(..., shards=K)``, ``repro
compile --shards K``) split the artifact so segments load on demand:

* ``graph.snap`` — a small JSON **manifest** naming the members, the
  partition scheme, and per-segment triple counts;
* ``graph.state.snap`` — one ``REPROSNAP`` container with every
  non-column section (terms, literals, kernel rows, closures, labels,
  linker, dictionary), decoded eagerly at load;
* ``graph.segNNN.snap`` — one ``REPROSNAP`` container per shard holding
  only that segment's three permutation columns.

``load_snapshot`` sniffs the leading bytes, so manifest and single-file
snapshots load through the same call.  A sharded load builds a
:class:`~repro.rdf.shard.ShardedBackend` whose segments are mmapped (and
checksum-verified) on **first touch**: a subject-local workload only ever
makes 1/K of the triple columns resident.  Each segment file is verified
independently, so lazy loading never trades away corruption detection.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import struct
import sys
from array import array
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import TYPE_CHECKING

from repro.exceptions import SnapshotError
from repro.rdf.backend import CompactBackend
from repro.rdf.dictionary import TermDictionary
from repro.rdf.graph import KnowledgeGraph
from repro.rdf.kernel import AdjacencyKernel, AdjacencyRow
from repro.rdf.shard import PARTITION_SCHEME, ShardedBackend
from repro.rdf.store import TripleStore
from repro.rdf.terms import IRI, Literal, Term

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (linking sits above rdf)
    from repro.linking.linker import EntityLinker
    from repro.paraphrase.dictionary import ParaphraseDictionary

__all__ = [
    "FORMAT_VERSION",
    "MANIFEST_VERSION",
    "SnapshotInfo",
    "CompiledState",
    "compile_snapshot",
    "load_snapshot",
]

_MAGIC = b"REPROSNAP\x00"
FORMAT_VERSION = 1
#: Version of the sharded-manifest JSON layout.
MANIFEST_VERSION = 1
_MANIFEST_FORMAT = "reprosnap-manifest"

_KIND_IRI = 0
_KIND_PLAIN = 1
_KIND_TYPED = 2
_KIND_LANG = 3

#: Fixed section order; load rejects files missing any of these.
_SECTIONS = (
    "terms", "literals", "spo", "pos", "osp",
    "kernel", "classes", "closures", "labels", "linker", "dictionary",
)
#: Sections of a sharded snapshot's state container (everything but the
#: triple columns, which live in the per-shard segment containers).
_STATE_SECTIONS = (
    "terms", "literals",
    "kernel", "classes", "closures", "labels", "linker", "dictionary",
)
#: Sections of one segment container: that shard's permutation columns.
_SEGMENT_SECTIONS = ("spo", "pos", "osp")


# --------------------------------------------------------------------- #
# Primitive packing
# --------------------------------------------------------------------- #

def _pack_str(text: str) -> bytes:
    data = text.encode("utf-8")
    return struct.pack("<I", len(data)) + data


def _pack_array(values) -> bytes:
    """Length-prefixed int64 column bytes (owned array or borrowed view)."""
    return struct.pack("<Q", len(values)) + values.tobytes()


class _Reader:
    """Sequential, bounds-checked decoder over one payload."""

    __slots__ = ("_view", "_offset")

    def __init__(self, payload: memoryview):
        self._view = payload
        self._offset = 0

    def take(self, size: int) -> memoryview:
        end = self._offset + size
        if end > len(self._view):
            raise SnapshotError("snapshot section truncated")
        chunk = self._view[self._offset:end]
        self._offset = end
        return chunk

    def u8(self) -> int:
        return self.take(1)[0]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]

    def i64(self) -> int:
        return struct.unpack("<q", self.take(8))[0]

    def f64(self) -> float:
        return struct.unpack("<d", self.take(8))[0]

    def text(self) -> str:
        return bytes(self.take(self.u32())).decode("utf-8")

    def int_column(self) -> memoryview:
        """A zero-copy int64 view over the payload.

        The returned ``memoryview`` borrows the underlying buffer — the
        file mapping itself — so consuming it reads page-cache bytes with
        no intermediate copy.
        """
        count = self.u64()
        return self.take(count * 8).cast("q")


# --------------------------------------------------------------------- #
# Term table
# --------------------------------------------------------------------- #

def _encode_terms(terms: list[Term]) -> bytes:
    parts = [struct.pack("<Q", len(terms))]
    for term in terms:
        if isinstance(term, IRI):
            parts.append(bytes((_KIND_IRI,)))
            parts.append(_pack_str(term.value))
        elif term.datatype is not None:
            parts.append(bytes((_KIND_TYPED,)))
            parts.append(_pack_str(term.lexical))
            parts.append(_pack_str(term.datatype.value))
        elif term.language is not None:
            parts.append(bytes((_KIND_LANG,)))
            parts.append(_pack_str(term.lexical))
            parts.append(_pack_str(term.language))
        else:
            parts.append(bytes((_KIND_PLAIN,)))
            parts.append(_pack_str(term.lexical))
    return b"".join(parts)


def _decode_terms(reader: _Reader) -> list[Term]:
    count = reader.u64()
    terms: list[Term] = []
    for _ in range(count):
        kind = reader.u8()
        if kind == _KIND_IRI:
            terms.append(IRI(reader.text()))
        elif kind == _KIND_PLAIN:
            terms.append(Literal(reader.text()))
        elif kind == _KIND_TYPED:
            lexical = reader.text()
            terms.append(Literal(lexical, datatype=IRI(reader.text())))
        elif kind == _KIND_LANG:
            lexical = reader.text()
            terms.append(Literal(lexical, language=reader.text()))
        else:
            raise SnapshotError(f"unknown term kind {kind}")
    return terms


# --------------------------------------------------------------------- #
# Id-set maps (closures)
# --------------------------------------------------------------------- #

def _encode_closure(closure: dict[int, frozenset[int]]) -> bytes:
    keys = sorted(closure)
    lens = array("q", (len(closure[key]) for key in keys))
    flat = array("q")
    for key in keys:
        flat.extend(sorted(closure[key]))
    return _pack_array(array("q", keys)) + _pack_array(lens) + _pack_array(flat)


def _decode_closure(reader: _Reader) -> dict[int, frozenset[int]]:
    keys = reader.int_column()
    lens = reader.int_column()
    flat = reader.int_column()
    closure: dict[int, frozenset[int]] = {}
    offset = 0
    for key, length in zip(keys, lens):
        closure[key] = frozenset(flat[offset:offset + length])
        offset += length
    return closure


# --------------------------------------------------------------------- #
# Info / state containers
# --------------------------------------------------------------------- #

@dataclass(frozen=True, slots=True)
class SnapshotInfo:
    """Manifest-level facts about one compiled snapshot (file or shard set)."""

    path: Path
    format_version: int
    created: str
    store_version: int
    triples: int
    terms: int
    phrases: int
    section_bytes: dict[str, int]
    #: Segment count: 1 for a single-file snapshot, K for a sharded one
    #: (where ``section_bytes`` also carries one aggregate entry per
    #: segment file).
    shards: int = 1

    @property
    def total_bytes(self) -> int:
        return sum(self.section_bytes.values())


#: Integer facts every snapshot records — in a container's meta JSON and
#: in a sharded manifest — and :class:`SnapshotInfo` reports.
_COUNT_KEYS = ("store_version", "triples", "terms", "phrases")


def _snapshot_info(
    path: Path, counts: dict, section_bytes: dict[str, int], shards: int = 1
) -> SnapshotInfo:
    """The :class:`SnapshotInfo` of ``path`` from a meta or manifest dict."""
    return SnapshotInfo(
        path=path,
        format_version=FORMAT_VERSION,
        created=counts.get("created", ""),
        section_bytes=section_bytes,
        shards=shards,
        **{key: counts[key] for key in _COUNT_KEYS},
    )


@dataclass(slots=True)
class CompiledState:
    """Everything a serving replica needs, reconstructed from a snapshot.

    ``mapping`` is the ``mmap`` the decoded sections were read from (and,
    for a single-file snapshot, the one the triple columns borrow from).
    It is kept here — and implicitly by every ``memoryview`` column — so
    the mapping outlives the state; dropping the state releases it.
    """

    kg: KnowledgeGraph
    dictionary: "ParaphraseDictionary"
    info: SnapshotInfo
    linker_entries: list[tuple[int, str, str, bool]]
    linker_postings: dict[str, tuple[int, ...]]
    linker_max_degree: int
    mapping: mmap.mmap

    def build_linker(self) -> "EntityLinker":
        """An :class:`EntityLinker` over the compiled label-index entries.

        Skips the linker's scan-everything index build *and* its
        max-degree sweep — both were done at compile time.
        """
        from repro.linking.index import LabelIndex
        from repro.linking.linker import EntityLinker

        index = LabelIndex.from_compiled(
            self.kg, self.linker_entries, self.linker_postings
        )
        return EntityLinker(
            self.kg, index=index, max_degree=self.linker_max_degree
        )


# --------------------------------------------------------------------- #
# Compile
# --------------------------------------------------------------------- #

def _write_container(
    path: Path, sections: dict[str, bytes], order: tuple[str, ...], meta: dict
) -> dict[str, int]:
    """Write one checksummed ``REPROSNAP`` container; return section sizes."""
    meta_bytes = json.dumps(meta, sort_keys=True).encode("utf-8")
    body = bytearray()
    body += struct.pack("<Q", len(meta_bytes))
    body += meta_bytes
    body += struct.pack("<I", len(order))
    for name in order:
        payload = sections[name]
        body += struct.pack("<B", len(name))
        body += name.encode("ascii")
        body += struct.pack("<Q", len(payload))
        body += payload
    head = _MAGIC + struct.pack("<IB", FORMAT_VERSION, sys.byteorder == "big")
    digest = hashlib.sha256(bytes(body)).digest()
    path.write_bytes(head + bytes(body) + digest)
    return {name: len(sections[name]) for name in order}


def _sharded_member_paths(path: Path, shards: int) -> tuple[Path, list[Path]]:
    """Sibling file names of a sharded snapshot's state and segments.

    ``graph.snap`` → ``graph.state.snap`` + ``graph.seg000.snap`` …; the
    manifest records bare names, so the whole set moves as a directory.
    """
    suffix = path.suffix or ".snap"
    stem = path.stem if path.suffix else path.name
    state = path.with_name(f"{stem}.state{suffix}")
    segments = [
        path.with_name(f"{stem}.seg{index:03d}{suffix}") for index in range(shards)
    ]
    return state, segments


def _encode_state_sections(
    kg: KnowledgeGraph, dictionary: "ParaphraseDictionary"
) -> dict[str, bytes]:
    """Encode every non-column section from the forced-warm graph state."""
    from repro.linking.linker import EntityLinker

    store = kg.store
    kernel = kg.kernel
    class_ids = kg.class_ids
    for class_id in class_ids:
        kg.superclasses_of(class_id)
        kg.subclasses_of(class_id)
    label_index = kg.label_index
    linker = EntityLinker(kg)

    sections: dict[str, bytes] = {}
    sections["terms"] = _encode_terms(store.dictionary.terms_in_id_order())
    sections["literals"] = _pack_array(array("q", sorted(store.iter_literal_ids())))

    rows = kernel.full_rows()
    node_ids = array("q", sorted(rows))
    row_lens = array("q", (len(rows[node][0]) for node in node_ids))
    flat_steps = array("q")
    flat_neighbors = array("q")
    for node in node_ids:
        steps, neighbors = rows[node]
        flat_steps.extend(steps)
        flat_neighbors.extend(neighbors)
    sections["kernel"] = (
        _pack_array(node_ids) + _pack_array(row_lens)
        + _pack_array(flat_steps) + _pack_array(flat_neighbors)
    )

    superclass_closure, subclass_closure = kg.closure_caches()
    sections["classes"] = _pack_array(array("q", sorted(class_ids)))
    sections["closures"] = (
        _encode_closure(superclass_closure) + _encode_closure(subclass_closure)
    )

    label_parts = [struct.pack("<Q", len(label_index))]
    for node, label in sorted(label_index.items()):
        label_parts.append(struct.pack("<q", node))
        label_parts.append(_pack_str(label))
    sections["labels"] = b"".join(label_parts)

    entries = linker.index.entries()
    postings = linker.index.word_postings()
    linker_parts = [struct.pack("<Q", len(entries))]
    for entry in entries:
        linker_parts.append(struct.pack("<qB", entry.node_id, int(entry.is_class)))
        linker_parts.append(_pack_str(entry.label))
        linker_parts.append(_pack_str(entry.normalized))
    linker_parts.append(struct.pack("<Q", len(postings)))
    for word in sorted(postings):
        linker_parts.append(_pack_str(word))
        linker_parts.append(_pack_array(array("q", sorted(postings[word]))))
    linker_parts.append(struct.pack("<q", linker.max_degree))
    sections["linker"] = b"".join(linker_parts)

    phrases = sorted(dictionary.phrases())
    dict_parts = [struct.pack("<Q", len(phrases))]
    for phrase in phrases:
        mappings = dictionary.lookup(phrase)
        dict_parts.append(_pack_str(" ".join(phrase)))
        dict_parts.append(struct.pack("<I", len(mappings)))
        for mapping in mappings:
            dict_parts.append(struct.pack("<d", mapping.confidence))
            dict_parts.append(_pack_array(array("q", mapping.path)))
    sections["dictionary"] = b"".join(dict_parts)
    return sections


def _segment_sections(segment: CompactBackend) -> dict[str, bytes]:
    columns = segment.permutation_columns()
    return {
        name: b"".join(_pack_array(column) for column in columns[name])
        for name in _SEGMENT_SECTIONS
    }


def compile_snapshot(
    path: str | Path,
    kg: KnowledgeGraph,
    dictionary: "ParaphraseDictionary",
    shards: int | None = None,
    jobs: int = 1,
) -> SnapshotInfo:
    """Compile the warm state of ``kg`` + ``dictionary`` into a snapshot.

    Forces every lazily-built structure (kernel, class set, closures,
    label index, linker index) so what gets persisted is exactly what a
    warm engine would have built.

    ``shards=None`` (default) writes the single-file container, byte
    layout unchanged.  ``shards=K`` writes the sharded form instead: a
    JSON manifest at ``path``, a state container next to it, and one
    segment container per shard (subject-hash partitioned; ``jobs``
    parallelizes the per-segment column builds).  Both forms load through
    :func:`load_snapshot` and answer identically.
    """
    path = Path(path)
    store = kg.store
    sections = _encode_state_sections(kg, dictionary)
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
        sections.update(_segment_sections(backend))
        return _snapshot_info(
            path, meta, _write_container(path, sections, _SECTIONS, meta)
        )

    if shards < 1:
        raise ValueError("shards must be a positive segment count")
    backend = store.backend
    if not (isinstance(backend, ShardedBackend) and backend.shards == shards):
        # Not already partitioned under the same scheme (a live sharded
        # store persists its own segments instead of re-sorting columns).
        backend = store.sharded(shards, jobs=jobs).backend
    assert isinstance(backend, ShardedBackend)
    segments = [backend.segment(index) for index in range(shards)]

    state_path, segment_paths = _sharded_member_paths(path, shards)
    section_bytes = _write_container(
        state_path, sections, _STATE_SECTIONS,
        meta | {"kind": "state", "shards": shards},
    )
    for index, (segment, segment_path) in enumerate(zip(segments, segment_paths)):
        segment_meta = {
            "format_version": FORMAT_VERSION,
            "kind": "segment",
            "shard": index,
            "shards": shards,
            "triples": len(segment),
            "store_version": store.version,
        }
        written = _write_container(
            segment_path, _segment_sections(segment),
            _SEGMENT_SECTIONS, segment_meta,
        )
        section_bytes[segment_path.name] = sum(written.values())

    manifest = {
        "format": _MANIFEST_FORMAT,
        "manifest_version": MANIFEST_VERSION,
        "created": meta["created"],
        "partition": PARTITION_SCHEME,
        "shards": shards,
        "state": state_path.name,
        "segments": [segment_path.name for segment_path in segment_paths],
        "segment_triples": [len(segment) for segment in segments],
        "triples": meta["triples"],
        "terms": meta["terms"],
        "phrases": meta["phrases"],
        "store_version": meta["store_version"],
    }
    path.write_text(
        json.dumps(manifest, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    return _snapshot_info(path, meta, section_bytes, shards)


# --------------------------------------------------------------------- #
# Load
# --------------------------------------------------------------------- #

def _split_sections(
    path: Path,
    required: tuple[str, ...] = _SECTIONS,
    meta_keys: tuple[str, ...] = _COUNT_KEYS,
) -> tuple[dict, dict[str, memoryview], mmap.mmap]:
    """Verify the container; return (meta, name → payload view, mapping).

    The file is mapped read-only and every payload view borrows from the
    mapping (returned so callers keep it alive).  The sha256 digest is
    verified over the body before any decoding, so a flipped bit surfaces
    here, never as silently wrong answers — and so does a body that is
    well signed but malformed: every length is bounds-checked as the
    sections are walked, and the ``required`` sections and integer
    ``meta_keys`` must be present before anything reads them.
    """
    try:
        with open(path, "rb") as handle:
            mapping = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
    except (OSError, ValueError) as exc:
        raise SnapshotError(f"cannot read snapshot {path}: {exc}") from exc
    data = memoryview(mapping)
    head_len = len(_MAGIC) + 5
    if len(data) < head_len + 32 or bytes(data[: len(_MAGIC)]) != _MAGIC:
        raise SnapshotError(f"not a compiled snapshot: {path}")
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
    view = data[head_len:len(data) - 32]
    if hashlib.sha256(view).digest() != bytes(data[len(data) - 32:]):
        raise SnapshotError(
            f"snapshot checksum mismatch: {path} is truncated or corrupt"
        )
    body = _Reader(view)
    payloads: dict[str, memoryview] = {}
    try:
        meta = json.loads(bytes(body.take(body.u64())))
        for _ in range(body.u32()):
            name = bytes(body.take(body.u8())).decode("ascii")
            payloads[name] = body.take(body.u64())
    except ValueError as exc:  # meta is not JSON / a name is not ASCII
        raise SnapshotError(f"malformed snapshot container {path}: {exc}") from exc
    missing = [name for name in required if name not in payloads]
    if missing:
        raise SnapshotError(f"snapshot missing sections: {', '.join(missing)}")
    if not isinstance(meta, dict):
        raise SnapshotError(f"malformed snapshot container {path}: meta is not an object")
    absent = [key for key in meta_keys if not isinstance(meta.get(key), int)]
    if absent:
        raise SnapshotError(f"snapshot meta lacks integer {', '.join(absent)}: {path}")
    return meta, payloads, mapping


def _segment_permutations(payloads: dict[str, memoryview]) -> list[tuple]:
    """The three permutation column triples of one container's sections.

    Each column is a ``memoryview`` cast over the mapping — no
    ``frombytes``, no materialization.
    """
    permutations = []
    for name in _SEGMENT_SECTIONS:
        section = _Reader(payloads[name])
        permutations.append(
            (section.int_column(), section.int_column(), section.int_column())
        )
    return permutations


def _assemble_state(
    backend: CompactBackend | ShardedBackend,
    payloads: dict[str, memoryview],
    info: SnapshotInfo,
    mapping: mmap.mmap,
) -> CompiledState:
    """Decode every non-column section straight into the object that
    serves it — store, kernel, graph caches, linker material, paraphrase
    dictionary — and wire them into the warm :class:`CompiledState`
    (shared by both snapshot forms)."""
    from repro.paraphrase.dictionary import ParaphraseDictionary, PredicateMapping

    def reader(name: str) -> _Reader:
        return _Reader(payloads[name])

    store = TripleStore(
        backend=backend,
        dictionary=TermDictionary.from_terms(_decode_terms(reader("terms"))),
        literal_ids=set(reader("literals").int_column()),
    )

    kernel_reader = reader("kernel")
    node_ids = kernel_reader.int_column()
    row_lens = kernel_reader.int_column()
    flat_steps = kernel_reader.int_column()
    flat_neighbors = kernel_reader.int_column()
    rows: dict[int, AdjacencyRow] = {}
    offset = 0
    for node, length in zip(node_ids, row_lens):
        end = offset + length
        rows[node] = (tuple(flat_steps[offset:end]), tuple(flat_neighbors[offset:end]))
        offset = end

    closure_reader = reader("closures")
    superclass_closure = _decode_closure(closure_reader)
    subclass_closure = _decode_closure(closure_reader)
    label_reader = reader("labels")
    kg = KnowledgeGraph(store)
    kg.preload(
        kernel=AdjacencyKernel(store, prebuilt_rows=rows),
        class_ids=set(reader("classes").int_column()),
        superclass_closure=superclass_closure,
        subclass_closure=subclass_closure,
        label_index={
            label_reader.i64(): label_reader.text()
            for _ in range(label_reader.u64())
        },
    )

    linker_reader = reader("linker")
    entries: list[tuple[int, str, str, bool]] = []
    for _ in range(linker_reader.u64()):
        node_id = linker_reader.i64()
        is_class = bool(linker_reader.u8())
        label = linker_reader.text()
        normalized = linker_reader.text()
        entries.append((node_id, label, normalized, is_class))
    postings: dict[str, tuple[int, ...]] = {}
    for _ in range(linker_reader.u64()):
        word = linker_reader.text()
        postings[word] = tuple(linker_reader.int_column())
    max_degree = linker_reader.i64()

    dict_reader = reader("dictionary")
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
            f"snapshot holds {len(paraphrases)} phrases, manifest says "
            f"{info.phrases} — inconsistent file"
        )

    return CompiledState(
        kg=kg,
        dictionary=paraphrases,
        info=info,
        linker_entries=entries,
        linker_postings=postings,
        linker_max_degree=max_degree,
        mapping=mapping,
    )


def _load_single(path: Path) -> CompiledState:
    """Decode the classic one-file snapshot."""
    meta, payloads, mapping = _split_sections(path)
    backend = CompactBackend(
        *_segment_permutations(payloads), version=meta["store_version"]
    )
    if len(backend) != meta["triples"]:
        raise SnapshotError(
            f"snapshot holds {len(backend)} triples, manifest says "
            f"{meta['triples']} — inconsistent file"
        )
    section_bytes = {name: len(payload) for name, payload in payloads.items()}
    return _assemble_state(
        backend, payloads, _snapshot_info(path, meta, section_bytes), mapping
    )


def _load_sharded(path: Path, manifest: dict) -> CompiledState:
    """Decode a sharded manifest: eager state, lazily mmapped segments."""
    if manifest.get("manifest_version") != MANIFEST_VERSION:
        raise SnapshotError(
            f"unsupported manifest version {manifest.get('manifest_version')} "
            f"(this build reads manifest version {MANIFEST_VERSION}); "
            f"recompile with `repro compile --shards`"
        )
    if manifest.get("partition") != PARTITION_SCHEME:
        raise SnapshotError(
            f"snapshot was partitioned by {manifest.get('partition')!r}, "
            f"this build places subjects by {PARTITION_SCHEME!r} — recompile"
        )
    shards = manifest.get("shards")
    segment_names = manifest.get("segments")
    segment_triples = manifest.get("segment_triples")
    if (
        not isinstance(shards, int)
        or shards < 1
        or not isinstance(segment_names, list)
        or not isinstance(segment_triples, list)
        or len(segment_names) != shards
        or len(segment_triples) != shards
        or not isinstance(manifest.get("state"), str)
        or not all(isinstance(manifest.get(key), int) for key in _COUNT_KEYS)
    ):
        raise SnapshotError(f"malformed sharded-snapshot manifest: {path}")
    if sum(segment_triples) != manifest["triples"]:
        raise SnapshotError(
            f"manifest segment counts sum to {sum(segment_triples)}, "
            f"manifest says {manifest['triples']} triples — inconsistent"
        )

    state_path = path.with_name(manifest["state"])
    meta, payloads, mapping = _split_sections(state_path, _STATE_SECTIONS)
    if meta.get("kind") != "state" or meta.get("shards") != shards:
        raise SnapshotError(
            f"{state_path} is not the state container of {path}"
        )
    store_version = meta["store_version"]
    if manifest["store_version"] != store_version:
        raise SnapshotError(
            f"manifest and state container disagree on store version "
            f"({manifest['store_version']} vs {store_version})"
        )
    segment_paths = [path.with_name(name) for name in segment_names]

    def load_segment(index: int) -> tuple[CompactBackend, object | None]:
        # Runs under the ShardedBackend lock on first touch of a segment;
        # each file carries its own checksum, so lazy loading keeps full
        # corruption detection without reading the untouched shards.
        segment_path = segment_paths[index]
        seg_meta, seg_payloads, seg_mapping = _split_sections(
            segment_path, _SEGMENT_SECTIONS, ()
        )
        if (
            seg_meta.get("kind") != "segment"
            or seg_meta.get("shard") != index
            or seg_meta.get("shards") != shards
            or seg_meta.get("store_version") != store_version
        ):
            raise SnapshotError(
                f"{segment_path} is not segment {index} of {path}"
            )
        segment = CompactBackend(
            *_segment_permutations(seg_payloads), version=store_version
        )
        return segment, seg_mapping

    backend = ShardedBackend.lazy(
        shards, segment_triples, load_segment, version=store_version
    )
    section_bytes = {name: len(payload) for name, payload in payloads.items()}
    for segment_path in segment_paths:
        try:
            section_bytes[segment_path.name] = segment_path.stat().st_size
        except OSError as exc:
            raise SnapshotError(
                f"cannot read snapshot segment {segment_path}: {exc}"
            ) from exc
    info = _snapshot_info(path, manifest, section_bytes, shards)
    return _assemble_state(backend, payloads, info, mapping)


def load_snapshot(path: str | Path) -> CompiledState:
    """Reconstruct the full warm state from a compiled snapshot.

    The returned :class:`CompiledState` carries a frozen store whose term
    ids are identical to the compile-time store's, a kernel adopted from
    the persisted rows, preloaded graph caches, the id-level paraphrase
    dictionary, and the material to build an entity linker without an
    index scan.

    ``path`` may be either snapshot form — the leading bytes decide:

    * a ``REPROSNAP`` container loads as a single frozen
      :class:`~repro.rdf.backend.CompactBackend`;
    * a JSON **manifest** (``compile_snapshot(..., shards=K)``) loads the
      state container eagerly and hands the store a
      :class:`~repro.rdf.shard.ShardedBackend` whose segment files are
      mapped and checksum-verified on first touch.

    Every file is memory-mapped and the backend gets zero-copy
    ``memoryview`` columns — the triple index is never duplicated into
    process memory, and concurrent processes mapping the same file share
    one page-cache copy.
    """
    path = Path(path)
    try:
        with open(path, "rb") as handle:
            head = handle.read(len(_MAGIC))
    except OSError as exc:
        raise SnapshotError(f"cannot read snapshot {path}: {exc}") from exc
    if head == _MAGIC:
        return _load_single(path)
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SnapshotError(f"not a compiled snapshot: {path}") from exc
    if not isinstance(manifest, dict) or manifest.get("format") != _MANIFEST_FORMAT:
        raise SnapshotError(f"not a compiled snapshot: {path}")
    return _load_sharded(path, manifest)
