"""Dictionary encoding of RDF terms to dense integer ids.

Every term (IRI or literal) that enters the store is assigned a stable,
dense, non-negative integer id.  All graph algorithms in this project
(path mining, subgraph matching, pruning) operate on ids; terms are only
materialised at the API boundary.  This mirrors how production RDF stores
(Virtuoso, gStore) keep their join machinery on fixed-width integers.

A dictionary has one form: a **frozen base** held as the three columns
of a snapshot's term table — a term object is built when its id is first
decoded, a term is found by bisecting the record-sorted ids — and a
mutable **tail** that every new term goes to.  ``TermDictionary()`` is
over empty columns, :meth:`~TermDictionary.over_records` over a mapped
snapshot's; the graph builders end by :meth:`~TermDictionary.freeze`,
folding the tail into the base once.  :meth:`~TermDictionary.columns`
hands the compiler the held columns, so only this module writes or reads
the term-table format.

A live-ingest server adds and removes terms for as long as it runs, so
the tail can shrink: compaction finds the ingested terms no triple names
any more, **retires** them (:meth:`TermDictionary.retire` — the next
encode of such a term assigns a fresh id) and, once no request that
could still hold one of their ids is running, **reclaims** them
(:meth:`TermDictionary.reclaim` — decoding the id raises
:class:`~repro.exceptions.TermNotFoundError`).  Ids are never reused, so
nothing keyed by id can come to stand for another term; the tail is kept
by id in a dict, so it costs what its live terms cost, not a slot per id
ever assigned.  A snapshot compiled afterwards writes
:data:`RECLAIMED_RECORD` where a reclaimed term stood: ids stay
positions, and the marker sorts after every term's record.
"""

from __future__ import annotations

import struct
from bisect import bisect_left
from itertools import accumulate
from typing import Iterable, Iterator

from repro.exceptions import SnapshotError, TermNotFoundError
from repro.rdf.columns import IntColumn, owned_column, strictly_ascending
from repro.rdf.terms import IRI, Literal, Term

_KIND_IRI = 0
_KIND_PLAIN = 1
_KIND_TYPED = 2
_KIND_LANG = 3
_KIND_RECLAIMED = 4

#: The term-table record of an id whose term was reclaimed: no term
#: encodes to it, and it sorts after every record that is a term.
RECLAIMED_RECORD = bytes((_KIND_RECLAIMED,))
_LITERAL_KINDS = frozenset((_KIND_PLAIN, _KIND_TYPED, _KIND_LANG))


def encode_term_record(term: Term) -> bytes:
    """The one byte string that stands for ``term`` in a snapshot's term
    table: a kind byte, for a typed or language-tagged literal the
    length-prefixed datatype IRI or tag, then the value or lexical form.
    Distinct terms give distinct records, so record order is a total
    order on terms."""
    if isinstance(term, IRI):
        return bytes((_KIND_IRI,)) + term.value.encode("utf-8")
    lexical = term.lexical.encode("utf-8")
    if term.datatype is not None:
        qualifier = term.datatype.value.encode("utf-8")
        return bytes((_KIND_TYPED,)) + struct.pack("<I", len(qualifier)) + qualifier + lexical
    if term.language is not None:
        qualifier = term.language.encode("utf-8")
        return bytes((_KIND_LANG,)) + struct.pack("<I", len(qualifier)) + qualifier + lexical
    return bytes((_KIND_PLAIN,)) + lexical


def decode_term_record(record: bytes) -> Term:
    """The term :func:`encode_term_record` wrote as ``record``."""
    try:
        kind = record[0]
        if kind == _KIND_IRI:
            return IRI(record[1:].decode("utf-8"))
        if kind == _KIND_PLAIN:
            return Literal(record[1:].decode("utf-8"))
        if kind in (_KIND_TYPED, _KIND_LANG):
            (size,) = struct.unpack_from("<I", record, 1)
            if 5 + size > len(record):
                raise ValueError("qualifier runs past the record")
            qualifier = record[5:5 + size].decode("utf-8")
            lexical = record[5 + size:].decode("utf-8")
            if kind == _KIND_TYPED:
                return Literal(lexical, datatype=IRI(qualifier))
            return Literal(lexical, language=qualifier)
        raise ValueError(f"unknown term kind {kind}")
    except (IndexError, ValueError, struct.error) as exc:
        raise SnapshotError(f"malformed term record: {exc}") from exc


def _is_permutation(ids: IntColumn) -> bool:
    """Whether ``ids`` holds each of ``0 .. len(ids) - 1`` exactly once."""
    seen = bytearray(len(ids))
    try:
        for term_id in ids:
            seen[term_id] = 1
    except IndexError:
        return False
    return min(ids, default=0) >= 0 and seen.count(1) == len(ids)


class TermDictionary:
    """Bidirectional mapping between RDF terms and dense integer ids.

    Ids are assigned in first-seen order starting at 0 and are never reused,
    so they are valid as indexes into side arrays for the lifetime of the
    dictionary.  ``len()`` is the number of ids assigned, reclaimed ones
    included.

    One writer at a time (the store's); readers may look up and decode
    concurrently with it.
    """

    def __init__(self) -> None:
        #: Tail terms, and base terms a builder held or a lookup found.
        #: A retired term is not here.
        self._term_to_id: dict[Term, int] = {}
        #: The base's term objects, position == id; a slot holds ``None``
        #: until its record has been decoded.
        self._base_terms: list[Term | None] = []
        #: The live ids past the base.
        self._tail: dict[int, Term] = {}
        #: Retired ids: they still decode, awaiting :meth:`reclaim`.
        self._retiring: dict[int, Term] = {}
        self._next_id = 0
        self._reclaimed = 0
        self._decoded = 0
        #: The frozen base: ``offsets[i]:offsets[i + 1]`` bounds term ``i``'s
        #: record in ``records``; ``by_record`` is the ids in record order.
        self._offsets: IntColumn = owned_column([0])
        self._records: bytes | memoryview = b""
        self._by_record: IntColumn = owned_column()

    @classmethod
    def over_records(
        cls, offsets: IntColumn, records: bytes | memoryview, by_record: IntColumn
    ) -> "TermDictionary":
        """A dictionary whose first ``len(by_record)`` ids are the records
        of a compiled snapshot's term table, served in place.

        ``records[offsets[i]:offsets[i + 1]]`` is term ``i``
        (:func:`encode_term_record`, or :data:`RECLAIMED_RECORD`) — the
        id-stable reload path, where every persisted side structure
        (kernel rows, closures, mined paths) indexes by these exact ids.
        Decodes nothing.  Raises :class:`ValueError` when the columns do
        not describe one another.
        """
        count = len(by_record)
        if len(offsets) != count + 1 or offsets[0] != 0 or offsets[-1] != len(records):
            raise ValueError("term offsets do not span the record blob")
        if not strictly_ascending(offsets):
            raise ValueError("term offsets are not strictly ascending")
        if not _is_permutation(by_record):
            raise ValueError("the record-sorted id column is not a permutation of the ids")
        dictionary = cls()
        dictionary._base_terms = [None] * count
        dictionary._next_id = count
        dictionary._offsets, dictionary._records = offsets, records
        dictionary._by_record = by_record
        # Reclaimed records sort last: count them by one bisection.
        dictionary._reclaimed = count - bisect_left(
            by_record, RECLAIMED_RECORD, key=dictionary._record
        )
        return dictionary

    def freeze(self) -> None:
        """Fold the tail into the base, ids unchanged: the graph builders'
        last step, before anything else holds the dictionary.  Each tail
        term is encoded once, and its object kept as a decoded slot."""
        tail = self._tail
        self._offsets, self._records, self._by_record = self.columns()
        self._base_terms += map(tail.get, range(len(self._base_terms), self._next_id))
        self._decoded += len(tail)
        self._tail = {}

    def columns(self) -> tuple[IntColumn, bytes | memoryview, IntColumn]:
        """The term table as a snapshot ships it, ``(offsets, records,
        by_record)`` (see :meth:`over_records`): the held columns while no
        id lies past the base, else base and tail packed afresh.  Records
        past 2^31 - 1 bytes in all raise
        :class:`~repro.exceptions.ColumnOverflowError`."""
        if self._next_id == len(self._by_record):
            return self._offsets, self._records, self._by_record
        records = self.records_in_id_order()
        return (
            owned_column(accumulate(map(len, records), initial=0)),
            b"".join(records),
            owned_column(sorted(range(len(records)), key=records.__getitem__)),
        )

    def base_literals(self, term_ids: Iterable[int]) -> bool:
        """Whether every id of ``term_ids`` — ids of the frozen base — has
        a literal's record: not an IRI's, not :data:`RECLAIMED_RECORD`.

        Reads each record's kind byte in place and builds nothing per id:
        an open checks the literal flags with it.
        """
        offsets, records = self._offsets, self._records
        return _LITERAL_KINDS.issuperset(
            map(records.__getitem__, map(offsets.__getitem__, term_ids))
        )

    def _record(self, term_id: int) -> bytes:
        offsets = self._offsets
        return bytes(self._records[offsets[term_id]:offsets[term_id + 1]])

    def _find_record(self, term: Term) -> int | None:
        """The base id of ``term``, by bisecting the record-sorted ids.

        A term found once is remembered: the kernel probes the same few
        vocabulary terms on every patch, an ingest stream names the same
        predicates in every batch.
        """
        by_record = self._by_record
        if not by_record:
            return None
        key = encode_term_record(term)
        index = bisect_left(by_record, key, key=self._record)
        if index < len(by_record):
            term_id = by_record[index]
            if self._record(term_id) == key:
                self._term_to_id[term] = term_id
                return term_id
        return None

    def statistics(self) -> dict[str, int]:
        """``terms_total`` (ids assigned), how many still stand for a term
        (``terms_live``) and how many were reclaimed (``terms_reclaimed``),
        how many are not undecoded base records (``terms_decoded`` — all
        unless opened from a snapshot) and the size of the mapping served."""
        records = self._records
        undecoded = len(self._by_record) - self._decoded
        return {
            "terms_total": self._next_id,
            "terms_live": self._next_id - self._reclaimed,
            "terms_reclaimed": self._reclaimed,
            "terms_decoded": self._next_id - max(0, undecoded),
            "snapshot_mapped_bytes": len(records.obj) if isinstance(records, memoryview) else 0,
        }

    def terms_in_id_order(self) -> "list[Term | None]":
        """The term table, position == id, ``None`` where an id no longer
        stands for a term."""
        return [
            None if record == RECLAIMED_RECORD else decode_term_record(record)
            for record in self.records_in_id_order()
        ]

    def records_in_id_order(self) -> list[bytes]:
        """Every id's record, position == id: the base's copied undecoded,
        :data:`RECLAIMED_RECORD` where an id no longer stands for a term."""
        records = list(map(self._record, range(len(self._by_record))))
        records += (
            RECLAIMED_RECORD if term is None else encode_term_record(term)
            for term in map(self._tail.get, range(len(records), self._next_id))
        )
        return records

    def __len__(self) -> int:
        return self._next_id

    def __contains__(self, term: Term) -> bool:
        return self.lookup_or_none(term) is not None

    def __iter__(self) -> Iterator[Term]:
        return (term for term in self.terms_in_id_order() if term is not None)

    def encode(self, term: Term) -> int:
        """Return the id for ``term``, assigning a fresh one in the tail if
        unseen."""
        existing = self._term_to_id.get(term)
        if existing is None:
            existing = self._find_record(term)
            if existing is None:
                existing = self._next_id
                self._tail[existing] = term
                self._next_id = existing + 1
                self._term_to_id[term] = existing
        return existing

    def lookup(self, term: Term) -> int:
        """Return the id for ``term``; raise if it was never encoded."""
        found = self.lookup_or_none(term)
        if found is None:
            raise TermNotFoundError(f"term not in dictionary: {term!r}")
        return found

    def lookup_or_none(self, term: Term) -> int | None:
        """Return the id for ``term`` or None if it was never encoded."""
        found = self._term_to_id.get(term)
        if found is None:
            found = self._find_record(term)
        return found

    def decode(self, term_id: int) -> Term:
        """Return the term with id ``term_id``; raise if there is none
        (out of range, or reclaimed)."""
        base = self._base_terms
        if 0 <= term_id < len(base):
            term = base[term_id]
            if term is None:
                # First use of a base id.  Unsynchronised: two threads may
                # decode one record, the terms are equal and immutable.
                record = self._record(term_id)
                if record == RECLAIMED_RECORD:
                    raise TermNotFoundError(f"term {term_id} was reclaimed")
                term = base[term_id] = decode_term_record(record)
                self._decoded += 1
            return term
        term = self._tail.get(term_id)
        if term is None:
            term = self._retiring.get(term_id)
            if term is None:
                raise TermNotFoundError(f"no term with id {term_id}")
        return term

    # ------------------------------------------------------------------ #
    # Reclamation (live ingest; the one writer only)
    # ------------------------------------------------------------------ #

    def ids_since(self, start: int) -> list[int]:
        """The ids from ``start`` on that a term still encodes to and
        :meth:`retire` takes — the tail's — ascending."""
        return sorted(term_id for term_id in self._tail if term_id >= start)

    def retire(self, ids: Iterable[int]) -> None:
        """Stop encoding to ``ids``: the next :meth:`encode` of one of
        their terms assigns a fresh id.  Each id still decodes to its term
        until :meth:`reclaim` — a reader that took it earlier may be using
        it.  Only live ids of the tail can be retired (:class:`KeyError`)."""
        tail, retiring = self._tail, self._retiring
        for term_id in ids:
            # Into ``_retiring`` before out of the tail: a reader decoding
            # the id meanwhile finds it in one or the other.
            term = retiring[term_id] = tail[term_id]
            del tail[term_id]
            del self._term_to_id[term]

    def reclaim(self, ids: Iterable[int]) -> None:
        """Forget the terms of retired ``ids``: decoding one raises
        :class:`TermNotFoundError` from now on."""
        for term_id in ids:
            del self._retiring[term_id]
            self._reclaimed += 1
