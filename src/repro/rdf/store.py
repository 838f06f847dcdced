"""Triple store facade over a pluggable storage backend.

The store answers any triple pattern with one or two bound positions by a
direct seek instead of a scan, via three permutation indexes (SPO, POS,
OSP).  The physical index layout is a :class:`repro.rdf.backend.
StoreBackend`; a graph is built offline and frozen, and writes go to one
mutable layer over it:

* :class:`~repro.rdf.backend.CompactBackend` is the frozen, sorted-column
  layout every built graph lands in — :meth:`TripleStore.build` for a
  graph written in code (the bundled knowledge bases, the generated
  ones), :func:`~repro.rdf.io.load_store` for a dump — and the layout of
  the compiled-snapshot format;
* :class:`~repro.rdf.shard.ShardedBackend` (see :meth:`TripleStore.
  sharded`) hash-partitions the triples by subject into K frozen compact
  segments, which a sharded snapshot stores as K runs of columns in its
  one file;
* :class:`~repro.rdf.overlay.OverlayBackend` (see :meth:`TripleStore.
  overlay`) is the only writable layout: a delta and tombstones over a
  frozen base.  ``TripleStore()`` is one over an empty compact base.

The public API accepts and returns :class:`Triple` objects with real
terms; the ``*_ids`` methods expose the integer layer that the matching
and mining algorithms use directly.  All mutation goes through
:meth:`add_all`/:meth:`remove`; frozen backends raise
:class:`~repro.exceptions.StoreFrozenError`.
"""

from __future__ import annotations

from itertools import compress, count, filterfalse
from operator import itemgetter
from typing import Iterable, Iterator

from repro.exceptions import StoreFrozenError
from repro.rdf.backend import CompactBackend, StoreBackend
from repro.rdf.collector import collector_paused
from repro.rdf.dictionary import TermDictionary
from repro.rdf.overlay import OverlayBackend
from repro.rdf.shard import ShardedBackend
from repro.rdf.terms import IRI, Literal, Term, Triple

_IdTriple = tuple[int, int, int]


def flag_literal(flags: bytearray, term_id: int) -> None:
    """Set ``term_id``'s byte in a literal-flag column, growing the column
    to reach it."""
    if term_id >= len(flags):
        flags.extend(bytes(term_id + 1 - len(flags)))
    flags[term_id] = 1


class TripleStore:
    """An in-memory, dictionary-encoded RDF triple store.

    Parameters
    ----------
    backend:
        The physical index (defaults to an empty writable
        :class:`~repro.rdf.overlay.OverlayBackend` over an empty compact
        base).
    dictionary:
        The term dictionary to encode against.  Sharing one between
        stores keeps ids stable — how :meth:`compacted` and the snapshot
        loader preserve every id-indexed side structure.
    literal_flags:
        One byte per term id, 1 where the id is a literal some triple of
        ``backend`` names (copied, then extended with zeros to every id
        ``dictionary`` has assigned).  Ids past its end are not literals.

    The literal bookkeeping is that byte column, in every store: a byte
    per term rather than a ``set`` entry per literal (~80 bytes each).
    """

    def __init__(
        self,
        backend: StoreBackend | None = None,
        dictionary: TermDictionary | None = None,
        literal_flags: bytes | bytearray | memoryview | None = None,
    ) -> None:
        self.dictionary = dictionary if dictionary is not None else TermDictionary()
        self._backend: StoreBackend = (
            backend if backend is not None else OverlayBackend(CompactBackend.from_triples(()))
        )
        self._literal_flags = bytearray(literal_flags) if literal_flags is not None else bytearray()
        self._cover_dictionary()

    @classmethod
    def build(cls, triples: Iterable[Triple]) -> "TripleStore":
        """A frozen store of ``triples``, built in one pass.

        Terms are interned subject, predicate, object, triple by triple in
        input order, literal objects flagged; :meth:`frozen` does the rest.
        To write to the result, take :meth:`overlay`.
        """
        dictionary = TermDictionary()
        encode = dictionary.encode
        flags = bytearray()

        def id_triples() -> Iterator[_IdTriple]:
            for triple in triples:
                s = encode(triple.subject)
                p = encode(triple.predicate)
                o = encode(triple.object)
                if isinstance(triple.object, Literal):
                    flag_literal(flags, o)
                yield s, p, o

        return cls.frozen(id_triples(), dictionary, flags)

    @classmethod
    def frozen(
        cls, id_triples: Iterable[_IdTriple], dictionary: TermDictionary, literal_flags: bytearray
    ) -> "TripleStore":
        """Where both graph builders (:meth:`build`,
        :func:`~repro.rdf.io.load_store`) end: the distinct id triples,
        drawn in full first, sorted into a
        :class:`~repro.rdf.backend.CompactBackend` whose ``version`` counts
        them, and the dictionary frozen into the term columns a snapshot
        ships (:meth:`~repro.rdf.dictionary.TermDictionary.freeze`)."""
        with collector_paused():
            ids = set(id_triples)
            backend = CompactBackend.from_triples(ids, version=len(ids))
            dictionary.freeze()
        return cls(backend, dictionary, literal_flags)

    @property
    def backend(self) -> StoreBackend:
        """The physical index this facade delegates to (read-only handle)."""
        return self._backend

    def _cover_dictionary(self) -> None:
        """Give every id the dictionary has assigned a flag: an id past
        the column's end costs :meth:`is_literal_id` a caught exception,
        and in a built graph most ids come after its last literal."""
        flags = self._literal_flags
        missing = len(self.dictionary) - len(flags)
        if missing > 0:
            flags.extend(bytes(missing))

    @property
    def literal_flags(self) -> bytearray:
        """The literal-flag column (read-only handle): byte ``i`` is 1
        where id ``i`` is a literal some triple names."""
        return self._literal_flags

    @property
    def writable(self) -> bool:
        return self._backend.writable

    @property
    def version(self) -> int:
        """Monotone mutation counter: bumps on every successful add/remove.

        Anything derived from the store's contents — the adjacency kernel,
        the serving layer's answer cache — keys or stamps itself with this
        value, so a stale derivation is detectable by a plain int compare.
        A frozen (compacted/snapshot-loaded) store keeps the version it
        was built from.
        """
        return self._backend.version

    def compacted(self) -> "TripleStore":
        """A frozen, read-optimized copy of this store.

        The term dictionary is *shared* (ids stay stable, so every mined
        path, kernel row, and index entry keyed by id remains valid) and
        the triples are re-laid-out into a
        :class:`~repro.rdf.backend.CompactBackend`.  The copy carries the
        current version forward.  A store that is already compact (loaded
        by :func:`~repro.rdf.io.load_store`, say) is not re-sorted: the
        copy shares its backend.
        """
        if isinstance(self._backend, CompactBackend):
            return self._rehoused(self._backend)
        with collector_paused():
            backend = CompactBackend.from_triples(
                self._backend.triples_ids(), version=self._backend.version
            )
        return self._rehoused(backend)

    def sharded(self, shards: int) -> "TripleStore":
        """A frozen copy partitioned into ``shards`` compact segments.

        Like :meth:`compacted` — shared dictionary, stable ids, version
        carried forward — but the physical index is a
        :class:`~repro.rdf.shard.ShardedBackend`: triples hash-partitioned
        by subject into K frozen segments with merged read views.
        """
        with collector_paused():
            backend = ShardedBackend.from_triples(
                self._backend.triples_ids(),
                shards=shards,
                version=self._backend.version,
            )
        return self._rehoused(backend)

    def overlay(self) -> "TripleStore":
        """A writable overlay store over this store's frozen backend.

        The base must already be frozen (``compacted()``, ``sharded()``,
        loaded from a dump or a snapshot); the overlay captures it read-only and layers
        a mutable delta plus tombstones on top — see
        :class:`~repro.rdf.overlay.OverlayBackend`.  Dictionary shared,
        version carried forward, literal bookkeeping copied.
        """
        return self._rehoused(OverlayBackend(self._backend))

    def _rehoused(self, backend: StoreBackend) -> "TripleStore":
        """The same content behind another backend: dictionary shared,
        literal bookkeeping copied."""
        return TripleStore(
            backend=backend,
            dictionary=self.dictionary,
            literal_flags=self._literal_flags,
        )

    def swap_backend(self, backend: StoreBackend) -> None:
        """Atomically replace the physical index with an equivalent one.

        This is the in-process compaction swap: the caller compacts
        base+delta into a fresh frozen backend (optionally a new overlay
        over it) holding *identical* content at the *same* version, then
        swaps it in under live readers.  In-flight iterators keep the old
        backend alive until they finish (its mmap is released when the
        last reference drains); new reads bind the new backend.  Length
        and version must match — content equivalence is the caller's
        contract, these two are the cheap guards on it.
        """
        if len(backend) != len(self._backend):
            raise ValueError(
                f"swap_backend size mismatch: {len(backend)} != "
                f"{len(self._backend)} triples"
            )
        if backend.version < self._backend.version:
            raise ValueError(
                f"swap_backend would rewind version "
                f"{self._backend.version} -> {backend.version}"
            )
        self._backend = backend

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #

    def add(self, triple: Triple) -> bool:
        """Insert a triple.  Returns True if it was new, False if present."""
        return self.add_all((triple,)) == 1

    def add_all(self, triples: Iterable[Triple]) -> int:
        """Insert many triples; returns the number that were new.

        Bulk fast path: terms are encoded and literals booked in one pass
        here, then the id triples go to the overlay's ``add_all_ids`` (one
        lock acquisition, one publish per touched row, still one version
        bump per new triple).  Runs with the cycle collector paused, like every
        bulk builder (:mod:`repro.rdf.collector`).
        """
        if not self._backend.writable:
            raise StoreFrozenError("cannot add to a frozen store; write through .overlay()")
        encode = self.dictionary.encode
        flags = self._literal_flags
        encoded: list[_IdTriple] = []
        with collector_paused():
            for triple in triples:
                o = encode(triple.object)
                if isinstance(triple.object, Literal):
                    flag_literal(flags, o)
                encoded.append((encode(triple.subject), encode(triple.predicate), o))
            self._cover_dictionary()
            return self._backend.add_all_ids(encoded)

    def remove(self, triple: Triple) -> bool:
        """Delete a triple.  Returns True if it was present."""
        if not self._backend.writable:
            raise StoreFrozenError("cannot remove from a frozen store; write through .overlay()")
        s = self.dictionary.lookup_or_none(triple.subject)
        p = self.dictionary.lookup_or_none(triple.predicate)
        o = self.dictionary.lookup_or_none(triple.object)
        if s is None or p is None or o is None:
            return False
        removed = self._backend.remove(s, p, o)
        # A literal only exists as an object; once its OSP run empties no
        # triple mentions it and the literal bookkeeping must forget it,
        # or is_literal_id/literal_count/statistics report stale literals.
        if removed and self.is_literal_id(o) and not self._backend.count(o=o):
            self._literal_flags[o] = 0
        return removed

    def retire_unnamed(self, candidates: Iterable[int]) -> list[int]:
        """Retire every candidate term id that no triple names, in any
        position, and return those ids.

        The dictionary stops encoding to them
        (:meth:`~repro.rdf.dictionary.TermDictionary.retire`) and the
        literal bookkeeping forgets them; the caller reclaims them once no
        reader can still hold one.  Reads the store's vocabulary once —
        one step per distinct term, which a compaction has just paid many
        times over — rather than seeking every candidate three times.
        """
        backend = self._backend
        named = set(backend.subject_ids())
        named.update(backend.predicate_ids())
        named.update(backend.object_ids())
        unnamed = [term_id for term_id in candidates if term_id not in named]
        self.dictionary.retire(unnamed)
        retired = [term_id for term_id in unnamed if self.is_literal_id(term_id)]
        if retired:
            # A new column, not an edit: readers may be iterating this one.
            flags = bytearray(self._literal_flags)
            for term_id in retired:
                flags[term_id] = 0
            self._literal_flags = flags
        return unnamed

    # ------------------------------------------------------------------ #
    # Size / membership
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self._backend)

    def __contains__(self, triple: Triple) -> bool:
        s = self.dictionary.lookup_or_none(triple.subject)
        p = self.dictionary.lookup_or_none(triple.predicate)
        o = self.dictionary.lookup_or_none(triple.object)
        if s is None or p is None or o is None:
            return False
        return self._backend.contains(s, p, o)

    def is_literal_id(self, term_id: int) -> bool:
        """Whether the (non-negative) id is a literal some triple names:
        one index into the flag column — the kernel asks once per
        neighbour slot."""
        try:
            return self._literal_flags[term_id] == 1
        except IndexError:  # assigned since this store's last write
            return False

    # ------------------------------------------------------------------ #
    # Pattern matching
    # ------------------------------------------------------------------ #

    def triples(
        self,
        subject: IRI | None = None,
        predicate: IRI | None = None,
        object: Term | None = None,
    ) -> Iterator[Triple]:
        """Iterate triples matching a pattern; None positions are wildcards."""
        s = self._bound_id(subject)
        p = self._bound_id(predicate)
        o = self._bound_id(object)
        if -1 in (s, p, o):  # a bound term that was never stored matches nothing
            return
        decode = self.dictionary.decode
        for sid, pid, oid in self._backend.triples_ids(s, p, o):
            yield Triple(decode(sid), decode(pid), decode(oid))

    def _bound_id(self, term: Term | None) -> int | None:
        """Map a pattern position to an id; -1 marks an unknown bound term."""
        if term is None:
            return None
        found = self.dictionary.lookup_or_none(term)
        return -1 if found is None else found

    def triples_ids(
        self, s: int | None = None, p: int | None = None, o: int | None = None
    ) -> Iterator[_IdTriple]:
        """Iterate id triples matching a pattern of optional bound ids."""
        return self._backend.triples_ids(s, p, o)

    def count(
        self, s: int | None = None, p: int | None = None, o: int | None = None
    ) -> int:
        """Number of triples matching an id pattern (O(1)/O(log n) for
        common shapes, depending on the backend)."""
        return self._backend.count(s, p, o)

    # ------------------------------------------------------------------ #
    # Derived views
    # ------------------------------------------------------------------ #
    #
    # Each is one run of one permutation, read through ``triples_ids``
    # and shaped here, once, rather than implemented per backend: every
    # layout (and the overlay's merge) answers the run, so every layout
    # answers the view.  Each call returns a fresh collection.

    def objects_ids(self, s: int, p: int) -> frozenset[int]:
        """Objects of ``(s, p, ?)``, possibly empty."""
        return frozenset(map(itemgetter(2), self._backend.triples_ids(s, p)))

    def subjects_ids(self, p: int, o: int) -> frozenset[int]:
        """Subjects of ``(?, p, o)``, possibly empty."""
        return frozenset(map(itemgetter(0), self._backend.triples_ids(None, p, o)))

    def out_index(self, s: int) -> dict[int, set[int]]:
        """The SPO row of a subject: predicate → object set (the
        benchmark's subject-lookup probe reads it)."""
        row: dict[int, set[int]] = {}
        for _s, p, o in self._backend.triples_ids(s):
            row.setdefault(p, set()).add(o)
        return row

    def objects_of_predicate(self, p: int) -> Iterator[int]:
        """Distinct object ids appearing with predicate ``p``.

        Derived here, once, from the backend's ``(?, p, ?)`` scan rather
        than implemented per backend: the one caller (the class-vertex
        set) runs once per graph refresh.
        """
        return iter(dict.fromkeys(o for _s, _p, o in self._backend.triples_ids(p=p)))

    def iter_literal_ids(self) -> Iterator[int]:
        """Ids of every stored literal term, ascending."""
        return compress(count(), self._literal_flags)

    def literal_count(self) -> int:
        return self._literal_flags.count(1)

    # ------------------------------------------------------------------ #
    # Vocabulary accessors
    # ------------------------------------------------------------------ #

    def subject_ids(self) -> Iterator[int]:
        return self._backend.subject_ids()

    def predicate_ids(self) -> Iterator[int]:
        return self._backend.predicate_ids()

    def object_ids(self) -> Iterator[int]:
        return self._backend.object_ids()

    def subjects(self) -> Iterator[Term]:
        return (self.dictionary.decode(sid) for sid in self._backend.subject_ids())

    def predicates(self) -> Iterator[Term]:
        return (self.dictionary.decode(pid) for pid in self._backend.predicate_ids())

    def objects(self) -> Iterator[Term]:
        return (self.dictionary.decode(oid) for oid in self._backend.object_ids())

    def node_ids(self) -> set[int]:
        """Ids of all graph nodes (subjects and non-literal objects)."""
        nodes = set(self._backend.subject_ids())
        nodes.update(filterfalse(self.is_literal_id, self._backend.object_ids()))
        return nodes

    def statistics(self) -> dict[str, int]:
        """Headline dataset statistics, in the shape of the paper's Table 4."""
        return {
            "triples": len(self._backend),
            "nodes": len(self.node_ids()),
            "predicates": sum(1 for _ in self._backend.predicate_ids()),
            "literals": self.literal_count(),
        }
