"""Overlay backend: a frozen base plus a small mutable delta.

The overlay is the store's one writable layout: an empty
:class:`~repro.rdf.store.TripleStore` is an overlay over an empty
compact base, and live ingest writes to one over a compiled artifact.
:class:`OverlayBackend` composes

* a **frozen base** — a :class:`~repro.rdf.backend.CompactBackend` or
  :class:`~repro.rdf.shard.ShardedBackend`, typically mmap-loaded from a
  snapshot; the overlay never mutates it;
* a **delta** of added triples, and
* a **tombstone set** of removed base triples,

and merges every read view of the :class:`~repro.rdf.backend.StoreBackend`
protocol — ``triples_ids`` in all pattern shapes, counts,
``out_index``/``in_index``, the vocabulary iterators — so the composite
is observably identical to a frozen store built from the merged triples,
at any delta size.

Mutation semantics keep the two sides disjoint: adding a triple the base
already holds un-tombstoned is a no-op; adding a tombstoned triple clears
the tombstone instead of entering the delta; removing a delta triple
drops it from the delta; removing a base triple records a tombstone.
Every successful mutation bumps the monotone ``version`` counter by one
(also in :meth:`add_all_ids` — so a version never names two store
states, which is all the serve layer's cached entries and write stamps
compare).

Concurrency: writers serialize on ``_write_lock``; readers are lock-free.
Both delta indexes publish **copy-on-write rows** — the per-key inner
dicts and their frozenset leaves are never mutated after being assigned
into the outer dict, so a reader holding a row sees one consistent
generation of it.  A batch publishes each row it touches once, however
many of its triples land there, which is what makes a bulk add cost one
pass over the batch rather than a row copy per triple.  Full-scan reads
snapshot outer key sets before iterating.  A read that races a write may
observe the store just before or just after that write's rows (either is
a linearizable outcome); it never observes a torn row.

The overlay also logs the two endpoints of every mutation, in version
order (:meth:`touched_since`), which is what lets
:class:`~repro.rdf.kernel.AdjacencyKernel` patch only the adjacency rows
a delta actually dirtied.  Background re-compaction of base+delta into a
fresh frozen store lives at the serve layer (``QAEngine.compact``); after
the swap a new overlay starts empty over the new base at the same
version, so derived caches stay valid.
"""

from __future__ import annotations

import threading
from array import array
from itertools import chain
from typing import AbstractSet, Iterable, Iterator, Mapping

from repro.contracts import guarded_by
from repro.rdf.backend import IdTriple, StoreBackend

#: Shared empty views; callers treat every returned set/mapping as
#: immutable, so one instance suffices.
_EMPTY_SET: frozenset[int] = frozenset()
_EMPTY_MAP: dict[int, frozenset[int]] = {}

#: outer key → {inner key → frozenset(values)} — one permutation of a delta.
_DeltaPerm = dict[int, dict[int, frozenset[int]]]

#: Where each permutation's (outer, inner, value) sit in an SPO triple.
_KEY_ORDERS = ((0, 1, 2), (1, 2, 0), (2, 0, 1))


class _DeltaIndex:
    """Three permutation indexes (SPO, POS, OSP) as two-level dicts with
    copy-on-write rows.

    ``_spo``/``_pos``/``_osp`` map outer key → inner key → frozenset of
    values.  Writes never edit a published row in place: a batch builds
    one replacement per touched row and assigns it into the outer index,
    so lock-free readers always see a complete row.  All mutation happens
    under the owning overlay's write lock.  Each read binds a row once
    and reads only that binding, and the full scan snapshots the outer
    keys before iterating.
    """

    __slots__ = ("_spo", "_pos", "_osp", "_size")

    def __init__(self) -> None:
        self._spo: _DeltaPerm = {}
        self._pos: _DeltaPerm = {}
        self._osp: _DeltaPerm = {}
        self._size = 0

    def __len__(self) -> int:
        return self._size

    # ------------------------------------------------------------------ #
    # Writes
    # ------------------------------------------------------------------ #

    def insert(self, triples: list[IdTriple]) -> None:
        """Add triples the index does not hold."""
        self._publish(triples, insert=True)
        self._size += len(triples)

    def discard(self, triples: list[IdTriple]) -> None:
        """Drop triples the index holds."""
        self._publish(triples, insert=False)
        self._size -= len(triples)

    def _publish(self, triples: list[IdTriple], insert: bool) -> None:
        """Group ``triples`` by row in each permutation, then publish every
        touched row once: a fresh dict over fresh frozensets."""
        for perm, (a, b, c) in zip((self._spo, self._pos, self._osp), _KEY_ORDERS):
            changes: dict[int, dict[int, set[int]]] = {}
            for triple in triples:
                changes.setdefault(triple[a], {}).setdefault(triple[b], set()).add(triple[c])
            for outer, edits in changes.items():
                row = dict(perm.get(outer, _EMPTY_MAP))
                for inner, values in edits.items():
                    if insert:
                        row[inner] = row.get(inner, _EMPTY_SET) | values
                    elif remaining := row[inner] - values:
                        row[inner] = remaining
                    else:
                        del row[inner]
                if row:
                    perm[outer] = row
                else:
                    del perm[outer]

    # ------------------------------------------------------------------ #
    # Reads
    # ------------------------------------------------------------------ #

    def contains(self, s: int, p: int, o: int) -> bool:
        return o in self._spo.get(s, _EMPTY_MAP).get(p, _EMPTY_SET)

    def triples_ids(
        self, s: int | None = None, p: int | None = None, o: int | None = None
    ) -> Iterator[IdTriple]:
        """Iterate id triples matching a pattern of optional bound ids.

        Chooses the index whose prefix covers the bound positions so every
        shape is answered by direct dict seeks plus one innermost loop.
        """
        if s is not None:
            if p is not None:
                objects = self._spo.get(s, _EMPTY_MAP).get(p, _EMPTY_SET)
                if o is not None:
                    if o in objects:
                        yield (s, p, o)
                else:
                    for oid in objects:
                        yield (s, p, oid)
            elif o is not None:
                for pid in self._osp.get(o, _EMPTY_MAP).get(s, _EMPTY_SET):
                    yield (s, pid, o)
            else:
                for pid, objects in self._spo.get(s, _EMPTY_MAP).items():
                    for oid in objects:
                        yield (s, pid, oid)
        elif p is not None:
            if o is not None:
                for sid in self._pos.get(p, _EMPTY_MAP).get(o, _EMPTY_SET):
                    yield (sid, p, o)
            else:
                for oid, subjects in self._pos.get(p, _EMPTY_MAP).items():
                    for sid in subjects:
                        yield (sid, p, oid)
        elif o is not None:
            for sid, preds in self._osp.get(o, _EMPTY_MAP).items():
                for pid in preds:
                    yield (sid, pid, o)
        else:
            for sid in list(self._spo):
                for pid, objects in self._spo.get(sid, _EMPTY_MAP).items():
                    for oid in objects:
                        yield (sid, pid, oid)

    def count(
        self, s: int | None = None, p: int | None = None, o: int | None = None
    ) -> int:
        if s is None and p is None and o is None:
            return self._size
        if s is not None and p is not None and o is None:
            return len(self._spo.get(s, _EMPTY_MAP).get(p, _EMPTY_SET))
        if p is not None and o is not None and s is None:
            return len(self._pos.get(p, _EMPTY_MAP).get(o, _EMPTY_SET))
        return sum(1 for _ in self.triples_ids(s, p, o))

    def objects_ids(self, s: int, p: int) -> AbstractSet[int]:
        return self._spo.get(s, _EMPTY_MAP).get(p, _EMPTY_SET)

    def subjects_ids(self, p: int, o: int) -> AbstractSet[int]:
        return self._pos.get(p, _EMPTY_MAP).get(o, _EMPTY_SET)

    def out_index(self, s: int) -> Mapping[int, AbstractSet[int]]:
        return self._spo.get(s, _EMPTY_MAP)

    def in_index(self, o: int) -> Mapping[int, AbstractSet[int]]:
        return self._osp.get(o, _EMPTY_MAP)

    def subject_ids(self) -> Iterator[int]:
        return iter(self._spo)

    def predicate_ids(self) -> Iterator[int]:
        return iter(self._pos)

    def object_ids(self) -> Iterator[int]:
        return iter(self._osp)


def _merge_values(
    base: AbstractSet[int], added: frozenset[int], dead: frozenset[int]
) -> AbstractSet[int]:
    """``base ∖ dead ∪ added`` for one (outer, inner) key pair."""
    return (frozenset(base) - dead) | added


@guarded_by("_write_lock", "_touched")
class OverlayBackend:
    """A writable merged view over a frozen base backend.

    The captured ``base`` must be frozen (``writable`` False) and must
    never be mutated for the overlay's lifetime — the ``frozen-store``
    lint rule enforces the static side of that contract.  See the module
    docstring for merge and concurrency semantics.
    """

    __slots__ = ("_base", "_adds", "_tombs", "_version", "_touched", "_write_lock")

    def __init__(self, base: StoreBackend):
        if base.writable:
            raise ValueError(
                "OverlayBackend requires a frozen base (CompactBackend or "
                "ShardedBackend); compact the store first"
            )
        self._base = base
        self._adds = _DeltaIndex()
        self._tombs = _DeltaIndex()
        self._version = base.version
        #: Subject and object of each mutation, in version order: those of
        #: the one that made version ``base.version + k`` sit at
        #: ``2k - 2`` and ``2k - 1`` (every mutation bumps the version by one).
        self._touched = array("q")
        self._write_lock = threading.Lock()

    @property
    def base(self) -> StoreBackend:
        """The frozen base this overlay reads through (never mutate it)."""
        return self._base

    @property
    def writable(self) -> bool:
        return True

    @property
    def version(self) -> int:
        return self._version

    def __len__(self) -> int:
        return len(self._base) - len(self._tombs) + len(self._adds)

    def delta_statistics(self) -> dict[str, int]:
        """Sizes of the overlay's moving parts (serve-layer stats)."""
        return {
            "base_triples": len(self._base),
            "delta_adds": len(self._adds),
            "tombstones": len(self._tombs),
        }

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #

    def add_all_ids(self, triples: Iterable[IdTriple]) -> int:
        """Bulk insert under one lock acquisition; returns how many
        triples were new.

        Each distinct triple, in input order, clears a tombstone, is
        already present, or is new to the delta.  Every delta row the
        batch touches is then published once, and only after that do the
        version and the touched log advance: one step per change, in
        input order.  Batch ingestion never collapses distinct store
        states into one version, or a cache keyed mid-batch could alias
        the final state.  A source that raises leaves the overlay as it
        was.
        """
        with self._write_lock:
            revived: list[IdTriple] = []
            fresh: list[IdTriple] = []
            changed: list[IdTriple] = []
            tombs, adds, base = self._tombs, self._adds, self._base
            for triple in dict.fromkeys(triples):
                if tombs.contains(*triple):
                    revived.append(triple)
                elif adds.contains(*triple) or base.contains(*triple):
                    continue
                else:
                    fresh.append(triple)
                changed.append(triple)
            tombs.discard(revived)
            adds.insert(fresh)
            self._version += len(changed)
            self._touched.extend(chain.from_iterable((s, o) for s, _p, o in changed))
        return len(changed)

    def remove(self, s: int, p: int, o: int) -> bool:
        with self._write_lock:
            if self._adds.contains(s, p, o):
                self._adds.discard([(s, p, o)])
            elif self._base.contains(s, p, o) and not self._tombs.contains(s, p, o):
                self._tombs.insert([(s, p, o)])
            else:
                return False
            self._version += 1
            self._touched.extend((s, o))
        return True

    def touched_since(self, version: int) -> set[int]:
        """Nodes (subjects/objects) touched by mutations after ``version``.

        The incremental kernel patch rebuilds exactly these rows; callers
        must quiesce writers (the engine's ingest path serializes) so the
        rebuilt rows and the reported version describe one store state.
        Costs what was logged after ``version``, not what the overlay holds.
        """
        first = max(0, version - self._base.version)
        with self._write_lock:
            return set(self._touched[2 * first:])

    # ------------------------------------------------------------------ #
    # Reads
    # ------------------------------------------------------------------ #

    def contains(self, s: int, p: int, o: int) -> bool:
        if self._adds.contains(s, p, o):
            return True
        return self._base.contains(s, p, o) and not self._tombs.contains(s, p, o)

    def triples_ids(
        self, s: int | None = None, p: int | None = None, o: int | None = None
    ) -> Iterator[IdTriple]:
        tombs = self._tombs
        if len(tombs):
            contains = tombs.contains
            for triple in self._base.triples_ids(s, p, o):
                if not contains(*triple):
                    yield triple
        else:
            yield from self._base.triples_ids(s, p, o)
        yield from self._adds.triples_ids(s, p, o)

    def count(
        self, s: int | None = None, p: int | None = None, o: int | None = None
    ) -> int:
        if s is not None and p is not None and o is not None:
            return 1 if self.contains(s, p, o) else 0
        return (
            self._base.count(s, p, o)
            - self._tombs.count(s, p, o)
            + self._adds.count(s, p, o)
        )

    # The four hot views read the two deltas first and hand back the
    # base's own view untouched when neither mentions the key — the
    # common case, and the whole cost of an overlay on a cold key.

    def objects_ids(self, s: int, p: int) -> AbstractSet[int]:
        added = self._adds.objects_ids(s, p)
        dead = self._tombs.objects_ids(s, p)
        base = self._base.objects_ids(s, p)
        if not added and not dead:
            return base
        return _merge_values(base, added, dead)

    def subjects_ids(self, p: int, o: int) -> AbstractSet[int]:
        added = self._adds.subjects_ids(p, o)
        dead = self._tombs.subjects_ids(p, o)
        base = self._base.subjects_ids(p, o)
        if not added and not dead:
            return base
        return _merge_values(base, added, dead)

    @staticmethod
    def _merge_row(
        base_row: Mapping[int, AbstractSet[int]],
        added: Mapping[int, frozenset[int]],
        dead: Mapping[int, frozenset[int]],
    ) -> dict[int, AbstractSet[int]]:
        merged: dict[int, AbstractSet[int]] = {}
        for key in set(base_row).union(added):
            values = base_row.get(key, _EMPTY_SET)
            added_values = added.get(key, _EMPTY_SET)
            dead_values = dead.get(key, _EMPTY_SET)
            if added_values or dead_values:
                values = _merge_values(values, added_values, dead_values)
            if values:
                merged[key] = values
        return merged

    def out_index(self, s: int) -> Mapping[int, AbstractSet[int]]:
        added = self._adds.out_index(s)
        dead = self._tombs.out_index(s)
        base_row = self._base.out_index(s)
        if not added and not dead:
            return base_row
        return self._merge_row(base_row, added, dead)

    def in_index(self, o: int) -> Mapping[int, AbstractSet[int]]:
        added = self._adds.in_index(o)
        dead = self._tombs.in_index(o)
        base_row = self._base.in_index(o)
        if not added and not dead:
            return base_row
        return self._merge_row(base_row, added, dead)

    # ------------------------------------------------------------------ #
    # Vocabulary
    # ------------------------------------------------------------------ #

    def _live_ids(
        self,
        base_ids: Iterator[int],
        added_ids: Iterator[int],
        tombstoned_ids: Iterator[int],
        position: str,
    ) -> Iterator[int]:
        """Base vocabulary ids that still have live triples, then add-only ids.

        A base id disappears only when tombstones cover *every* base
        triple in its row, which the merged count settles exactly.
        """
        remaining = set(added_ids)
        tombstoned = set(tombstoned_ids)
        for term_id in base_ids:
            remaining.discard(term_id)
            if term_id in tombstoned and not self.count(**{position: term_id}):
                continue
            yield term_id
        yield from sorted(remaining)

    def subject_ids(self) -> Iterator[int]:
        return self._live_ids(
            self._base.subject_ids(), self._adds.subject_ids(),
            self._tombs.subject_ids(), "s",
        )

    def predicate_ids(self) -> Iterator[int]:
        return self._live_ids(
            self._base.predicate_ids(), self._adds.predicate_ids(),
            self._tombs.predicate_ids(), "p",
        )

    def object_ids(self) -> Iterator[int]:
        return self._live_ids(
            self._base.object_ids(), self._adds.object_ids(),
            self._tombs.object_ids(), "o",
        )
