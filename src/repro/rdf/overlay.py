"""Overlay backend: a frozen base plus a small mutable delta.

Live ingest needs a store that accepts writes while serving reads from a
compiled artifact.  :class:`OverlayBackend` composes

* a **frozen base** — a :class:`~repro.rdf.backend.CompactBackend` or
  :class:`~repro.rdf.shard.ShardedBackend`, typically mmap-loaded from a
  snapshot; the overlay never mutates it;
* a **delta** of added triples, and
* a **tombstone set** of removed base triples,

and merges every read view of the :class:`~repro.rdf.backend.StoreBackend`
protocol — ``triples_ids`` in all pattern shapes, counts,
``out_index``/``in_index``, the vocabulary iterators — so the composite
is observably identical to a :class:`~repro.rdf.backend.DictBackend`
rebuilt from the merged triples, at any delta size.

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
generation of it.  Full-scan reads snapshot outer key sets before
iterating.  A read that races a write may observe the store just before
or just after that write (either is a linearizable outcome); it never
observes a torn row.

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
from typing import AbstractSet, Iterable, Iterator, Mapping

from repro.contracts import guarded_by
from repro.rdf.backend import IdTriple, PermutationReads, StoreBackend

_EMPTY_SET: frozenset[int] = frozenset()

#: outer key → {inner key → frozenset(values)} — one permutation of a delta.
_DeltaPerm = dict[int, dict[int, frozenset[int]]]


class _DeltaIndex(PermutationReads[frozenset[int]]):
    """Three permutation indexes with copy-on-write rows.

    Reads are the same :class:`~repro.rdf.backend.PermutationReads` a
    ``DictBackend`` uses; the one structural difference is on the write
    side: mutation never edits a published row in place — it builds a
    replacement dict/frozenset and assigns it into the outer index, so
    lock-free readers always see a complete row.  All mutation happens
    under the owning overlay's write lock.
    """

    __slots__ = ()

    @staticmethod
    def _cow_insert(perm: _DeltaPerm, outer: int, inner: int, value: int) -> None:
        row = perm.get(outer)
        new_row = dict(row) if row else {}
        new_row[inner] = (new_row.get(inner) or _EMPTY_SET) | {value}
        perm[outer] = new_row

    @staticmethod
    def _cow_discard(perm: _DeltaPerm, outer: int, inner: int, value: int) -> None:
        row = perm.get(outer)
        if row is None:
            return
        values = row.get(inner)
        if values is None or value not in values:
            return
        new_row = dict(row)
        remaining = values - {value}
        if remaining:
            new_row[inner] = remaining
        else:
            del new_row[inner]
        if new_row:
            perm[outer] = new_row
        else:
            del perm[outer]

    def insert(self, s: int, p: int, o: int) -> None:
        self._cow_insert(self._spo, s, p, o)
        self._cow_insert(self._pos, p, o, s)
        self._cow_insert(self._osp, o, s, p)
        self._size += 1

    def discard(self, s: int, p: int, o: int) -> None:
        self._cow_discard(self._spo, s, p, o)
        self._cow_discard(self._pos, p, o, s)
        self._cow_discard(self._osp, o, s, p)
        self._size -= 1


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

    def _apply_add(self, s: int, p: int, o: int) -> bool:
        if self._tombs.contains(s, p, o):
            self._tombs.discard(s, p, o)
            return True
        if self._adds.contains(s, p, o) or self._base.contains(s, p, o):
            return False
        self._adds.insert(s, p, o)
        return True

    def _apply_remove(self, s: int, p: int, o: int) -> bool:
        if self._adds.contains(s, p, o):
            self._adds.discard(s, p, o)
            return True
        if self._base.contains(s, p, o) and not self._tombs.contains(s, p, o):
            self._tombs.insert(s, p, o)
            return True
        return False

    def add(self, s: int, p: int, o: int) -> bool:
        with self._write_lock:
            if not self._apply_add(s, p, o):
                return False
            self._version += 1
            self._touched.extend((s, o))
            return True

    def add_all_ids(self, triples: Iterable[IdTriple]) -> int:
        """Bulk insert under one lock acquisition.

        The version counter still advances once per *new* triple — batch
        ingestion must not collapse distinct store states into one
        version, or a cache keyed mid-batch could alias the final state.
        """
        added = 0
        with self._write_lock:
            for s, p, o in triples:
                if self._apply_add(s, p, o):
                    self._version += 1
                    self._touched.extend((s, o))
                    added += 1
        return added

    def remove(self, s: int, p: int, o: int) -> bool:
        with self._write_lock:
            if not self._apply_remove(s, p, o):
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
