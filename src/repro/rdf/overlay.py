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

and merges every read of the :class:`~repro.rdf.backend.StoreBackend`
protocol — ``triples_ids`` in all pattern shapes, counts, the vocabulary
iterators — so the composite is observably identical to a frozen store
built from the merged triples, at any delta size.  The views the facade
derives from those reads (a pattern's objects or subjects, a node's
degree, a kernel row) need no merge of their own.

Mutation semantics keep the two sides disjoint: adding a triple the base
already holds un-tombstoned is a no-op; adding a tombstoned triple clears
the tombstone instead of entering the delta; removing a delta triple
drops it from the delta; removing a base triple records a tombstone.
Every successful mutation bumps the monotone ``version`` counter by one
(also in :meth:`add_all_ids` — so a version never names two store
states, which is all the serve layer's cached entries and write stamps
compare).

Concurrency: writers serialize on ``_write_lock``; readers are lock-free.
The overlay's state — delta adds, tombstones, version — is one immutable
value.  A write builds the next one from the current (fresh outer dicts
over the reused copy-on-write rows, so it costs the delta's keys, not its
triples) and publishes it with one attribute store; every read binds the
state once and reads only that binding.  A reader therefore sees the
store just before a batch or just after it, never inside it — not a
triple by subject that its object does not yet list.

The overlay also logs the two endpoints of every mutation, in version
order (:meth:`touched_since`), which is what lets a patched
:class:`~repro.rdf.kernel.AdjacencyKernel` carry forward every row a
delta did not dirty.  Background re-compaction of base+delta into a
fresh frozen store lives at the serve layer (``QAEngine.compact``); after
the swap a new overlay starts empty over the new base at the same
version, so derived caches stay valid.
"""

from __future__ import annotations

import threading
from array import array
from itertools import chain
from typing import Iterable, Iterator, NamedTuple

from repro.contracts import guarded_by
from repro.rdf.backend import IdTriple, StoreBackend

#: Defaults for a missing row or cell in the delta's own lookups; never
#: handed out, and never mutated.
_EMPTY_SET: frozenset[int] = frozenset()
_EMPTY_MAP: dict[int, frozenset[int]] = {}

#: outer key → {inner key → frozenset(values)} — one permutation of a delta.
_DeltaPerm = dict[int, dict[int, frozenset[int]]]

#: Where each permutation's (outer, inner, value) sit in an SPO triple.
_KEY_ORDERS = ((0, 1, 2), (1, 2, 0), (2, 0, 1))

#: The base's vocabulary iterator for each triple position.
_VOCABULARY = ("subject_ids", "predicate_ids", "object_ids")


class _DeltaIndex:
    """Three permutation indexes (SPO, POS, OSP) as two-level dicts — an
    immutable value.

    ``_spo``/``_pos``/``_osp`` map outer key → inner key → frozenset of
    values.  Nothing in an index is edited once it is built:
    :meth:`edited` returns a new index whose outer dicts are fresh copies
    holding one replacement for each row the batch touches and the very
    same rows for every other key.
    """

    __slots__ = ("_spo", "_pos", "_osp", "_size")

    def __init__(self, spo: _DeltaPerm, pos: _DeltaPerm, osp: _DeltaPerm, size: int):
        self._spo = spo
        self._pos = pos
        self._osp = osp
        self._size = size

    def __len__(self) -> int:
        return self._size

    def edited(self, triples: list[IdTriple], insert: bool) -> "_DeltaIndex":
        """This index with ``triples`` added (``insert``: none is held) or
        dropped (all are held).  Each permutation groups the batch by row
        and builds every touched row once: a fresh dict over fresh
        frozensets."""
        if not triples:
            return self
        perms: list[_DeltaPerm] = []
        for perm, (a, b, c) in zip((self._spo, self._pos, self._osp), _KEY_ORDERS):
            changes: dict[int, dict[int, set[int]]] = {}
            for triple in triples:
                changes.setdefault(triple[a], {}).setdefault(triple[b], set()).add(triple[c])
            perm = dict(perm)
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
            perms.append(perm)
        return _DeltaIndex(*perms, self._size + (len(triples) if insert else -len(triples)))

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
            for sid, row in self._spo.items():
                for pid, objects in row.items():
                    for oid in objects:
                        yield (sid, pid, oid)

    def count(
        self, s: int | None = None, p: int | None = None, o: int | None = None
    ) -> int:
        """Matches of a pattern, from the lengths of one row's sets."""
        if s is not None:
            if p is not None:
                objects = self._spo.get(s, _EMPTY_MAP).get(p, _EMPTY_SET)
                return len(objects) if o is None else int(o in objects)
            if o is not None:
                return len(self._osp.get(o, _EMPTY_MAP).get(s, _EMPTY_SET))
            return sum(map(len, self._spo.get(s, _EMPTY_MAP).values()))
        if p is not None:
            if o is not None:
                return len(self._pos.get(p, _EMPTY_MAP).get(o, _EMPTY_SET))
            return sum(map(len, self._pos.get(p, _EMPTY_MAP).values()))
        if o is not None:
            return sum(map(len, self._osp.get(o, _EMPTY_MAP).values()))
        return self._size

    def rows(self, position: int) -> _DeltaPerm:
        """The permutation keyed by triple ``position`` (0 = s, 1 = p, 2 = o)."""
        return (self._spo, self._pos, self._osp)[position]


_EMPTY_DELTA = _DeltaIndex({}, {}, {}, 0)


class _State(NamedTuple):
    """What the overlay holds beyond its base at one version, replaced whole."""

    adds: _DeltaIndex
    tombs: _DeltaIndex
    version: int


@guarded_by("_write_lock", "_touched")
class OverlayBackend:
    """A writable merged view over a frozen base backend.

    The captured ``base`` must be frozen (``writable`` False) and must
    never be mutated for the overlay's lifetime — the ``frozen-store``
    lint rule enforces the static side of that contract.  See the module
    docstring for merge and concurrency semantics.
    """

    __slots__ = ("_base", "_state", "_touched", "_write_lock")

    def __init__(self, base: StoreBackend):
        if base.writable:
            raise ValueError(
                "OverlayBackend requires a frozen base (CompactBackend or "
                "ShardedBackend); compact the store first"
            )
        self._base = base
        self._state = _State(_EMPTY_DELTA, _EMPTY_DELTA, base.version)
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
        return self._state.version

    def __len__(self) -> int:
        adds, tombs, _version = self._state
        return len(self._base) - len(tombs) + len(adds)

    def delta_statistics(self) -> dict[str, int]:
        """Sizes of the overlay's moving parts (serve-layer stats)."""
        adds, tombs, _version = self._state
        return {
            "base_triples": len(self._base),
            "delta_adds": len(adds),
            "tombstones": len(tombs),
        }

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #

    def add_all_ids(self, triples: Iterable[IdTriple]) -> int:
        """Bulk insert under one lock acquisition; returns how many
        triples were new.

        Each distinct triple, in input order, clears a tombstone, is
        already present, or is new to the delta.  The batch's next state
        is then built and published at once, its version advanced by one
        step per change, and the touched log extended in input order.
        Batch ingestion never collapses distinct store states into one
        version, or a cache keyed mid-batch could alias the final state.
        A source that raises leaves the overlay as it was.
        """
        with self._write_lock:
            revived: list[IdTriple] = []
            fresh: list[IdTriple] = []
            changed: list[IdTriple] = []
            adds, tombs, version = self._state
            base = self._base
            for triple in dict.fromkeys(triples):
                if tombs.contains(*triple):
                    revived.append(triple)
                elif adds.contains(*triple) or base.contains(*triple):
                    continue
                else:
                    fresh.append(triple)
                changed.append(triple)
            self._state = _State(
                adds.edited(fresh, insert=True),
                tombs.edited(revived, insert=False),
                version + len(changed),
            )
            self._touched.extend(chain.from_iterable((s, o) for s, _p, o in changed))
        return len(changed)

    def remove_all_ids(self, triples: Iterable[IdTriple]) -> int:
        """Bulk delete, the mirror of :meth:`add_all_ids`; returns how many
        triples were present.

        Each distinct triple, in input order, leaves the delta, is
        tombstoned (a live base triple) or is absent; the next state is
        published at once, one version step per change.
        """
        with self._write_lock:
            dropped: list[IdTriple] = []
            buried: list[IdTriple] = []
            changed: list[IdTriple] = []
            adds, tombs, version = self._state
            base = self._base
            for triple in dict.fromkeys(triples):
                if adds.contains(*triple):
                    dropped.append(triple)
                elif base.contains(*triple) and not tombs.contains(*triple):
                    buried.append(triple)
                else:
                    continue
                changed.append(triple)
            self._state = _State(
                adds.edited(dropped, insert=False),
                tombs.edited(buried, insert=True),
                version + len(changed),
            )
            self._touched.extend(chain.from_iterable((s, o) for s, _p, o in changed))
        return len(changed)

    def remove(self, s: int, p: int, o: int) -> bool:
        return self.remove_all_ids(((s, p, o),)) == 1

    def touched_since(self, version: int) -> set[int]:
        """Nodes (subjects/objects) touched by mutations after ``version``.

        A patched kernel carries every other row forward and reads these
        afresh; callers must quiesce writers (the engine's ingest path
        serializes) so the carried rows and the reported version describe
        one store state.
        Costs what was logged after ``version``, not what the overlay holds.
        """
        first = max(0, version - self._base.version)
        with self._write_lock:
            return set(self._touched[2 * first:])

    # ------------------------------------------------------------------ #
    # Reads — each binds the state once
    # ------------------------------------------------------------------ #

    def contains(self, s: int, p: int, o: int) -> bool:
        adds, tombs, _version = self._state
        if adds.contains(s, p, o):
            return True
        return self._base.contains(s, p, o) and not tombs.contains(s, p, o)

    def triples_ids(
        self, s: int | None = None, p: int | None = None, o: int | None = None
    ) -> Iterator[IdTriple]:
        adds, tombs, _version = self._state
        if len(tombs):
            contains = tombs.contains
            for triple in self._base.triples_ids(s, p, o):
                if not contains(*triple):
                    yield triple
        else:
            yield from self._base.triples_ids(s, p, o)
        yield from adds.triples_ids(s, p, o)

    def count(
        self, s: int | None = None, p: int | None = None, o: int | None = None
    ) -> int:
        if s is not None and p is not None and o is not None:
            return 1 if self.contains(s, p, o) else 0
        adds, tombs, _version = self._state
        return self._base.count(s, p, o) - tombs.count(s, p, o) + adds.count(s, p, o)

    # ------------------------------------------------------------------ #
    # Vocabulary
    # ------------------------------------------------------------------ #

    def _live_ids(self, position: int) -> Iterator[int]:
        """Base vocabulary ids that still have live triples, then add-only ids.

        A base id disappears only when tombstones cover *every* base
        triple in its row, which the merged count settles exactly.
        """
        adds, tombs, _version = self._state
        remaining = set(adds.rows(position))
        tombstoned = tombs.rows(position)
        pattern: list[int | None] = [None, None, None]
        for term_id in getattr(self._base, _VOCABULARY[position])():
            remaining.discard(term_id)
            if term_id in tombstoned:
                pattern[position] = term_id
                if not self._base.count(*pattern) - tombs.count(*pattern) + adds.count(*pattern):
                    continue
            yield term_id
        yield from sorted(remaining)

    def subject_ids(self) -> Iterator[int]:
        return self._live_ids(0)

    def predicate_ids(self) -> Iterator[int]:
        return self._live_ids(1)

    def object_ids(self) -> Iterator[int]:
        return self._live_ids(2)
