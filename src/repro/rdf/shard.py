"""Hash-partitioned sharded backend: K frozen segments behind one store.

Everything above the storage layer assumes one in-memory index; the paper
targets DBpedia (60M triples) and the traversal systems it compares
against run at full-DBpedia scale.  :class:`ShardedBackend` closes that
gap without touching any consumer: it implements the same
:class:`~repro.rdf.backend.StoreBackend` protocol as the single-segment
backends, but physically holds K :class:`~repro.rdf.backend.
CompactBackend` segments, partitioned by **subject hash**.

Why subject hash:

* every subject's triples live in exactly one segment, so every pattern
  with a bound subject — the dominant shape in adjacency expansion,
  neighborhood pruning, and SPARQL evaluation — routes to **one**
  segment with zero merge cost;
* segments are disjoint by construction, so merged iteration never
  deduplicates triples: a k-way merge of the segments' already-sorted
  runs (``heapq.merge`` over the graph, one C sort of a predicate's or
  an object's run) reproduces the exact global sort order a single
  :class:`CompactBackend` would yield;
* the partition is a pure function of the subject id
  (:func:`shard_of`), so an offline builder, a sharded snapshot and a
  serving replica all agree on placement without any routing table.

Segments are built by :meth:`ShardedBackend.from_triples`, or opened
from a sharded snapshot (:func:`~repro.rdf.snapshot.load_snapshot`),
whose one file holds every segment's columns: each segment is then a
:class:`CompactBackend` over views of the mapping, and its pages fault
in when a read first touches them.
"""

from __future__ import annotations

import heapq
from itertools import chain
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from repro.rdf.backend import CompactBackend, FrozenBackend, IdTriple

__all__ = [
    "PARTITION_SCHEME",
    "ShardedBackend",
    "shard_of",
    "partition_triples",
]

#: Knuth's 32-bit multiplicative hash constant (2^32 / golden ratio).
_HASH_MULTIPLIER = 0x9E3779B1

#: Name of the partition function, recorded in a sharded snapshot's meta
#: so a loader can refuse a file written under a different placement.
PARTITION_SCHEME = "subject-mulfib32/1"


def shard_of(subject_id: int, shards: int) -> int:
    """The segment index a subject's triples live in.

    A multiplicative hash rather than ``id % shards``: term ids are
    assigned densely in first-seen order, so a modulo would correlate the
    partition with dataset ordering and id stride (entities minted
    alongside their label literals get ids of stride 2 — half the
    segments would sit empty).  Multiplying by the golden-ratio constant
    mixes the id into the **high** 32 bits, and the fixed-point range map
    ``(hash * K) >> 32`` reads exactly those bits — low-bit structure in
    the input never reaches the segment choice.
    """
    hashed = (subject_id * _HASH_MULTIPLIER) & 0xFFFFFFFF
    return (hashed * shards) >> 32


def partition_triples(
    triples: Iterable[IdTriple], shards: int
) -> list[list[IdTriple]]:
    """Split id triples into ``shards`` lists by subject hash."""
    if shards < 1:
        raise ValueError("shards must be a positive segment count")
    partitions: list[list[IdTriple]] = [[] for _ in range(shards)]
    for triple in triples:
        partitions[shard_of(triple[0], shards)].append(triple)
    return partitions


def _merge_distinct(iterators: Sequence[Iterator[int]]) -> Iterator[int]:
    """Ascending union of already-sorted distinct-id iterators."""
    previous: int | None = None
    for value in heapq.merge(*iterators):
        if value != previous:
            previous = value
            yield value


class ShardedBackend(FrozenBackend):
    """K hash-partitioned frozen segments behind the StoreBackend protocol.

    Reads with a bound subject route to ``shard_of(s)``'s single segment;
    unbound-subject reads k-way merge the segments' sorted runs, so every
    iterator yields in exactly the order a single
    :class:`~repro.rdf.backend.CompactBackend` over the same triples
    would.  Like :class:`CompactBackend`, the backend is frozen — mutation
    raises :class:`~repro.exceptions.StoreFrozenError`.
    """

    __slots__ = ("_segments", "_shards")

    def __init__(
        self,
        segments: Iterable[CompactBackend],
        version: int = 0,
    ) -> None:
        self._segments = tuple(segments)
        if not self._segments:
            raise ValueError("a sharded backend needs at least one segment")
        self._shards = len(self._segments)
        self._size = sum(map(len, self._segments))
        self._version = version

    @classmethod
    def from_triples(
        cls,
        triples: Iterable[IdTriple],
        shards: int,
        version: int = 0,
    ) -> "ShardedBackend":
        """Partition triples by subject hash and build every segment."""
        return cls(
            (
                CompactBackend.from_triples(partition, version=version)
                for partition in partition_triples(triples, shards)
            ),
            version=version,
        )

    @property
    def shards(self) -> int:
        return self._shards

    @property
    def segments(self) -> tuple[CompactBackend, ...]:
        """The K segments, in partition order."""
        return self._segments

    def _segment_of(self, subject_id: int) -> CompactBackend:
        return self._segments[shard_of(subject_id, self._shards)]

    # ------------------------------------------------------------------ #
    # StoreBackend reads (lifecycle and refusals: FrozenBackend)
    # ------------------------------------------------------------------ #

    def contains(self, s: int, p: int, o: int) -> bool:
        return self._segment_of(s).contains(s, p, o)

    def triples_ids(
        self, s: int | None = None, p: int | None = None, o: int | None = None
    ) -> Iterator[IdTriple]:
        if s is not None:
            # Subject-bound patterns are single-segment by construction.
            return self._segment_of(s).triples_ids(s, p, o)
        # Subjects are disjoint across segments, so these merges never
        # deduplicate and equal keys never straddle two segments.
        runs = [segment.triples_ids(s, p, o) for segment in self._segments]
        if p is not None:
            # POS runs ordered by (object, subject).  One predicate's run,
            # not the graph: a C sort of the concatenated sorted runs
            # merges them several times faster than ``heapq.merge``.
            key = itemgetter(0) if o is not None else itemgetter(2, 0)
            return iter(sorted(chain.from_iterable(runs), key=key))
        if o is not None:
            # OSP runs, ordered by (subject, predicate): one node's run.
            return iter(sorted(chain.from_iterable(runs), key=itemgetter(0, 1)))
        return heapq.merge(*runs)  # full scan: natural SPO order

    def count(
        self, s: int | None = None, p: int | None = None, o: int | None = None
    ) -> int:
        if s is not None:
            return self._segment_of(s).count(s, p, o)
        if s is None and p is None and o is None:
            return self._size
        return sum(segment.count(s, p, o) for segment in self._segments)

    def subject_ids(self) -> Iterator[int]:
        # Disjoint by the partition function, but merging distinct is as
        # cheap and keeps the contract obvious.
        return _merge_distinct(
            [segment.subject_ids() for segment in self._segments]
        )

    def predicate_ids(self) -> Iterator[int]:
        return _merge_distinct(
            [segment.predicate_ids() for segment in self._segments]
        )

    def object_ids(self) -> Iterator[int]:
        return _merge_distinct(
            [segment.object_ids() for segment in self._segments]
        )
