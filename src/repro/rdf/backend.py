"""Pluggable storage backends behind the :class:`TripleStore` facade.

The store's id-level read/write surface is captured by the
:class:`StoreBackend` protocol so the physical layout can be chosen per
workload.  There is one writable layout and two frozen ones:

* :class:`CompactBackend` — the three permutations (SPO, POS, OSP) as
  parallel sorted int64 columns answered by bisect seeks (the RDF-3X
  layout).  Frozen after construction, allocation-lean, and directly
  persistable: the compiled-snapshot format (:mod:`repro.rdf.snapshot`)
  writes the column bytes verbatim.  Every built graph lands here — a
  dump by :func:`repro.rdf.io.load_store`, a graph written in code by
  :meth:`repro.rdf.store.TripleStore.build`.  Columns may be **owned**
  ``array('q')`` instances or **borrowed** ``memoryview`` casts over an
  ``mmap`` of the snapshot file — the zero-copy path: every bisect seek
  reads the page-cache copy of the file directly, so N forked serving
  workers share one physical copy of the triple columns.
* :class:`~repro.rdf.shard.ShardedBackend` — K compact segments,
  hash-partitioned by subject.
* :class:`~repro.rdf.overlay.OverlayBackend` — the only writable layout:
  a frozen base plus a copy-on-write delta and tombstones.

The protocol is the **core** every backend implements natively, 11
members: lifecycle and mutation (``writable``, ``version``, ``__len__``,
``add_all_ids``, ``remove``), ``contains`` / ``triples_ids`` /
``count``, and the three vocabulary iterators.  Every pattern is one run
of one permutation, so ``triples_ids`` and ``count`` are all the online
phase asks for: one cold 99-question QALD pass on the 24.8k-triple
explosion graph makes 8 714 ``count`` calls (node degrees) and 2 127
``triples_ids`` calls, a warm pass 77 ``triples_ids`` calls.  Every other
view is **derived once** on top of that core: a pattern's objects or
subjects, a subject's predicate → objects row and the distinct objects
of a predicate in the facade, a kernel row in :mod:`repro.rdf.kernel`
from a node's two runs (``triples_ids(s=node)`` and
``triples_ids(o=node)``) the first time it is read.  The frozen layouts
share their lifecycle half, :class:`FrozenBackend`, instead of copying
it.

Nothing outside :mod:`repro.rdf` imports this module: all access goes
through the :class:`StoreBackend` protocol via the
:class:`repro.rdf.store.TripleStore` facade, which is also the only place
a store is frozen, sharded or overlaid.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from itertools import islice, repeat
from operator import lt
from typing import Iterable, Iterator, Protocol, runtime_checkable

from repro.exceptions import StoreFrozenError

IdTriple = tuple[int, int, int]

#: A sorted int64 column: an owned ``array('q')`` or a borrowed
#: ``memoryview`` (format ``'q'``) over a snapshot mapping.  Both support
#: ``len``, indexing, slicing, iteration, and ``tobytes()`` — everything
#: the bisect seeks and the snapshot writer need.
IntColumn = array | memoryview


def strictly_ascending(column: IntColumn) -> bool:
    """Whether every value of ``column`` exceeds the one before it (what a
    reader checks of a snapshot column it is about to bisect)."""
    return all(map(lt, column, islice(column, 1, None)))


@runtime_checkable
class StoreBackend(Protocol):
    """The id-level storage surface every backend provides.

    Mutation (``add_all_ids``/``remove``) raises :class:`StoreFrozenError`
    on read-only backends; ``writable`` says so up front.  Reads return
    iterators over id triples, counts and booleans.
    """

    @property
    def writable(self) -> bool: ...

    @property
    def version(self) -> int: ...

    def __len__(self) -> int: ...

    def add_all_ids(self, triples: Iterable[IdTriple]) -> int: ...

    def remove(self, s: int, p: int, o: int) -> bool: ...

    def contains(self, s: int, p: int, o: int) -> bool: ...

    def triples_ids(
        self, s: int | None = None, p: int | None = None, o: int | None = None
    ) -> Iterator[IdTriple]: ...

    def count(
        self, s: int | None = None, p: int | None = None, o: int | None = None
    ) -> int: ...

    def subject_ids(self) -> Iterator[int]: ...

    def predicate_ids(self) -> Iterator[int]: ...

    def object_ids(self) -> Iterator[int]: ...


class FrozenBackend:
    """The lifecycle half of a frozen backend: fixed size and version,
    every mutation refused with :class:`StoreFrozenError`."""

    __slots__ = ("_size", "_version")

    @property
    def writable(self) -> bool:
        return False

    @property
    def version(self) -> int:
        return self._version

    def __len__(self) -> int:
        return self._size

    def _refusal(self) -> StoreFrozenError:
        return StoreFrozenError(
            f"{type(self).__name__} is read-only; write to a loaded or "
            "compacted store through TripleStore.overlay(), or recompile "
            "the snapshot"
        )

    def add_all_ids(self, triples: Iterable[IdTriple]) -> int:
        raise self._refusal()

    def remove(self, s: int, p: int, o: int) -> bool:
        raise self._refusal()


def _prefix_run(
    first: IntColumn, a: int, second: IntColumn, b: int | None = None
) -> tuple[int, int]:
    """The [lo, hi) rows of one permutation whose leading key is ``a``
    and, when given, whose second key is ``b``."""
    lo = bisect_left(first, a)
    hi = bisect_right(first, a, lo)
    if b is not None and lo < hi:
        lo, hi = bisect_left(second, b, lo, hi), bisect_right(second, b, lo, hi)
    return lo, hi


class CompactBackend(FrozenBackend):
    """Frozen, read-optimized backend: sorted permutation columns.

    Each permutation (SPO, POS, OSP) is three parallel int64 columns
    sorted lexicographically by the permutation's key order; any pattern
    with bound positions narrows to a contiguous run with at most two
    rounds of bisects.  Compared to dict-of-set permutation indexes this
    trades point updates (mutation raises :class:`StoreFrozenError`;
    writes go through an overlay) for a fraction of the memory — 9
    machine words per triple instead of hash tables of boxed ints — and
    for a layout that serializes as raw bytes.

    Columns are :data:`IntColumn` — either owned ``array('q')``
    instances (``from_triples``, the copying snapshot loader) or
    borrowed ``memoryview`` casts over an ``mmap`` of a snapshot file
    (the zero-copy loader).  The seek code is identical for both; a
    borrowed column keeps the underlying mapping alive for as long as
    the backend exists.

    Every ``count`` shape with one or two bound positions is O(log n):
    it is a run length, never an iteration.
    """

    __slots__ = (
        "_spo_s", "_spo_p", "_spo_o",
        "_pos_p", "_pos_o", "_pos_s",
        "_osp_o", "_osp_s", "_osp_p",
    )

    def __init__(
        self,
        spo: tuple[IntColumn, IntColumn, IntColumn],
        pos: tuple[IntColumn, IntColumn, IntColumn],
        osp: tuple[IntColumn, IntColumn, IntColumn],
        version: int = 0,
    ):
        self._spo_s, self._spo_p, self._spo_o = spo
        self._pos_p, self._pos_o, self._pos_s = pos
        self._osp_o, self._osp_s, self._osp_p = osp
        self._size = len(self._spo_s)
        self._version = version
        if {len(column) for column in (*spo, *pos, *osp)} != {self._size}:
            raise ValueError("permutation columns disagree on triple count")

    @classmethod
    def from_triples(cls, triples: Iterable[IdTriple], version: int = 0) -> "CompactBackend":
        """Build all three permutations from id triples (deduplicated).

        Each permutation's sorted rows are transposed into its three
        columns in one ``zip(*rows)`` pass, and the other two
        permutations' rows are zipped from the SPO columns.
        """

        def transposed(rows: Iterable[IdTriple]) -> tuple[tuple[int, ...], ...]:
            return tuple(zip(*sorted(rows))) or ((), (), ())

        def owned(columns: tuple[tuple[int, ...], ...]) -> tuple[array, array, array]:
            first, second, third = (array("q", column) for column in columns)
            return first, second, third

        spo = transposed(set(triples))
        s, p, o = spo
        pos = transposed(zip(p, o, s))
        osp = transposed(zip(o, s, p))
        return cls(owned(spo), owned(pos), owned(osp), version=version)

    # ------------------------------------------------------------------ #
    # Reads
    # ------------------------------------------------------------------ #

    def contains(self, s: int, p: int, o: int) -> bool:
        lo, hi = _prefix_run(self._spo_s, s, self._spo_p, p)
        position = bisect_left(self._spo_o, o, lo, hi)
        return position < hi and self._spo_o[position] == o

    def triples_ids(
        self, s: int | None = None, p: int | None = None, o: int | None = None
    ) -> Iterator[IdTriple]:
        # Every shape is one run of one permutation, zipped in C from
        # slices of its columns (a slice of a borrowed column is a view).
        if s is not None:
            if o is not None and p is None:
                lo, hi = _prefix_run(self._osp_o, o, self._osp_s, s)
                return zip(repeat(s), self._osp_p[lo:hi], repeat(o))
            if o is not None:
                return iter(((s, p, o),) if self.contains(s, p, o) else ())  # type: ignore[arg-type]
            lo, hi = _prefix_run(self._spo_s, s, self._spo_p, p)
            return zip(repeat(s), self._spo_p[lo:hi], self._spo_o[lo:hi])
        if p is not None:
            lo, hi = _prefix_run(self._pos_p, p, self._pos_o, o)
            return zip(self._pos_s[lo:hi], repeat(p), self._pos_o[lo:hi])
        if o is not None:
            lo, hi = _prefix_run(self._osp_o, o, self._osp_s)
            return zip(self._osp_s[lo:hi], self._osp_p[lo:hi], repeat(o))
        return zip(self._spo_s, self._spo_p, self._spo_o)

    def count(
        self, s: int | None = None, p: int | None = None, o: int | None = None
    ) -> int:
        if s is None and p is None and o is None:
            return self._size
        if s is not None and p is not None and o is not None:
            return 1 if self.contains(s, p, o) else 0
        # Every remaining shape is a contiguous run in one permutation.
        if s is not None:
            if o is not None:
                lo, hi = _prefix_run(self._osp_o, o, self._osp_s, s)
            else:
                lo, hi = _prefix_run(self._spo_s, s, self._spo_p, p)
        elif p is not None:
            lo, hi = _prefix_run(self._pos_p, p, self._pos_o, o)
        else:
            lo, hi = _prefix_run(self._osp_o, o, self._osp_s)  # type: ignore[arg-type]
        return hi - lo

    @staticmethod
    def _distinct(column: IntColumn) -> Iterator[int]:
        size = len(column)
        index = 0
        while index < size:
            value = column[index]
            yield value
            index = bisect_right(column, value, index, size)

    def subject_ids(self) -> Iterator[int]:
        return self._distinct(self._spo_s)

    def predicate_ids(self) -> Iterator[int]:
        return self._distinct(self._pos_p)

    def object_ids(self) -> Iterator[int]:
        return self._distinct(self._osp_o)

    # ------------------------------------------------------------------ #
    # Persistence surface (repro.rdf.snapshot only)
    # ------------------------------------------------------------------ #

    def permutation_columns(self) -> dict[str, tuple[IntColumn, IntColumn, IntColumn]]:
        """The raw sorted columns, keyed by permutation name.

        Only :mod:`repro.rdf.snapshot` should call this: the columns are
        the live index, returned without copying so the snapshot writer
        can stream ``tobytes()`` straight out.  On an mmap-loaded backend
        the tuples hold borrowed ``memoryview`` columns.
        """
        return {
            "spo": (self._spo_s, self._spo_p, self._spo_o),
            "pos": (self._pos_p, self._pos_o, self._pos_s),
            "osp": (self._osp_o, self._osp_s, self._osp_p),
        }
