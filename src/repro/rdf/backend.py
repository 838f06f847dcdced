"""Pluggable storage backends behind the :class:`TripleStore` facade.

The store's id-level read/write surface is captured by the
:class:`StoreBackend` protocol so the physical layout can be chosen per
workload.  There is one writable layout and two frozen ones:

* :class:`CompactBackend` — the three permutations (SPO, POS, OSP) as
  sorted run tables of 4-byte integer columns answered by bisect seeks
  (the RDF-3X layout, with each permutation's first column stored once
  per distinct key).  Frozen after construction, allocation-lean, and
  directly persistable: the compiled-snapshot format
  (:mod:`repro.rdf.snapshot`) writes the column bytes verbatim.  Every
  built graph lands here — a dump by :func:`repro.rdf.io.load_store`, a
  graph written in code by :meth:`repro.rdf.store.TripleStore.build`.
  Columns may be **owned** ``array('i')`` instances or **borrowed**
  ``memoryview`` casts over an ``mmap`` of the snapshot file — the
  zero-copy path: every bisect seek reads the page-cache copy of the
  file directly, so N forked serving workers share one physical copy of
  the triple columns.
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

from bisect import bisect_left, bisect_right
from itertools import chain, compress, count, islice, repeat
from operator import ne, sub
from typing import Iterable, Iterator, Protocol, runtime_checkable

from repro.exceptions import StoreFrozenError
from repro.rdf.columns import (
    IntColumn,
    ids_below,
    owned_column,
    run_starts_rise,
    runs_ascend,
    strictly_ascending,
)

IdTriple = tuple[int, int, int]

#: One permutation's run table: ``(keys, starts, second, third)``.
Permutation = tuple[IntColumn, IntColumn, IntColumn, IntColumn]


def _expanded(keys: IntColumn, starts: IntColumn) -> Iterator[int]:
    """A run table's first column, each key once per row of its run,
    expanded in C."""
    return chain.from_iterable(map(repeat, keys, map(sub, islice(starts, 1, None), starts)))


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
    permutation: Permutation, a: int, b: int | None = None
) -> tuple[int, int]:
    """The [lo, hi) rows of one permutation whose leading key is ``a``
    and, when given, whose second key is ``b``: ``a``'s run, found by
    bisecting the distinct keys, then narrowed by two bisects of the
    second column."""
    keys, starts, second, _third = permutation
    i = bisect_left(keys, a)
    if i == len(keys) or keys[i] != a:
        return 0, 0
    lo, hi = starts[i], starts[i + 1]
    if b is not None:
        lo, hi = bisect_left(second, b, lo, hi), bisect_right(second, b, lo, hi)
    return lo, hi


def _sorted_columns(rows: Iterable[IdTriple]) -> tuple[tuple[int, ...], ...]:
    """``rows`` sorted and transposed into three columns in one
    ``zip(*rows)`` pass."""
    return tuple(zip(*sorted(rows))) or ((), (), ())


def _run_table(first: tuple[int, ...], second: tuple[int, ...], third: tuple[int, ...]) -> Permutation:
    """The run table of three sorted columns: the distinct first keys,
    where each one's run starts, and the second and third columns."""
    # A run starts wherever the first column differs from the row before.
    starts = owned_column(compress(count(), map(ne, first, chain((None,), first))))
    keys = owned_column(map(first.__getitem__, starts))
    starts.append(len(first))
    return keys, starts, owned_column(second), owned_column(third)


class CompactBackend(FrozenBackend):
    """Frozen, read-optimized backend: sorted permutation run tables.

    Each permutation (SPO, POS, OSP) is sorted lexicographically by its
    key order and held as four 4-byte columns: its distinct first keys,
    where each key's run starts (one more entry than there are keys: the
    last is the row count), and the second and third columns of every
    row.  Any pattern with bound positions is one contiguous run: the
    leading key is bisected among the distinct keys, and a bound second
    key narrows the run with two more bisects.  Compared to dict-of-set
    permutation indexes this trades point updates (mutation raises
    :class:`StoreFrozenError`; writes go through an overlay) for a
    fraction of the memory — six 4-byte items per triple plus two per
    distinct key, instead of hash tables of boxed ints — and for a layout
    that serializes as raw bytes.

    Columns are :data:`IntColumn` — either owned ``array('i')``
    instances (``from_triples``) or borrowed ``memoryview`` casts over an
    ``mmap`` of a snapshot file.  The seek code is identical for both; a
    borrowed column keeps the underlying mapping alive for as long as
    the backend exists.

    Every ``count`` shape with one or two bound positions is O(log n):
    it is a run length, never an iteration.
    """

    __slots__ = ("_spo", "_pos", "_osp")

    def __init__(
        self, spo: Permutation, pos: Permutation, osp: Permutation, version: int = 0
    ):
        self._spo, self._pos, self._osp = spo, pos, osp
        self._size = len(spo[2])
        self._version = version
        permutations = (spo, pos, osp)
        if {len(column) for _k, _s, *rows in permutations for column in rows} != {self._size}:
            raise ValueError("permutation columns disagree on triple count")
        if any(len(starts) != len(keys) + 1 for keys, starts, *_rows in permutations):
            raise ValueError("a permutation's run starts do not match its keys")

    @classmethod
    def from_triples(cls, triples: Iterable[IdTriple], version: int = 0) -> "CompactBackend":
        """Build all three permutations from id triples (deduplicated).

        Each permutation's sorted rows are transposed into its columns in
        one ``zip(*rows)`` pass, and the other two permutations' rows are
        zipped from the SPO tuples: from the ints already built, not from
        fresh ones read back out of an array.  An id that does not fit a
        4-byte column raises :class:`ColumnOverflowError`.
        """
        s, p, o = _sorted_columns(set(triples))
        return cls(
            _run_table(s, p, o),
            _run_table(*_sorted_columns(zip(p, o, s))),
            _run_table(*_sorted_columns(zip(o, s, p))),
            version=version,
        )

    def check(self, terms: int) -> None:
        """Raise ``ValueError`` unless every permutation is a run table
        over the ids below ``terms``: its keys strictly ascending, its run
        starts rising from 0 to the row count, its ``(second, third)``
        rows strictly ascending within each run (what a seek and
        ``contains`` bisect; one lane pass reads both columns), and every
        id of its key, second and third columns in ``[0, terms)``.
        """
        for name, (keys, starts, second, third) in self.permutation_columns().items():
            if not strictly_ascending(keys):
                raise ValueError(f"the {name} keys are not strictly ascending")
            if not run_starts_rise(starts, self._size):
                raise ValueError(f"the {name} run starts do not rise from 0 to the row count")
            in_range = ids_below(second, terms) and ids_below(third, terms)
            # Ascending keys lie in range when their first and last do.
            if not in_range or (keys and not 0 <= keys[0] <= keys[-1] < terms):
                raise ValueError(
                    f"the {name} columns hold an id that is not one of the {terms} term ids"
                )
            if not runs_ascend((second, third), starts, strictly=True):
                raise ValueError(f"the {name} rows do not ascend within a run")

    # ------------------------------------------------------------------ #
    # Reads
    # ------------------------------------------------------------------ #

    def contains(self, s: int, p: int, o: int) -> bool:
        lo, hi = _prefix_run(self._spo, s, p)
        third = self._spo[3]
        position = bisect_left(third, o, lo, hi)
        return position < hi and third[position] == o

    def triples_ids(
        self, s: int | None = None, p: int | None = None, o: int | None = None
    ) -> Iterator[IdTriple]:
        # Every shape is one run of one permutation, zipped in C from
        # slices of its columns (a slice of a borrowed column is a view).
        if s is not None:
            if o is not None and p is None:
                lo, hi = _prefix_run(self._osp, o, s)
                return zip(repeat(s), self._osp[3][lo:hi], repeat(o))
            if o is not None:
                return iter(((s, p, o),) if self.contains(s, p, o) else ())  # type: ignore[arg-type]
            lo, hi = _prefix_run(self._spo, s, p)
            return zip(repeat(s), self._spo[2][lo:hi], self._spo[3][lo:hi])
        if p is not None:
            lo, hi = _prefix_run(self._pos, p, o)
            return zip(self._pos[3][lo:hi], repeat(p), self._pos[2][lo:hi])
        if o is not None:
            lo, hi = _prefix_run(self._osp, o)
            return zip(self._osp[2][lo:hi], self._osp[3][lo:hi], repeat(o))
        keys, starts, second, third = self._spo
        return zip(_expanded(keys, starts), second, third)

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
                lo, hi = _prefix_run(self._osp, o, s)
            else:
                lo, hi = _prefix_run(self._spo, s, p)
        elif p is not None:
            lo, hi = _prefix_run(self._pos, p, o)
        else:
            lo, hi = _prefix_run(self._osp, o)  # type: ignore[arg-type]
        return hi - lo

    def subject_ids(self) -> Iterator[int]:
        return iter(self._spo[0])

    def predicate_ids(self) -> Iterator[int]:
        return iter(self._pos[0])

    def object_ids(self) -> Iterator[int]:
        return iter(self._osp[0])

    # ------------------------------------------------------------------ #
    # Persistence surface (repro.rdf.snapshot only)
    # ------------------------------------------------------------------ #

    def permutation_columns(self) -> dict[str, Permutation]:
        """The run tables, ``(keys, starts, second, third)``, keyed by
        permutation name.

        Only :mod:`repro.rdf.snapshot` should call this: the columns are
        the live index, returned without copying so the snapshot writer
        can stream ``tobytes()`` straight out.  On an mmap-loaded backend
        the tuples hold borrowed ``memoryview`` columns.
        """
        return {"spo": self._spo, "pos": self._pos, "osp": self._osp}
