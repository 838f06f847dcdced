"""Compact adjacency kernel: the hot-path substrate of graph traversal.

Both hot loops of the system — the offline bidirectional BFS that
enumerates simple predicate paths (Section 3, Algorithm 1) and the online
subgraph matching with TA-style top-k (Section 4.2) — spend their time in
node expansion and path walking.  Doing that over the triple store's
nested dict-of-dict-of-set indexes costs a dict seek and a set iteration
per step.  The kernel precomputes, once per store version, a flat per-node
adjacency index:

* each node maps to two parallel tuples ``(steps, neighbors)`` where
  ``steps[i]`` is the *signed step* over edge ``i`` (``pid + 1`` following
  the predicate direction, ``-(pid + 1)`` against it — the same encoding
  the mined predicate paths use) and ``neighbors[i]`` is the far endpoint;
* structural predicates (``rdf:type``, ``rdfs:subClassOf``,
  ``rdfs:label``) are filtered out at build time;
* two variants are kept: the **full** index (literal endpoints included —
  what neighborhood pruning checks) and the **entity** index (literal
  endpoints excluded — what the offline path BFS walks).

On top of the index the kernel memoizes the per-node incident-step
signature (Section 4.2.2's pruning test is one frozenset intersection),
LRU-caches :meth:`walk_path`, caches the structural vocabulary ids,
derives on first use the inverse of the signatures — the **step
directory**, signed step → nodes whose row carries it, which is where an
all-wildcard query finds its seeds (:meth:`nodes_with_step`) — and offers
named scratch-cache regions that higher layers (path mining) use for
store-version-scoped memoization.  Signatures and directory are kept
with the rows (:class:`KernelRows`), so a patched kernel inherits those
of every row it did not rebuild and repairs the directory for the ones
it did, instead of scanning the graph again after every write; the
walk-path LRU stays per kernel.

The kernel is immutable: it never observes store mutation.
:meth:`repro.rdf.graph.KnowledgeGraph.refresh` drops it (and every cache
hanging off it) so the next access rebuilds against the current triples.
``store_version`` stamps the :class:`TripleStore` mutation counter the
kernel was built from, so derived artifacts (the serving layer's answer
cache) can key themselves to one store generation.

The rows live in one mapping type, :class:`KernelRows`, in one form
whichever way the kernel came to be.  A cold build and a kernel opened
from a compiled snapshot both hold four CSR columns — ``node_ids``,
``row_lens``, ``steps``, ``neighbors`` — the build's freshly packed, the
snapshot's straight over the file, and box a row into its pair of tuples
the first time it is asked for (a row nobody reads is never boxed); the
compiler writes a root's columns out as they are.  A patched kernel holds
only the rows a write dirtied and shares everything else with its
predecessor.

Thread safety and lifetime: the index itself is immutable after
construction and safe to read from any number of threads.  The
memoization layers are safe too — ``walk_path`` is an
``functools.lru_cache`` (internally locked), row boxing,
``incident_steps`` and ``entity_adjacency`` publish fully-built immutable
values into a dict and ``nodes_with_step`` publishes its fully-built
directory in one assignment (the worst interleaving recomputes a value,
never exposes a partial one), and the named scratch regions guard their
create/clear bookkeeping with a lock.  Nothing a kernel owns refers back
to it: ``walk_path`` caches :func:`walk` bound to the *store*, and rows
and caches point only down (to the store, to a root's rows).  Linker
material in a region refers to the graph, and the graph only to its
current kernel.  A kernel that a write replaces is therefore freed by
reference count the moment the last reader lets go of it — on a
live-ingest server, once per batch — and never waits for the cycle
collector.
"""

from __future__ import annotations

import threading
from array import array
from bisect import bisect_left
from collections import defaultdict
from collections.abc import Mapping
from functools import lru_cache, partial
from itertools import accumulate
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from repro.contracts import guarded_by
from repro.rdf import vocab
from repro.rdf.backend import IntColumn, strictly_ascending
from repro.rdf.store import TripleStore

Path = tuple[int, ...]

#: Pair of parallel tuples: signed steps and the matching far endpoints.
AdjacencyRow = tuple[tuple[int, ...], tuple[int, ...]]

_EMPTY_ROW: AdjacencyRow = ((), ())

#: Bound on the memoized walk_path results (distinct (start, path) keys).
_WALK_CACHE_SIZE = 1 << 16

#: A scratch-cache region is cleared wholesale once it exceeds this many
#: entries — a coarse but allocation-free stand-in for LRU eviction.
_REGION_CAP = 1 << 15


# --------------------------------------------------------------------- #
# Signed path-step encoding (the kernel's wire format)
# --------------------------------------------------------------------- #

def forward_step(predicate_id: int) -> int:
    """Encode a step that traverses ``predicate_id`` subject→object."""
    return predicate_id + 1


def backward_step(predicate_id: int) -> int:
    """Encode a step that traverses ``predicate_id`` object→subject."""
    return -(predicate_id + 1)


def step_predicate(step: int) -> int:
    """The predicate id of a signed step."""
    return abs(step) - 1


def step_is_forward(step: int) -> bool:
    return step > 0


def reverse_path(path: Path) -> Path:
    """The same predicate path walked from the far endpoint back."""
    return tuple(-step for step in reversed(path))


def walk(store: TripleStore, start_id: int, path: Path) -> frozenset[int]:
    """All nodes reachable from ``start_id`` by following a signed path.

    Each kernel wraps it, bound to its store, in an LRU cache as
    :attr:`AdjacencyKernel.walk_path` — match-time checks walk the same
    (seed, mined-path) pairs over and over.  Returns a frozenset: cached
    values are shared, never mutated by callers.
    """
    if len(path) == 1:
        step = path[0]
        if step > 0:
            return frozenset(store.objects_ids(start_id, step - 1))
        return frozenset(store.subjects_ids(-step - 1, start_id))
    frontier: tuple[int, ...] | set[int] = (start_id,)
    for step in path:
        next_frontier: set[int] = set()
        if step > 0:
            pid = step - 1
            for node in frontier:
                next_frontier |= store.objects_ids(node, pid)
        else:
            pid = -step - 1
            for node in frontier:
                next_frontier |= store.subjects_ids(pid, node)
        if not next_frontier:
            return frozenset()
        frontier = next_frontier
    return frozenset(frontier)


# --------------------------------------------------------------------- #
# Row construction
# --------------------------------------------------------------------- #

def rows_from_sorted_triples(
    triples: Iterable[tuple[int, int, int]], structural: frozenset[int]
) -> tuple[array, array, array, array]:
    """``(node_ids, row_lens, steps, neighbors)`` — the CSR columns
    :meth:`KernelRows.over_columns` reads, nodes ascending — from id
    triples in SPO order.

    The one place a triple stream becomes kernel rows.  Each
    non-structural triple appends a forward step to its subject's row and
    a backward step to its object's row (a self-loop contributes the pair
    adjacently), so a node's row accumulates in ascending *source subject*
    order — and because the input order is canonical (sorted SPO), rows
    come out identical whichever backend the stream was read from.  The
    backend-equivalence and snapshot contracts both rely on those
    byte-identical rows.  A node appears only once it has an entry.
    """
    rows: dict[int, tuple[list[int], list[int]]] = {}
    for sid, pid, oid in triples:
        if pid in structural:
            continue
        fwd = pid + 1
        srow = rows.get(sid)
        if srow is None:
            srow = rows[sid] = ([], [])
        srow[0].append(fwd)
        srow[1].append(oid)
        orow = rows.get(oid)
        if orow is None:
            orow = rows[oid] = ([], [])
        orow[0].append(-fwd)
        orow[1].append(sid)
    node_ids, row_lens = array("q", sorted(rows)), array("q")
    steps, neighbors = array("q"), array("q")
    for node in node_ids:
        node_steps, node_neighbors = rows.pop(node)
        row_lens.append(len(node_steps))
        steps.extend(node_steps)
        neighbors.extend(node_neighbors)
    return node_ids, row_lens, steps, neighbors


_NO_COLUMN = array("q")
#: "Not in ``_dirty``" (``None`` there means dropped).
_UNTOUCHED = object()


class KernelRows(dict):
    """``node → (steps, neighbors)`` over every row of one kernel.

    What the ``dict`` part stores is the rows that exist as Python tuples;
    what the mapping *holds* is more — equality, length, membership and
    iteration range over all of it, so a reader cannot tell a row that has
    been boxed from one that has not:

    * a **root** (:meth:`over_columns` — a cold build's columns or a
      compiled snapshot's kernel section) boxes a row out of its CSR
      columns on the first subscript and stores it, so the second is a
      plain dict hit;
    * a **patched** mapping (:meth:`patched`) carries the rows writes have
      dirtied since its root and takes every other row, by reference, from
      that root; either kind is stored here once it has been read.

    A subscript never raises: a node without a row yields the empty row
    and stores nothing.  Read-only once built.  Boxing is unsynchronised
    on purpose — two threads may box one row; the tuples are immutable and
    equal, and the last store wins.
    """

    __slots__ = (
        "_node_ids", "_row_lens", "_bounds", "_steps", "_neighbors", "_base",
        "_dirty", "_size", "_signatures", "_directory",
    )

    def __init__(self) -> None:
        super().__init__()
        self._node_ids: IntColumn = _NO_COLUMN
        self._row_lens: IntColumn = _NO_COLUMN
        self._bounds: IntColumn = _NO_COLUMN
        self._steps: IntColumn = _NO_COLUMN
        self._neighbors: IntColumn = _NO_COLUMN
        #: The mapping the undirtied rows come from; ``None`` at the root.
        self._base: KernelRows | None = None
        #: Every row that differs from ``_base``; ``None`` marks a dropped one.
        self._dirty: dict[int, AdjacencyRow | None] = {}
        self._size = 0
        #: Memoized :meth:`signature` of the rows that live *here*: every
        #: row at the root, the dirtied ones in a patched mapping.
        self._signatures: dict[int, frozenset[int]] = {}
        #: :meth:`directory`, once derived.
        self._directory: dict[int, frozenset[int]] | None = None

    @classmethod
    def over_columns(
        cls,
        node_ids: IntColumn,
        row_lens: IntColumn,
        steps: IntColumn,
        neighbors: IntColumn,
    ) -> "KernelRows":
        """The rows of four CSR columns, none of them boxed yet.

        ``node_ids`` ascending, ``row_lens[i]`` entries of ``steps`` /
        ``neighbors`` per node, in node order.  Raises :class:`ValueError`
        when the columns do not describe one another.
        """
        if len(node_ids) != len(row_lens) or len(steps) != len(neighbors):
            raise ValueError("kernel columns disagree on their lengths")
        if not strictly_ascending(node_ids):
            raise ValueError("kernel node ids are not strictly ascending")
        if len(row_lens) and min(row_lens) < 1:
            raise ValueError("a kernel row has no entries")
        bounds = array("q", accumulate(row_lens, initial=0))
        if bounds[-1] != len(steps):
            raise ValueError(
                f"kernel row lengths sum to {bounds[-1]}, the columns hold {len(steps)} entries"
            )
        rows = cls()
        rows._node_ids, rows._row_lens, rows._bounds = node_ids, row_lens, bounds
        rows._steps, rows._neighbors = steps, neighbors
        rows._size = len(node_ids)
        return rows

    @classmethod
    def patched(
        cls, old: "KernelRows", rebuilt: Mapping[int, AdjacencyRow]
    ) -> "KernelRows":
        """``old`` with the ``rebuilt`` rows in place of its own (an empty
        rebuilt row drops the node).  Costs one flat copy of what was
        dirtied since the root plus the rebuilt rows — never the root,
        and no row is boxed."""
        rows = cls()
        root = rows._base = old if old._base is None else old._base
        dirty = rows._dirty = old._dirty.copy()
        rows._size = len(old)
        for node, row in rebuilt.items():
            rows._size += bool(row[0]) - (node in old)
            if row[0]:
                dirty[node] = row
            elif node in root:
                dirty[node] = None
            else:
                # Added and removed again since the root: nothing to
                # remember, or add/remove churn would grow this for ever.
                dirty.pop(node, None)
        return rows

    def __missing__(self, node: int) -> AdjacencyRow:
        base = self._base
        if base is not None:
            row = self._dirty.get(node, _UNTOUCHED)
            if row is None:  # dropped since the root
                return _EMPTY_ROW
            if row is _UNTOUCHED:
                row = base[node]
            if row[0]:
                self[node] = row
            return row
        index = self._index_of(node)
        if index < 0:
            return _EMPTY_ROW
        start, end = self._bounds[index], self._bounds[index + 1]
        row = self[node] = (
            tuple(self._steps[start:end]), tuple(self._neighbors[start:end])
        )
        return row

    def _index_of(self, node: int) -> int:
        """Position of ``node`` in the columns, or -1."""
        node_ids = self._node_ids
        index = bisect_left(node_ids, node)
        if index < len(node_ids) and node_ids[index] == node:
            return index
        return -1

    def signature(self, node: int) -> frozenset[int]:
        """The distinct signed steps of ``node``'s row, memoized.

        The memo lives where the row lives: a patched mapping keeps the
        signatures of the rows it dirtied and asks its root for every
        other, so a signature computed once at the root serves every
        mapping patched from it — a write costs the memo nothing and
        loses only the signatures of the rows it rebuilt.
        """
        owner = self if self._base is None or node in self._dirty else self._base
        signature = owner._signatures.get(node)
        if signature is None:
            signature = owner._signatures[node] = frozenset(owner[node][0])
        return signature

    def directory(self) -> dict[int, frozenset[int]]:
        """signed step → the nodes whose row carries it (read-only): the
        inverse of :meth:`signature`, derived on the first call.

        The root scans its rows, once for all the mappings patched from
        it.  A patched mapping repairs the root's directory for the rows
        it dirtied — old row's steps against new row's steps, one set
        difference and union per step whose carriers moved — so what it
        costs follows the size of the delta, not of the graph.
        """
        directory = self._directory
        if directory is not None:
            return directory
        base = self._base
        gained: defaultdict[int, set[int]] = defaultdict(set)
        lost: defaultdict[int, set[int]] = defaultdict(set)
        if base is None:
            directory = {}
            for node, steps, _neighbors in self.scan():
                for step in set(steps):
                    gained[step].add(node)
        else:
            directory = base.directory().copy()
            for node in self._dirty:
                before, after = base.signature(node), self.signature(node)
                for step in after - before:
                    gained[step].add(node)
                for step in before - after:
                    lost[step].add(node)
        for step in gained.keys() | lost.keys():
            carriers = (directory.get(step, frozenset()) - lost[step]) | gained[step]
            if carriers:
                directory[step] = carriers
            else:
                del directory[step]
        self._directory = directory
        return directory

    def boxed(self) -> int:
        """How many rows exist as tuples: those read so far, and a patched
        mapping's dirtied ones."""
        if self._base is None:
            return dict.__len__(self)
        return dict.__len__(self._base) + sum(
            1 for row in self._dirty.values() if row is not None
        )

    def scan(self) -> Iterator[tuple[int, Sequence[int], Sequence[int]]]:
        """``(node, steps, neighbors)`` of every row, in no particular
        order, boxing nothing: an unboxed row comes as column slices."""
        base = self._base
        if base is not None:
            dirty = self._dirty
            for entry in base.scan():
                if entry[0] not in dirty:
                    yield entry
            for node, row in dirty.items():
                if row is not None:
                    yield (node, *row)
            return
        stored = dict.get
        bounds, steps, neighbors = self._bounds, self._steps, self._neighbors
        for index, node in enumerate(self._node_ids):
            row = stored(self, node)
            if row is None:
                start, end = bounds[index], bounds[index + 1]
                row = (steps[start:end], neighbors[start:end])
            yield (node, *row)

    def columns(self) -> tuple[IntColumn, IntColumn, IntColumn, IntColumn]:
        """``(node_ids, row_lens, steps, neighbors)`` — the CSR form
        :meth:`over_columns` reads back, nodes ascending (snapshot
        compiler).  A root returns the columns it holds; a patched mapping
        packs its rows afresh."""
        if self._base is None:
            return self._node_ids, self._row_lens, self._steps, self._neighbors
        node_ids, row_lens = array("q"), array("q")
        flat_steps, flat_neighbors = array("q"), array("q")
        for node, steps, neighbors in sorted(self.scan(), key=itemgetter(0)):
            node_ids.append(node)
            row_lens.append(len(steps))
            flat_steps.extend(steps)
            flat_neighbors.extend(neighbors)
        return node_ids, row_lens, flat_steps, flat_neighbors

    # The dict protocol, over every row rather than the stored ones.

    def __len__(self) -> int:
        return self._size

    def __contains__(self, node: object) -> bool:
        if dict.__contains__(self, node):
            return True
        if self._base is not None:
            row = self._dirty.get(node, _UNTOUCHED)
            return node in self._base if row is _UNTOUCHED else row is not None
        return isinstance(node, int) and self._index_of(node) >= 0

    def __iter__(self) -> Iterator[int]:
        return (node for node, _steps, _neighbors in self.scan())

    def keys(self):  # type: ignore[override]
        return list(self)

    def items(self):  # type: ignore[override]
        return [
            (node, (tuple(steps), tuple(neighbors)))
            for node, steps, neighbors in self.scan()
        ]

    def values(self):  # type: ignore[override]
        return [row for _node, row in self.items()]

    def get(self, node, default=None):  # type: ignore[override]
        row = self[node]
        return row if row[0] else default

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Mapping):
            return NotImplemented
        return len(self) == len(other) and all(
            node in other and other[node] == row for node, row in self.items()
        )

    def __ne__(self, other: object) -> bool:
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    __hash__ = None  # type: ignore[assignment]


@guarded_by("_region_lock", "_regions")
class AdjacencyKernel:
    """Immutable flat adjacency index over one version of a triple store."""

    __slots__ = (
        "store",
        "store_version",
        "structural_predicate_ids",
        "type_id",
        "subclass_id",
        "label_id",
        "_full",
        "_entity",
        "_sizes",
        "_regions",
        "_region_lock",
        "walk_path",
    )

    def __init__(
        self,
        store: TripleStore,
        columns: tuple[IntColumn, IntColumn, IntColumn, IntColumn] | None = None,
        patch_from: "AdjacencyKernel | None" = None,
    ):
        self.store = store
        self.store_version = store.version
        lookup = store.dictionary.lookup_or_none
        self.type_id: int | None = lookup(vocab.RDF_TYPE)
        self.subclass_id: int | None = lookup(vocab.RDFS_SUBCLASSOF)
        self.label_id: int | None = lookup(vocab.RDFS_LABEL)
        self.structural_predicate_ids: frozenset[int] = frozenset(
            pid
            for pid in (lookup(pred) for pred in vocab.STRUCTURAL_PREDICATES)
            if pid is not None
        )
        self._entity: dict[int, AdjacencyRow] = {}
        if columns is None and patch_from is not None and self._can_patch(patch_from):
            # Incremental path: only rows touched since the old kernel's
            # store version are rebuilt; every other row is the old
            # kernel's tuple, reused by reference.
            dirty = store.backend.touched_since(patch_from.store_version)  # type: ignore[attr-defined]
            self._full = KernelRows.patched(
                patch_from.full_rows(),
                {node: self._rebuild_row(node) for node in dirty},
            )
        else:
            # A cold build, or ``(node_ids, row_lens, steps, neighbors)``
            # persisted from a kernel built against the very same
            # (id-stable) store; either way a row is boxed when it is first
            # read.  Sorting canonicalizes the visit order: an overlay
            # appends its delta after the base run; on the frozen layouts
            # the scan is already sorted and the sort is one linear pass.
            if columns is None:
                columns = rows_from_sorted_triples(
                    sorted(store.triples_ids()), self.structural_predicate_ids
                )
            self._full = KernelRows.over_columns(*columns)
        self._sizes: dict[str, int] | None = None
        self._regions: dict[str, dict] = {}
        self._region_lock = threading.Lock()
        # Over the store, not over a bound method: a cache that held the
        # kernel would make every replaced kernel cyclic garbage.
        self.walk_path = lru_cache(maxsize=_WALK_CACHE_SIZE)(partial(walk, store))

    def full_rows(self) -> KernelRows:
        """The complete per-node row index (read-only)."""
        return self._full

    # ------------------------------------------------------------------ #
    # Incremental patching
    # ------------------------------------------------------------------ #

    def _can_patch(self, old: "AdjacencyKernel") -> bool:
        """Whether ``old``'s rows can be carried forward and patched.

        The backend must report which nodes mutations touched
        (:meth:`~repro.rdf.overlay.OverlayBackend.touched_since`), the
        old kernel must not be newer than the store, and the structural
        vocabulary must be unchanged — a first ``rdf:type``/``rdfs:label``
        triple changes which predicates *every* row filters, so patching
        would be unsound and the cold build takes over.
        """
        backend = self.store.backend
        return (
            hasattr(backend, "touched_since")
            and old.store_version <= self.store_version
            and old.structural_predicate_ids == self.structural_predicate_ids
        )

    def _rebuild_row(self, node: int) -> AdjacencyRow:
        """One node's row, in the canonical order
        :func:`rows_from_sorted_triples` produces — which is what makes a
        patched kernel byte-identical to a cold build over the current
        store.  Callers must quiesce writers while a patch rebuilds its
        rows (the engine's ingest lock does).

        A node's row accumulates entries as the full build visits source
        subjects in ascending order: visiting subject ``s`` appends, per
        sorted predicate and sorted object, a forward step to ``s``'s own
        row and a backward step to each object's row (so a self-loop
        contributes its forward then its backward entry adjacently).
        """
        structural = self.structural_predicate_ids
        store = self.store
        out_row = store.out_index(node)
        in_row = store.in_index(node)
        sources = set(in_row)
        if any(pid not in structural for pid in out_row):
            sources.add(node)
        steps: list[int] = []
        nbrs: list[int] = []
        for sid in sorted(sources):
            if sid == node:
                for pid in sorted(out_row):
                    if pid in structural:
                        continue
                    fwd = pid + 1
                    for oid in sorted(out_row[pid]):
                        steps.append(fwd)
                        nbrs.append(oid)
                        if oid == node:
                            steps.append(-fwd)
                            nbrs.append(node)
            else:
                for pid in sorted(in_row[sid]):
                    if pid in structural:
                        continue
                    steps.append(-(pid + 1))
                    nbrs.append(sid)
        return (tuple(steps), tuple(nbrs))

    # ------------------------------------------------------------------ #
    # Adjacency
    # ------------------------------------------------------------------ #

    def adjacency(self, node_id: int) -> AdjacencyRow:
        """``(steps, neighbors)`` with literal endpoints, structural-free."""
        return self._full[node_id]

    def entity_adjacency(self, node_id: int) -> AdjacencyRow:
        """``(steps, neighbors)`` without literal endpoints or structural
        predicates — the rows the offline path BFS expands.

        Derived lazily from the full row, once per node: most nodes have
        no literal-valued edges and share the full row's tuples outright,
        and nodes the BFS never reaches cost nothing at build time.
        """
        row = self._entity.get(node_id)
        if row is None:
            steps, neighbors = self._full[node_id]
            if steps:
                is_literal = self.store.is_literal_id
                keep = [
                    index
                    for index, neighbor in enumerate(neighbors)
                    if not is_literal(neighbor)
                ]
                if len(keep) == len(steps):
                    row = (steps, neighbors)
                else:
                    row = (
                        tuple(steps[index] for index in keep),
                        tuple(neighbors[index] for index in keep),
                    )
            else:
                row = _EMPTY_ROW
            self._entity[node_id] = row
        return row

    def neighbors(self, node_id: int) -> Iterator[tuple[int, int]]:
        """(signed step, neighbor) pairs, literals included."""
        return zip(*self._full[node_id])

    def entity_neighbors(self, node_id: int) -> Iterator[tuple[int, int]]:
        """(signed step, neighbor) pairs, literals excluded."""
        return zip(*self.entity_adjacency(node_id))

    def incident_steps(self, node_id: int) -> frozenset[int]:
        """Memoized signature: the distinct signed steps incident to a node.

        This is the set the neighborhood-based pruning of Section 4.2.2
        intersects with an edge's admissible first steps; literal-valued
        edges are included, exactly as a Q^S edge can end on a literal.
        """
        return self._full.signature(node_id)

    def nodes_with_step(self, step: int) -> frozenset[int]:
        """The nodes whose row carries ``step`` (literal endpoints included).

        The inverse of :meth:`incident_steps`, so Section 4.2.2's test can
        be asked of the whole graph at once: which nodes could bind a
        vertex whose edge must start with this step.  The directory
        (:meth:`KernelRows.directory`) is derived on the first call and
        lives as long as the rows; like them it knows no structural
        predicate, for which it answers with the empty set.
        """
        return self._full.directory().get(step, frozenset())

    # ------------------------------------------------------------------ #
    # Scratch caches
    # ------------------------------------------------------------------ #

    def cache_region(self, name: str) -> dict:
        """A named memoization dict scoped to this kernel's lifetime.

        Dropped with the kernel on :meth:`KnowledgeGraph.refresh`, so a
        cached value can never outlive the store version it was computed
        from.  Regions self-clear past ``_REGION_CAP`` entries to bound
        memory on large mining runs; creation and the clear decision are
        lock-guarded so concurrent callers never clear a region another
        thread is mid-way through populating for the same lookup.
        """
        with self._region_lock:
            region = self._regions.get(name)
            if region is None:
                region = self._regions[name] = {}
            elif len(region) > _REGION_CAP:
                region.clear()
        return region

    def statistics(self) -> dict[str, int]:
        """Index size, laziness and walk-cache counters (reported by
        ``QAEngine.warm`` and ``GET /stats``).

        The four size counts are functions of an immutable kernel: they
        are taken once, streaming over the rows without boxing one or
        deriving an entity row, and remembered.  ``rows_boxed`` is how
        many rows exist as Python tuples: the rows read so far, 0 right
        after a cold build or a snapshot open alike.  The step
        directory is only looked at: ``directory_steps`` stays 0 until an
        all-wildcard query has built it.  ``walk_cache_misses`` running
        far ahead of ``walk_cache_hits`` at a full ``walk_cache_size``
        means the walks cycle through the LRU faster than they recur.
        """
        sizes = self._sizes
        if sizes is None:
            is_literal = self.store.is_literal_id
            slots = entity_nodes = entity_slots = 0
            for _node, _steps, neighbors in self._full.scan():
                literal = sum(map(is_literal, neighbors))
                slots += len(neighbors)
                entity_slots += len(neighbors) - literal
                entity_nodes += literal < len(neighbors)
            sizes = self._sizes = {
                "nodes_full": len(self._full),
                "nodes_entity": entity_nodes,
                "edge_slots_full": slots,
                "edge_slots_entity": entity_slots,
            }
        walks = self.walk_path.cache_info()
        return {
            **sizes,
            "rows_boxed": self._full.boxed(),
            "directory_steps": len(self._full._directory or ()),
            "walk_cache_hits": walks.hits,
            "walk_cache_misses": walks.misses,
            "walk_cache_size": walks.currsize,
        }
