"""Adjacency kernel: the hot-path substrate of graph traversal.

Both hot loops of the system — the offline bidirectional BFS that
enumerates simple predicate paths (Section 3, Algorithm 1) and the online
subgraph matching with TA-style top-k (Section 4.2) — spend their time in
node expansion and path walking.  The kernel serves each node's adjacency
as one flat row:

* each node maps to two parallel tuples ``(steps, neighbors)`` where
  ``steps[i]`` is the *signed step* over edge ``i`` (``pid + 1`` following
  the predicate direction, ``-(pid + 1)`` against it — the same encoding
  the mined predicate paths use) and ``neighbors[i]`` is the far endpoint;
* structural predicates (``rdf:type``, ``rdfs:subClassOf``,
  ``rdfs:label``) are left out;
* literal endpoints are kept: a Q^S edge can end on a literal, so
  neighborhood pruning checks them.  One row is served per node; the
  offline path BFS drops the literal slots from the rows it reads itself
  (:mod:`repro.paraphrase.path_mining`).

The graph is its columns: the store already holds every node's adjacency
twice, as its SPO run (the forward steps) and its OSP run (the backward
steps), which is what an RDF-3X-style permutation store answers a
neighbourhood from.  So the kernel keeps no copy of the graph.  A row is
read from those two runs the first time it is asked for and memoized
(:class:`KernelRows`); a row nobody reads is never built, and building
the kernel costs nothing.  Over an overlay the runs are the overlay's
reads, so an ingest rebuilds no row.

On top of the rows the kernel memoizes the per-node incident-step
signature (Section 4.2.2's pruning test is one frozenset intersection),
LRU-caches :meth:`walk_path`, caches the structural vocabulary ids and
answers a signed step's carriers from the predicate's POS run — the
**step directory**, where an all-wildcard query finds its seeds
(:meth:`nodes_with_step`).

A kernel is the one object per store version: everything derived from
a version hangs off it.  Besides its own memos it carries the slots
:class:`~repro.rdf.graph.KnowledgeGraph` fills — the class set, the
``rdfs:subClassOf`` closures both ways, the instance sets and the
literal lexical index — and the entity linker's material, all born
empty.  :meth:`repro.rdf.graph.KnowledgeGraph.refresh` drops the kernel
after a write, which drops all of them in one reference swap;
``refresh(incremental=True)`` replaces it with one that carries the old
kernel's boxed rows and signatures forward for every node the write did
not touch, and nothing else.  A reader that overlapped the write fills
the kernel it bound, which the swap has already dropped.
``store_version`` stamps the :class:`TripleStore` mutation counter the
kernel was made at, so derived artifacts (the serving layer's answer
cache) can key themselves to one store generation.  A row first read
after a write but before the refresh shows the write, exactly as
:meth:`walk_path` always has: the memos are read-through, not a copy.

Thread safety and lifetime: the memoization layers are safe to read from
any number of threads — ``walk_path`` is an ``functools.lru_cache``
(internally locked), and row reads, ``incident_steps``,
``nodes_with_step`` and the graph's slots publish
fully-built values into a dict or a slot (the worst interleaving
recomputes a value, never exposes a partial one).  Nothing a kernel owns
refers back to it: ``walk_path`` caches :func:`walk` bound to the
*store*, and rows and caches point only down (to the store).  The
linker's material refers to the graph, and the graph only to its current
kernel.  A kernel that a write replaces is therefore freed by reference
count the moment the last reader lets go of it — on a live-ingest
server, once per batch — and never waits for the cycle collector.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache, partial
from itertools import compress, count
from operator import itemgetter
from typing import AbstractSet, Iterator

from repro.rdf import vocab
from repro.rdf.store import TripleStore

Path = tuple[int, ...]

#: Pair of parallel tuples: signed steps and the matching far endpoints.
AdjacencyRow = tuple[tuple[int, ...], tuple[int, ...]]

_EMPTY_ROW: AdjacencyRow = ((), ())

#: Bound on the memoized walk_path results (distinct (start, path) keys).
_WALK_CACHE_SIZE = 1 << 16


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
            return store.objects_ids(start_id, step - 1)
        return store.subjects_ids(-step - 1, start_id)
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
# Rows
# --------------------------------------------------------------------- #

class KernelRows(dict):
    """``node → (steps, neighbors)``: the rows of one kernel read so far.

    A subscript of a node not yet read reads its row from the store's SPO
    and OSP runs (:meth:`read`) and stores it, unless it is empty: a node
    without a row yields the empty row and stores nothing.  Everything
    else is the plain dict's, over the rows read so far.  Reading is
    unsynchronised on purpose — two threads may read one row; the tuples
    are immutable and equal, and the last store wins.
    """

    __slots__ = ("_store", "_structural", "_signatures")

    def __init__(
        self,
        store: TripleStore,
        structural: frozenset[int],
        carried: "KernelRows | None" = None,
        touched: AbstractSet[int] = frozenset(),
    ) -> None:
        """The rows of ``store``; ``carried`` hands over another kernel's
        read rows and signatures of every node outside ``touched`` — one
        flat copy of each, so a kernel never refers to the one before."""
        super().__init__(carried or ())
        self._store = store
        self._structural = structural
        #: Memoized :meth:`signature` per node.
        self._signatures: dict[int, frozenset[int]] = (
            carried._signatures.copy() if carried is not None else {}
        )
        for node in touched:
            self.pop(node, None)
            self._signatures.pop(node, None)

    def read(self, node: int) -> AdjacencyRow:
        """``node``'s row as the store holds it now, stored nowhere.

        Two protocol reads — the node's SPO run (``s=node``, the forward
        steps) and its OSP run (``o=node``, the backward ones), each
        sorted — merged in ascending *source subject* order: the backward
        steps from subjects below the node, the node's own forward steps
        by predicate and object (a self-loop's backward entry right after
        its forward one), then the backward steps from subjects above.
        That order does not depend on the layout the runs come from, so
        rows are identical over every store holding the same triples.
        """
        structural = self._structural
        triples_ids = self._store.triples_ids
        incoming = sorted(triples_ids(o=node))
        below = bisect_left(incoming, (node,))
        above = bisect_left(incoming, (node + 1,), below)
        entries = [(-p - 1, s) for s, p, _o in incoming[:below] if p not in structural]
        for _s, p, o in sorted(triples_ids(s=node)):
            if p not in structural:
                entries.append((p + 1, o))
                if o == node:
                    entries.append((-p - 1, node))
        entries += [(-p - 1, s) for s, p, _o in incoming[above:] if p not in structural]
        if not entries:
            return _EMPTY_ROW
        steps, neighbors = zip(*entries)
        return steps, neighbors

    def __missing__(self, node: int) -> AdjacencyRow:
        row = self.read(node)
        if row[0]:
            self[node] = row
        return row

    def signature(self, node: int) -> frozenset[int]:
        """The distinct signed steps of ``node``'s row, memoized."""
        signature = self._signatures.get(node)
        if signature is None:
            signature = self._signatures[node] = frozenset(self[node][0])
        return signature

    def census(self) -> tuple[bytearray, int, int]:
        """``(marks, slots, entity_slots)`` of every row, in one pass over
        the store's POS runs, reading no row.

        Every non-structural triple puts a forward slot in its subject's
        row and a backward slot in its object's; a slot is an entity slot
        when its far end is no literal.  ``marks[node]`` is 0 for a node
        without a row, 1 for one whose slots all end on literals and 3
        for an entity node — one byte per term id, not a set of them.
        """
        store, structural = self._store, self._structural
        size = len(store.dictionary)
        flags = bytes(store.literal_flags).ljust(size, b"\0")
        marks = bytearray(size)
        slots = literal_slots = 0
        for pid in store.predicate_ids():
            if pid in structural:
                continue
            for s, _p, o in store.triples_ids(p=pid):
                slots += 2
                s_literal, o_literal = flags[s], flags[o]
                if s_literal or o_literal:
                    marks[s] |= 1 if o_literal else 3
                    marks[o] |= 1 if s_literal else 3
                    literal_slots += s_literal + o_literal
                else:  # 3 is the highest mark
                    marks[s] = marks[o] = 3
        return marks, slots, slots - literal_slots


class AdjacencyKernel:
    """Flat adjacency rows over one version of a triple store, and every
    structure derived from that version."""

    __slots__ = (
        "store",
        "store_version",
        "structural_predicate_ids",
        "type_id",
        "subclass_id",
        "label_id",
        "_full",
        "_directory",
        "_sizes",
        "walk_path",
        "classes",
        "superclasses",
        "subclasses",
        "instances",
        "literals_by_lexical",
        "linking_material",
    )

    def __init__(self, store: TripleStore, patch_from: "AdjacencyKernel | None" = None):
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
        if patch_from is not None and self._can_patch(patch_from):
            # Every row the writes since the old kernel did not touch is
            # the old kernel's tuple, reused by reference; the rest are
            # read afresh when first asked for.
            touched = store.backend.touched_since(patch_from.store_version)  # type: ignore[attr-defined]
            self._full = KernelRows(
                store, self.structural_predicate_ids, patch_from._full, touched
            )
        else:
            self._full = KernelRows(store, self.structural_predicate_ids)
        self._directory: dict[int, frozenset[int]] = {}
        self._sizes: dict[str, int] | None = None
        # Over the store, not over a bound method: a cache that held the
        # kernel would make every replaced kernel cyclic garbage.
        self.walk_path = lru_cache(maxsize=_WALK_CACHE_SIZE)(partial(walk, store))
        # Filled by KnowledgeGraph (class vertices, closures, instance
        # sets, literals by lexical form) and the entity linker
        # (``(store version, LabelIndex, max degree)``); a patch carries
        # none of them.
        self.classes: set[int] | None = None
        self.superclasses: dict[int, frozenset[int]] = {}
        self.subclasses: dict[int, frozenset[int]] = {}
        self.instances: dict[int, frozenset[int]] = {}
        self.literals_by_lexical: dict[str, set[int]] | None = None
        self.linking_material: tuple | None = None

    def full_rows(self) -> dict[int, AdjacencyRow]:
        """A new dict of every node's row, read from the store now.

        Nothing is memoized: ``rows_boxed`` is the same after the call.
        """
        read = self._full.read
        return {node: read(node) for node in compress(count(), self._full.census()[0])}

    def _can_patch(self, old: "AdjacencyKernel") -> bool:
        """Whether ``old``'s rows can be carried forward.

        The backend must report which nodes mutations touched
        (:meth:`~repro.rdf.overlay.OverlayBackend.touched_since`), the
        old kernel must not be newer than the store, and the structural
        vocabulary must be unchanged — a first ``rdf:type``/``rdfs:label``
        triple changes which predicates *every* row filters, so nothing
        can be carried.
        """
        backend = self.store.backend
        return (
            hasattr(backend, "touched_since")
            and old.store_version <= self.store_version
            and old.structural_predicate_ids == self.structural_predicate_ids
        )

    # ------------------------------------------------------------------ #
    # Adjacency
    # ------------------------------------------------------------------ #

    def adjacency(self, node_id: int) -> AdjacencyRow:
        """``(steps, neighbors)`` with literal endpoints, structural-free."""
        return self._full[node_id]

    def neighbors(self, node_id: int) -> Iterator[tuple[int, int]]:
        """(signed step, neighbor) pairs, literals included."""
        return zip(*self._full[node_id])

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
        vertex whose edge must start with this step.  The carriers of
        ``±(p + 1)`` are the distinct subjects (``+``) or objects (``−``)
        of ``p``'s POS run, read on the first call for the step and
        memoized; like the rows the directory knows no structural
        predicate, for which it answers with the empty set.
        """
        carriers = self._directory.get(step)
        if carriers is None:
            pid = abs(step) - 1
            if pid < 0 or pid in self.structural_predicate_ids:
                carriers = frozenset()
            else:
                end = itemgetter(0 if step > 0 else 2)
                carriers = frozenset(map(end, self.store.triples_ids(p=pid)))
            self._directory[step] = carriers
        return carriers

    def statistics(self) -> dict[str, int]:
        """Index size, laziness and walk-cache counters (reported by
        ``QAEngine.warm`` and ``GET /stats``).

        The four size counts are taken once, in one pass over the store's
        POS runs (:meth:`KernelRows.census`) that reads no row, and
        remembered.  ``rows_boxed`` is how many rows
        exist as Python tuples: the rows read so far (and those a patch
        carried), 0 for a fresh kernel.  ``directory_steps`` counts the
        steps :meth:`nodes_with_step` has been asked for.
        ``walk_cache_misses`` running far ahead of ``walk_cache_hits`` at a
        full ``walk_cache_size`` means the walks cycle through the LRU
        faster than they recur.
        """
        sizes = self._sizes
        if sizes is None:
            marks, slots, entity_slots = self._full.census()
            sizes = self._sizes = {
                "nodes_full": len(marks) - marks.count(0),
                "nodes_entity": marks.count(3),
                "edge_slots_full": slots,
                "edge_slots_entity": entity_slots,
            }
        walks = self.walk_path.cache_info()
        return {
            **sizes,
            "rows_boxed": len(self._full),
            "directory_steps": len(self._directory),
            "walk_cache_hits": walks.hits,
            "walk_cache_misses": walks.misses,
            "walk_cache_size": walks.currsize,
        }
