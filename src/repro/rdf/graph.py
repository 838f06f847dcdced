"""Graph view over a :class:`TripleStore` for the matching/mining algorithms.

The paper treats the RDF dataset as a graph: subjects/objects are vertices,
predicates are edge labels.  :class:`KnowledgeGraph` exposes exactly the
operations the algorithms need —

* entity vs class vertices (Definition 3 condition 2: a vertex is a *class*
  if it has an incoming ``rdf:type`` or ``rdfs:subClassOf`` edge, per
  Section 2.2),
* adjacency in both orientations (Definition 3 condition 3 accepts either
  edge orientation; Section 3: "we ignore edge directions in a BFS
  process") — served by the :attr:`KnowledgeGraph.kernel` rows of signed
  steps, the one adjacency dialect in the system, each read from the
  store's SPO and OSP runs when first asked for,
* labels for entity linking.

Predicate-path steps are encoded as signed integers: ``pid + 1`` for a step
that follows the edge direction, ``-(pid + 1)`` against it.  The +1 offset
keeps predicate id 0 representable in both directions.  (The encoding
helpers live in :mod:`repro.rdf.kernel` — the adjacency rows that back
every hot path here — and are re-exported for compatibility.)
"""

from __future__ import annotations

import threading
from typing import AbstractSet, Callable

from repro.rdf.kernel import (
    AdjacencyKernel,
    backward_step,
    forward_step,
    reverse_path,
    step_is_forward,
    step_predicate,
)
from repro.contracts import guarded_by
from repro.rdf.store import TripleStore
from repro.rdf.terms import IRI, Term

__all__ = [
    "AdjacencyKernel",
    "KnowledgeGraph",
    "backward_step",
    "forward_step",
    "reverse_path",
    "step_is_forward",
    "step_predicate",
]


def _parents(store: TripleStore, sub_id: int, cls: int) -> AbstractSet[int]:
    """The classes ``cls`` is an ``rdfs:subClassOf`` of."""
    return store.objects_ids(cls, sub_id)


def _children(store: TripleStore, sub_id: int, cls: int) -> AbstractSet[int]:
    """The classes that are an ``rdfs:subClassOf`` ``cls``."""
    return store.subjects_ids(sub_id, cls)


@guarded_by("_kernel_lock", "_kernel")
class KnowledgeGraph:
    """Algorithm-facing view of a triple store.

    Everything derived from the store — the adjacency rows, the class
    set, the subclass closures, the instance sets, the literal lexical
    index — lives on :attr:`kernel`, one object per store version, and
    is built lazily on first use; call :meth:`refresh` after mutating the
    underlying store.  Each read binds the kernel once and reads and
    fills only that one, so a read that overlaps a refresh fills the
    kernel the refresh dropped, never its successor.
    """

    def __init__(self, store: TripleStore):
        self.store = store
        self._kernel_lock = threading.Lock()
        self._kernel: AdjacencyKernel | None = None

    def refresh(self, incremental: bool = False) -> None:
        """Drop the kernel, and with it everything derived from the
        store, so the next read rebuilds against the store's current
        contents: the rows, the walk-path LRU, the incident-step
        signatures, the class-vertex caches and the linker's material.

        ``incremental=True`` (the live-ingest path) replaces the kernel
        eagerly with one that carries the previous kernel's rows and
        signatures for every node the store does not report as touched
        (the rest are read afresh when first asked for), instead of
        leaving the next reader an empty one.  Nothing is carried when the
        backend cannot report touched nodes or the structural vocabulary
        changed.  Callers must quiesce writers while this runs (the serve
        layer's ingest path serializes).
        """
        with self._kernel_lock:
            stale = self._kernel
            self._kernel = None
            if incremental and stale is not None:
                self._kernel = AdjacencyKernel(self.store, patch_from=stale)

    # ------------------------------------------------------------------ #
    # Kernel / vocabulary / id helpers
    # ------------------------------------------------------------------ #

    @property
    def kernel(self) -> AdjacencyKernel:
        """The adjacency rows for the store's current version.

        Construction is guarded by a lock so concurrent first accesses (the
        serving layer answers questions from a thread pool) make exactly
        one kernel — two racing ones would each be correct but would
        split the walk-path LRU and the memoized rows between them.
        """
        # Double-checked fast path: the one deliberate unlocked read.
        kernel = self._kernel  # lint: ignore[lock-discipline]
        if kernel is None:
            with self._kernel_lock:
                kernel = self._kernel
                if kernel is None:
                    kernel = self._kernel = AdjacencyKernel(self.store)
        return kernel

    @property
    def store_version(self) -> int:
        """The underlying store's mutation counter (see TripleStore.version)."""
        return self.store.version

    @property
    def structural_predicate_ids(self) -> frozenset[int]:
        return self.kernel.structural_predicate_ids

    def id_of(self, term: Term) -> int | None:
        return self.store.dictionary.lookup_or_none(term)

    def term_of(self, term_id: int) -> Term:
        return self.store.dictionary.decode(term_id)

    def iri_of(self, term_id: int) -> IRI:
        term = self.term_of(term_id)
        if not isinstance(term, IRI):
            raise TypeError(f"term id {term_id} is a literal, not an IRI")
        return term

    # ------------------------------------------------------------------ #
    # Entities and classes
    # ------------------------------------------------------------------ #

    @property
    def class_ids(self) -> set[int]:
        """Ids of class vertices.

        Following Section 2.2: a vertex is a class if it has an incoming
        ``rdf:type`` edge or appears in the ``rdfs:subClassOf`` hierarchy.
        """
        kernel = self.kernel
        classes = kernel.classes
        if classes is None:
            classes = set()
            if kernel.type_id is not None:
                classes.update(self.store.objects_of_predicate(kernel.type_id))
            if kernel.subclass_id is not None:
                for sid, _pid, oid in self.store.triples_ids(p=kernel.subclass_id):
                    classes.add(sid)
                    classes.add(oid)
            kernel.classes = classes
        return classes

    def entity_ids(self) -> set[int]:
        """All non-class, non-literal graph nodes."""
        return self.store.node_ids() - self.class_ids

    def types_of(self, entity_id: int) -> set[int]:
        """Direct ``rdf:type`` classes of an entity."""
        type_id = self.kernel.type_id
        if type_id is None:
            return set()
        return set(self.store.objects_ids(entity_id, type_id))

    def superclasses_of(self, class_id: int) -> frozenset[int]:
        """``rdfs:subClassOf`` closure of a class, including itself.

        Cached per class (and cycle-safe), so the transitive type test of
        Definition 3 condition 2 costs one set lookup after warm-up.
        """
        kernel = self.kernel
        return self._closure(kernel, kernel.superclasses, _parents, class_id)

    def subclasses_of(self, class_id: int) -> frozenset[int]:
        """``rdfs:subClassOf`` descendants of a class, including itself."""
        kernel = self.kernel
        return self._closure(kernel, kernel.subclasses, _children, class_id)

    def _closure(
        self,
        kernel: AdjacencyKernel,
        memo: dict[int, frozenset[int]],
        step: Callable[[TripleStore, int, int], AbstractSet[int]],
        class_id: int,
    ) -> frozenset[int]:
        """``class_id`` and every class reached from it by repeating
        ``step`` (:func:`_parents` or :func:`_children`) — a cycle-safe
        frontier walk, kept in ``memo``."""
        closure = memo.get(class_id)
        if closure is None:
            found = {class_id}
            sub_id = kernel.subclass_id
            if sub_id is not None:
                store = self.store
                frontier = [class_id]
                while frontier:
                    for near in step(store, sub_id, frontier.pop()):
                        if near not in found:
                            found.add(near)
                            frontier.append(near)
            closure = memo[class_id] = frozenset(found)
        return closure

    def has_type(self, entity_id: int, class_id: int) -> bool:
        """Whether ``entity_id rdf:type class_id`` holds (with subclass closure).

        Single pass: each direct type's cached superclass closure already
        contains the type itself, so the direct and transitive checks
        collapse into one membership test per direct type.
        """
        kernel = self.kernel
        type_id = kernel.type_id
        if type_id is None:
            return False
        memo = kernel.superclasses
        for cls in self.store.objects_ids(entity_id, type_id):
            if cls == class_id or class_id in self._closure(kernel, memo, _parents, cls):
                return True
        return False

    def instances_of(self, class_id: int) -> frozenset[int]:
        """Entities whose type is ``class_id`` or one of its subclasses.

        Cached per class: class candidates are re-seeded for every
        exploration in the top-k search, so recomputing the instance set
        per seed dominated class-heavy queries.  The returned frozenset is
        shared — treat it as read-only.
        """
        kernel = self.kernel
        instances = kernel.instances.get(class_id)
        if instances is None:
            type_id = kernel.type_id
            found: set[int] = set()
            if type_id is not None:
                for cls in self._closure(kernel, kernel.subclasses, _children, class_id):
                    found |= self.store.subjects_ids(type_id, cls)
            instances = kernel.instances[class_id] = frozenset(found)
        return instances

    # ------------------------------------------------------------------ #
    # Labels
    # ------------------------------------------------------------------ #

    def all_labels(self, node_id: int) -> list[str]:
        """Every rdfs:label of the node (entity linking indexes all of them)."""
        label_id = self.kernel.label_id
        if label_id is None:
            return []
        decode = self.store.dictionary.decode
        return [
            str(decode(oid))
            for _s, _p, oid in self.store.triples_ids(s=node_id, p=label_id)
        ]

    def literal_ids_by_lexical(self, lexical: str) -> set[int]:
        """Ids of every stored literal with the given lexical form.

        Textual sources (relation-phrase support sets) carry values without
        datatypes; this lets them find the typed literals in the graph.
        """
        kernel = self.kernel
        index = kernel.literals_by_lexical
        if index is None:
            index = {}
            decode = self.store.dictionary.decode
            for literal_id in self.store.iter_literal_ids():
                index.setdefault(str(decode(literal_id)), set()).add(literal_id)
            kernel.literals_by_lexical = index
        return set(index.get(lexical, ()))

    # ------------------------------------------------------------------ #
    # Degree and path walking (adjacency itself: ``self.kernel``)
    # ------------------------------------------------------------------ #

    def degree(self, node_id: int) -> int:
        """Incident edges of a node in either orientation, structural
        predicates (``rdf:type``, ``rdfs:label``, …) included — the
        prominence signal the entity linker ranks by.  Two run lengths,
        the node's SPO run and its OSP run, counted without reading
        either: kernel rows leave structural edges out.
        """
        return self.store.count(s=node_id) + self.store.count(o=node_id)

    def walk_path(self, start_id: int, path: tuple[int, ...]) -> set[int]:
        """All nodes reachable from ``start_id`` by following a signed path.

        Used at match time to check a Q^S edge that was mapped to a
        multi-hop predicate path instead of a single predicate.  Delegates
        to the kernel's LRU-cached walker; the copy here keeps the public
        mutable-set contract, hot callers use ``kg.kernel.walk_path``.
        """
        return set(self.kernel.walk_path(start_id, path))

    def path_connects(self, start_id: int, end_id: int, path: tuple[int, ...]) -> bool:
        """Whether the signed path leads from ``start_id`` to ``end_id``."""
        return end_id in self.kernel.walk_path(start_id, path)
