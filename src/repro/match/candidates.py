"""Candidate space for subgraph matching.

A query (the semantic query graph Q^S, reduced to its structure) is a set
of vertices and edges.  Each vertex carries a candidate list C_v — entities
and classes with confidence probabilities δ(arg, u) — or is a *wildcard*
(a wh-word, which "can match all entities and classes", Section 2.2).
Each edge carries a candidate list C_e of signed predicate paths with
confidences δ(rel, L) from the paraphrase dictionary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

Path = tuple[int, ...]


@dataclass(frozen=True, slots=True)
class VertexCandidate:
    """One candidate mapping of a query vertex to a graph node.

    ``is_class`` selects Definition 3's condition 2: the query vertex then
    matches any *instance* of ``node_id`` rather than the node itself.
    """

    node_id: int
    confidence: float
    is_class: bool = False


@dataclass(frozen=True, slots=True)
class EdgeCandidate:
    """One candidate mapping of a query edge to a signed predicate path."""

    path: Path
    confidence: float


@dataclass(slots=True)
class QueryVertex:
    """A query vertex: either a wildcard or a ranked candidate list.

    ``wildcard_filter`` optionally restricts what a wildcard may bind
    (answer typing: "when" binds date literals, "who" binds non-literals).
    """

    vertex_id: int
    candidates: list[VertexCandidate] = field(default_factory=list)
    wildcard: bool = False
    wildcard_filter: Callable[[int], bool] | None = None

    def __post_init__(self) -> None:
        self.candidates.sort(key=lambda c: (-c.confidence, c.node_id))

    def best_confidence(self) -> float:
        if self.wildcard:
            return 1.0
        return self.candidates[0].confidence if self.candidates else 0.0


@dataclass(slots=True)
class QueryEdge:
    """A query edge between two query vertices with path candidates."""

    source: int
    target: int
    candidates: list[EdgeCandidate] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.candidates.sort(key=lambda c: (-c.confidence, len(c.path), c.path))

    def best_confidence(self) -> float:
        return self.candidates[0].confidence if self.candidates else 0.0

    def other(self, vertex_id: int) -> int:
        return self.target if vertex_id == self.source else self.source


@dataclass(frozen=True, slots=True)
class ReadScope:
    """The slice of the graph an answer is a function of.

    Once phrase mapping has fixed C_v and C_e, a match reads only edges
    labelled by a predicate of some C_e path plus the structural ones
    (Definition 3, conditions 2 and 3), and linking reads only the degree
    of nodes whose label shares a word with a mention.  ``predicates``
    are predicate ids, ``words`` the label-index posting keys
    (:func:`repro.linking.index.lookup_words`).  A write that carries
    none of the predicates and touches no node filed under any of the
    words leaves the answer as it is.
    """

    predicates: frozenset[int] = frozenset()
    words: frozenset[str] = frozenset()


@dataclass(slots=True)
class CandidateSpace:
    """The full matching problem: query structure plus candidate lists.

    ``scope`` is what phrase mapping read to build the lists and what a
    search over them can read; ``None`` when that is not expressible as
    predicates and words (the answer then depends on the whole graph).
    """

    vertices: dict[int, QueryVertex] = field(default_factory=dict)
    edges: list[QueryEdge] = field(default_factory=list)
    scope: ReadScope | None = None

    def add_vertex(self, vertex: QueryVertex) -> None:
        self.vertices[vertex.vertex_id] = vertex

    def add_edge(self, edge: QueryEdge) -> None:
        if edge.source not in self.vertices or edge.target not in self.vertices:
            raise ValueError("edge endpoints must be added before the edge")
        if edge.source == edge.target:
            # Subgraph isomorphism binds distinct vertices; a self-loop edge
            # would silently never be checked by the exploration matcher.
            raise ValueError("self-loop query edges are not supported")
        self.edges.append(edge)

    def edges_of(self, vertex_id: int) -> list[QueryEdge]:
        return [
            edge for edge in self.edges if vertex_id in (edge.source, edge.target)
        ]

    def components(self) -> list["CandidateSpace"]:
        """Split into connected components (each a standalone space)."""
        remaining = set(self.vertices)
        parts: list[CandidateSpace] = []
        while remaining:
            seed = next(iter(remaining))
            component: set[int] = set()
            frontier = [seed]
            while frontier:
                vertex_id = frontier.pop()
                if vertex_id in component:
                    continue
                component.add(vertex_id)
                for edge in self.edges_of(vertex_id):
                    frontier.append(edge.other(vertex_id))
            space = CandidateSpace(
                vertices={v: self.vertices[v] for v in component},
                edges=[e for e in self.edges if e.source in component],
            )
            parts.append(space)
            remaining -= component
        return parts

    def has_empty_list(self) -> bool:
        """True when some non-wildcard vertex or some edge has no candidates
        — no match can exist (Definition 3 conditions are unsatisfiable)."""
        for vertex in self.vertices.values():
            if not vertex.wildcard and not vertex.candidates:
                return True
        return any(not edge.candidates for edge in self.edges)
