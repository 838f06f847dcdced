"""VF2-style exploration matcher for candidate spaces (Definition 3).

Matching starts from a *seed* — one query vertex bound to one concrete
graph node — and grows the binding along query edges, exactly the
"exploration based subgraph isomorphism algorithm from cursor c_j" of
Algorithm 3.  At every expansion the new node must:

1. be admitted by the target vertex's candidate list (entity candidates
   bind that exact node; class candidates bind any instance of the class,
   Definition 3 condition 2; wildcards bind anything),
2. be reachable from an already-bound neighbour via one of the edge's
   candidate predicate paths, in either orientation (condition 3),
3. be distinct from all bound nodes (subgraph isomorphism is injective).

A completed binding yields a :class:`GraphMatch` whose score follows
Definition 6: the sum of log confidences of the chosen vertex and edge
mappings.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from repro.match.candidates import (
    CandidateSpace,
    QueryEdge,
    QueryVertex,
    VertexCandidate,
)
from repro.match.pruning import required_first_steps
from repro.rdf.graph import KnowledgeGraph, reverse_path, step_predicate

Path = tuple[int, ...]

#: Confidences are clamped away from zero before taking logs so a single
#: zero-confidence mapping cannot produce -inf and poison score arithmetic.
_MIN_CONFIDENCE = 1e-9


def _log(confidence: float) -> float:
    return math.log(max(confidence, _MIN_CONFIDENCE))


@dataclass(frozen=True, slots=True)
class GraphMatch:
    """One subgraph match of the query with its Definition 6 score."""

    bindings: tuple[tuple[int, int], ...]       # (query vertex, graph node)
    vertex_confidences: tuple[tuple[int, float], ...]
    edge_assignments: tuple[tuple[int, Path, float], ...]  # (edge idx, path, conf)
    score: float
    #: vertex → node lookup table, precomputed once so the hot callers
    #: (SPARQL generation, answer read-off) avoid a linear scan per lookup.
    #: Derived from ``bindings``, hence excluded from equality and hashing.
    _binding_map: dict[int, int] = field(
        init=False, repr=False, compare=False, hash=False
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "_binding_map", dict(self.bindings))

    def binding_of(self, vertex_id: int) -> int | None:
        return self._binding_map.get(vertex_id)

    def key(self) -> frozenset[tuple[int, int]]:
        """Identity of the match: the vertex→node binding set."""
        return frozenset(self.bindings)


class SubgraphMatcher:
    """Enumerates matches of a connected candidate space over a graph."""

    def __init__(
        self,
        kg: KnowledgeGraph,
        space: CandidateSpace,
        max_matches: int = 10_000,
    ):
        self.kg = kg
        self.space = space
        self.max_matches = max_matches
        # Search-effort counters, accumulated locally (plain int adds keep
        # the hot loop free of tracer calls) and reported by the top-k
        # layer as ``matcher.expansions`` / ``matcher.rejected_bindings``.
        self.expansions = 0
        self.rejected_bindings = 0
        #: Set when :meth:`all_matches` stopped at its deadline, i.e. its
        #: result is a partial enumeration.
        self.deadline_expired = False

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #

    def matches_from_seed(
        self, vertex_id: int, candidate: VertexCandidate
    ) -> list[GraphMatch]:
        """All matches in which ``vertex_id`` maps under ``candidate``.

        A class candidate seeds one exploration per instance of the class.
        """
        results: list[GraphMatch] = []
        if candidate.is_class:
            seed_nodes = sorted(self.kg.instances_of(candidate.node_id))
        else:
            seed_nodes = [candidate.node_id]
        order = self._expansion_order(vertex_id)
        for node in seed_nodes:
            self._explore(
                order=order,
                position=1,
                bindings={vertex_id: node},
                vertex_confidences={vertex_id: candidate.confidence},
                edge_assignments={},
                results=results,
            )
            if len(results) >= self.max_matches:
                break
        return results

    def all_matches(self, deadline: float | None = None) -> list[GraphMatch]:
        """Exhaustive enumeration (all-wildcard queries, tests and the
        no-TA ablation).

        Matches come back best score first and, among equals, in discovery
        order — seeds ascending — which callers that cut the list rely on.
        ``deadline`` is an absolute :func:`time.monotonic` instant checked
        between seeds: once it passes, what has been found so far is
        returned and :attr:`deadline_expired` is set.
        """
        seen: set[frozenset[tuple[int, int]]] = set()
        results: list[GraphMatch] = []
        start_id = self._best_start_vertex()
        start = self.space.vertices[start_id]
        seeds: list[VertexCandidate]
        if start.wildcard:
            seeds = [
                VertexCandidate(node, 1.0) for node in self._wildcard_seeds(start_id)
            ]
        else:
            seeds = start.candidates
        for candidate in seeds:
            if deadline is not None and time.monotonic() >= deadline:
                self.deadline_expired = True
                break
            for match in self.matches_from_seed(start_id, candidate):
                if match.key() not in seen:
                    seen.add(match.key())
                    results.append(match)
        results.sort(key=lambda m: -m.score)
        return results

    def _wildcard_seeds(self, vertex_id: int) -> list[int]:
        """Graph nodes, ascending, that a wildcard start vertex can bind.

        Section 4.2.2 applied to a vertex without a candidate list: a node
        starts a match only if, for every incident query edge, its row
        carries a step some candidate path of that edge can start with, so
        the seeds are read from the kernel's step directory instead of
        being every node of the graph.  Kernel rows leave structural
        predicates out; an edge that can start with one (mined paths never
        do, a hand-built space may) therefore narrows nothing.
        """
        kernel = self.kg.kernel
        structural = kernel.structural_predicate_ids
        seeds: frozenset[int] | None = None
        for edge in self.space.edges_of(vertex_id):
            required = required_first_steps(edge)
            if any(step_predicate(step) in structural for step in required):
                continue
            carriers = frozenset().union(
                *(kernel.nodes_with_step(step) for step in required)
            )
            seeds = carriers if seeds is None else seeds & carriers
        if seeds is None:
            return sorted(self.kg.store.node_ids())
        is_literal = self.kg.store.is_literal_id
        return sorted(node for node in seeds if not is_literal(node))

    # ------------------------------------------------------------------ #
    # Exploration
    # ------------------------------------------------------------------ #

    def _best_start_vertex(self) -> int:
        """Prefer a non-wildcard vertex with the fewest candidates."""
        def sort_key(item):
            vertex_id, vertex = item
            return (vertex.wildcard, len(vertex.candidates), vertex_id)

        return min(self.space.vertices.items(), key=sort_key)[0]

    def _expansion_order(self, seed: int) -> list[int]:
        """Query vertices in BFS order from the seed (query is connected)."""
        order = [seed]
        seen = {seed}
        cursor = 0
        while cursor < len(order):
            vertex_id = order[cursor]
            cursor += 1
            for edge in self.space.edges_of(vertex_id):
                other = edge.other(vertex_id)
                if other not in seen:
                    seen.add(other)
                    order.append(other)
        return order

    def _explore(
        self,
        order: list[int],
        position: int,
        bindings: dict[int, int],
        vertex_confidences: dict[int, float],
        edge_assignments: dict[int, tuple[Path, float]],
        results: list[GraphMatch],
    ) -> None:
        if len(results) >= self.max_matches:
            return
        if position == len(order):
            results.append(self._finalize(bindings, vertex_confidences, edge_assignments))
            return
        vertex_id = order[position]
        vertex = self.space.vertices[vertex_id]

        connecting = [
            (index, edge)
            for index, edge in enumerate(self.space.edges)
            if vertex_id in (edge.source, edge.target)
            and edge.other(vertex_id) in bindings
        ]
        # The query is connected and `order` is BFS, so connecting is
        # non-empty for every position > 0.
        reachable = self._reachable_nodes(connecting, bindings, vertex_id)
        if reachable is None:
            return
        used_nodes = set(bindings.values())
        for node, per_edge in sorted(reachable.items()):
            if node in used_nodes:
                self.rejected_bindings += 1
                continue
            confidence = self._admission_confidence(vertex, node)
            if confidence is None:
                self.rejected_bindings += 1
                continue
            self.expansions += 1
            bindings[vertex_id] = node
            vertex_confidences[vertex_id] = confidence
            for edge_index, (path, edge_confidence) in per_edge.items():
                edge_assignments[edge_index] = (path, edge_confidence)
            self._explore(
                order, position + 1, bindings, vertex_confidences,
                edge_assignments, results,
            )
            del bindings[vertex_id]
            del vertex_confidences[vertex_id]
            for edge_index in per_edge:
                edge_assignments.pop(edge_index, None)

    def _reachable_nodes(
        self,
        connecting: list[tuple[int, QueryEdge]],
        bindings: dict[int, int],
        vertex_id: int,
    ) -> dict[int, dict[int, tuple[Path, float]]] | None:
        """Nodes reachable from every bound neighbour, with the best path
        per connecting edge.  None when some edge admits no node at all."""
        result: dict[int, dict[int, tuple[Path, float]]] | None = None
        walk_path = self.kg.kernel.walk_path  # LRU-cached, returns a shared frozenset
        for edge_index, edge in connecting:
            bound_node = bindings[edge.other(vertex_id)]
            walk_from_source = edge.target == vertex_id
            per_node: dict[int, tuple[Path, float]] = {}
            for candidate in edge.candidates:  # confidence-descending
                # Definition 3 condition 3 accepts either orientation of the
                # edge; try the path as mined and flipped.  The assignment
                # records the orientation actually used, source → target,
                # so SPARQL emission walks the right way.
                orientations = [candidate.path]
                flipped = reverse_path(candidate.path)
                if flipped != candidate.path:
                    orientations.append(flipped)
                for oriented in orientations:
                    walk = oriented if walk_from_source else reverse_path(oriented)
                    for node in walk_path(bound_node, walk):
                        if node not in per_node:  # first hit = best confidence
                            per_node[node] = (oriented, candidate.confidence)
            if not per_node:
                return None
            if result is None:
                result = {
                    node: {edge_index: assignment}
                    for node, assignment in per_node.items()
                }
            else:
                merged: dict[int, dict[int, tuple[Path, float]]] = {}
                for node, assignments in result.items():
                    if node in per_node:
                        assignments[edge_index] = per_node[node]
                        merged[node] = assignments
                result = merged
                if not result:
                    return None
        return result if result is not None else {}

    def _admission_confidence(self, vertex: QueryVertex, node: int) -> float | None:
        """δ(arg, node) if the vertex admits the node, else None."""
        if vertex.wildcard:
            if vertex.wildcard_filter is not None and not vertex.wildcard_filter(node):
                return None
            return 1.0
        best: float | None = None
        for candidate in vertex.candidates:
            if candidate.is_class:
                if self.kg.store.is_literal_id(node):
                    continue
                if self.kg.has_type(node, candidate.node_id):
                    admitted = candidate.confidence
                else:
                    continue
            elif candidate.node_id == node:
                admitted = candidate.confidence
            else:
                continue
            if best is None or admitted > best:
                best = admitted
        return best

    def _finalize(
        self,
        bindings: dict[int, int],
        vertex_confidences: dict[int, float],
        edge_assignments: dict[int, tuple[Path, float]],
    ) -> GraphMatch:
        score = sum(_log(conf) for conf in vertex_confidences.values())
        score += sum(_log(conf) for _path, conf in edge_assignments.values())
        return GraphMatch(
            bindings=tuple(sorted(bindings.items())),
            vertex_confidences=tuple(sorted(vertex_confidences.items())),
            edge_assignments=tuple(
                (index, path, conf)
                for index, (path, conf) in sorted(edge_assignments.items())
            ),
            score=score,
        )
