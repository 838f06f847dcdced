"""Neighborhood-based pruning (Section 4.2.2, first pruning method).

A vertex candidate u for query vertex v can only participate in a match if,
for every query edge incident to v, u has an incident predicate that some
candidate path of that edge can start (or end) with, in a compatible
direction.  Candidates failing this test — like u₅ in the paper's Figure 2,
which has no adjacent predicate mapping "play in" — are dropped before the
expensive search.

The test runs on the adjacency kernel's signed-step signatures: an edge's
admissible first steps and a node's incident steps are both small frozen
sets of signed ints (``pid + 1`` outgoing, ``-(pid + 1)`` incoming — see
:mod:`repro.rdf.kernel`), so each check is one memoized-set intersection.
Literal-valued edges are part of the signature, covering Q^S edges that
end on a literal.

Class candidates are checked against the union of their instances'
neighbourhoods (any instance with a compatible edge keeps the class alive).
"""

from __future__ import annotations

from repro.match.candidates import CandidateSpace, QueryEdge, VertexCandidate
from repro.rdf.graph import KnowledgeGraph


def required_first_steps(edge: QueryEdge) -> frozenset[int]:
    """Signed steps that can start the edge's candidate paths when walked
    outward from either endpoint.

    Definition 3 accepts either edge orientation, which makes this set
    symmetric in the endpoints: outward from one end the path starts with
    its first step, from the other with its reversed last step.
    """
    required: set[int] = set()
    for candidate in edge.candidates:
        if not candidate.path:
            continue
        required.add(candidate.path[0])       # orientation as mined
        required.add(-candidate.path[-1])     # flipped orientation
    return frozenset(required)


def _node_satisfies(
    kg: KnowledgeGraph, node_id: int, required: frozenset[int]
) -> bool:
    if not required:
        return False
    return not required.isdisjoint(kg.kernel.incident_steps(node_id))


def _candidate_alive(
    kg: KnowledgeGraph,
    candidate: VertexCandidate,
    required_per_edge: list[frozenset[int]],
) -> bool:
    if candidate.is_class:
        instances = kg.instances_of(candidate.node_id)
        return any(
            all(_node_satisfies(kg, instance, required) for required in required_per_edge)
            for instance in instances
        )
    return all(
        _node_satisfies(kg, candidate.node_id, required)
        for required in required_per_edge
    )


def neighborhood_prune(
    kg: KnowledgeGraph, space: CandidateSpace, tracer=None
) -> int:
    """Prune vertex candidates in place; returns the number removed.

    Safe: only candidates that provably cannot appear in any match are
    dropped, so top-k results are unchanged.  When a recording ``tracer``
    is supplied, per-vertex removal counts go to the
    ``pruning.removed_per_vertex`` histogram.
    """
    if tracer is None:
        from repro import obs

        tracer = obs.get_tracer()
    removed = 0
    for vertex in space.vertices.values():
        if vertex.wildcard or not vertex.candidates:
            continue
        incident_edges = space.edges_of(vertex.vertex_id)
        if not incident_edges:
            continue
        required_per_edge = [required_first_steps(edge) for edge in incident_edges]
        kept = [
            candidate
            for candidate in vertex.candidates
            if _candidate_alive(kg, candidate, required_per_edge)
        ]
        removed_here = len(vertex.candidates) - len(kept)
        if removed_here:
            tracer.metrics.observe("pruning.removed_per_vertex", removed_here)
        removed += removed_here
        vertex.candidates = kept
    return removed
