"""Simple-path enumeration between entity pairs (Section 3).

The paper finds all simple paths between the two entities of each
supporting pair, up to a length threshold θ (=4 in their experiments),
ignoring edge direction, via bidirectional BFS.  We implement exactly that:
breadth-first frontiers expanded from both endpoints meet in the middle,
which keeps the explored neighbourhood at radius ⌈θ/2⌉ instead of θ.

Paths are returned as *signed predicate tuples* (see
:mod:`repro.rdf.kernel`): the sign records whether each hop follows or
opposes the predicate's direction, so the path can be re-walked
directionally at query time.

Hot-path layout: the BFS runs on the adjacency kernel's flat
``(steps, neighbors)`` rows less their literal slots, and each walk is a
pair of plain tuples (the signed path and the node sequence — simplicity
is a membership test on the shared-prefix node tuple, no per-step
``frozenset`` copies).  A mining run owns one memo dict holding the
expansion trees (keyed ``(start, depth)``), the literal-prefix
enumerations (keyed ``(source, holder, budget)``) and, under the one key
:data:`_ROWS`, the literal-free row of each node it expanded
(:func:`entity_row`), so repeated endpoints are expanded once per run.
"""

from __future__ import annotations

from repro import obs
from repro.rdf.graph import KnowledgeGraph, reverse_path
from repro.rdf.kernel import AdjacencyKernel, AdjacencyRow

Path = tuple[int, ...]

#: endpoint → [(signed path, node sequence from start to endpoint)]
ExpansionTree = dict[int, list[tuple[Path, tuple[int, ...]]]]


#: A mining memo is emptied once it holds more than this many entries —
#: a coarse but allocation-free stand-in for LRU eviction.
_MEMO_CAP = 1 << 15

#: The memo key of the run's literal-free rows: one entry, so the rows
#: (tens of thousands on a large graph) never count against the cap.
_ROWS = "rows"


def entity_row(kernel: AdjacencyKernel, node: int) -> AdjacencyRow:
    """``node``'s kernel row less its literal slots: the kernel row itself
    when it has none, as most have."""
    steps, neighbors = kernel.adjacency(node)
    is_literal = kernel.store.is_literal_id
    keep = [index for index, neighbor in enumerate(neighbors) if not is_literal(neighbor)]
    if len(keep) == len(steps):
        return steps, neighbors
    return tuple(steps[index] for index in keep), tuple(neighbors[index] for index in keep)


def _expand_tree(
    kg: KnowledgeGraph, start: int, depth: int, memo: dict, tracer
) -> ExpansionTree:
    """All simple walks of length ≤ depth from ``start``.

    Returns endpoint → list of (signed path, visited node sequence
    including both endpoints).  BFS by level over literal-free rows;
    simplicity enforced per walk by a membership test on the walk's own
    node tuple (walks are ≤ ⌈θ/2⌉ long, so a tuple scan beats allocating
    a set per extension).

    Trees are memoized per (start, depth) in ``memo`` — support-pair
    endpoints repeat heavily across phrases — so callers must treat the
    returned structure as immutable.  Each level records its
    expansion count in ``mining.bfs_expanded`` and its surviving frontier
    in ``mining.bfs_frontier``; an empty frontier stops the BFS early
    instead of looping to full depth.
    """
    if len(memo) > _MEMO_CAP:
        memo.clear()
    key = (start, depth)
    cached = memo.get(key)
    if cached is not None:
        return cached
    rows = memo.setdefault(_ROWS, {})
    kernel = kg.kernel
    observe = tracer.metrics.observe
    reached: ExpansionTree = {start: [((), (start,))]}
    frontier: list[tuple[int, Path, tuple[int, ...]]] = [(start, (), (start,))]
    for _ in range(depth):
        next_frontier: list[tuple[int, Path, tuple[int, ...]]] = []
        expanded = 0
        for node, path, nodes in frontier:
            row = rows.get(node)
            if row is None:
                row = rows[node] = entity_row(kernel, node)
            for step, neighbor in zip(*row):
                if neighbor in nodes:
                    continue
                expanded += 1
                new_path = path + (step,)
                new_nodes = nodes + (neighbor,)
                walks = reached.get(neighbor)
                if walks is None:
                    reached[neighbor] = [(new_path, new_nodes)]
                else:
                    walks.append((new_path, new_nodes))
                next_frontier.append((neighbor, new_path, new_nodes))
        if not next_frontier:
            break
        observe("mining.bfs_expanded", expanded)
        observe("mining.bfs_frontier", len(next_frontier))
        frontier = next_frontier
    memo[key] = reached
    return reached


def find_simple_paths(
    kg: KnowledgeGraph,
    source: int,
    target: int,
    max_length: int,
    tracer=None,
    memo: dict | None = None,
) -> set[Path]:
    """All simple predicate paths from ``source`` to ``target``, length ≤ θ.

    Direction of individual edges is ignored for reachability (as in the
    paper's BFS) but recorded in the signed steps of each returned path.
    Returns the set of distinct predicate-path *patterns*; two different
    node routes with the same signed predicate sequence collapse into one.

    A literal endpoint is reached through its single incoming hop: paths
    never pass *through* literals, but a support pair like
    (Michael_Jordan, "1.98") mines the ⟨height⟩ predicate.

    ``memo`` keeps expansion trees and literal-prefix enumerations
    between calls: a mining run passes one dict to every call it makes
    and drops it at its end; a lone call makes its own.
    """
    if tracer is None:
        tracer = obs.get_tracer()
    if memo is None:
        memo = {}
    found = _find_simple_paths(kg, source, target, max_length, memo, tracer)
    tracer.metrics.incr("mining.path_queries")
    tracer.metrics.incr("mining.paths_enumerated", len(found))
    return found


def _find_simple_paths(
    kg: KnowledgeGraph, source: int, target: int, max_length: int, memo: dict, tracer
) -> set[Path]:
    if max_length < 1:
        return set()
    if source == target:
        return set()
    if kg.store.is_literal_id(target):
        return _paths_to_literal(kg, source, target, max_length, memo, tracer)
    if kg.store.is_literal_id(source):
        reversed_paths = _paths_to_literal(kg, target, source, max_length, memo, tracer)
        return {reverse_path(path) for path in reversed_paths}
    forward_depth = (max_length + 1) // 2
    backward_depth = max_length // 2
    forward = _expand_tree(kg, source, forward_depth, memo, tracer)
    backward = _expand_tree(kg, target, backward_depth, memo, tracer)
    if len(backward) < len(forward):
        # Intersect from the smaller tree; the meeting set is symmetric.
        forward, backward = backward, forward
        flip = True
    else:
        flip = False

    found: set[Path] = set()
    for meeting, left_walks in forward.items():
        right_walks = backward.get(meeting)
        if right_walks is None:
            continue
        for left_path, left_nodes in left_walks:
            for right_path, right_nodes in right_walks:
                total = len(left_path) + len(right_path)
                if total == 0 or total > max_length:
                    continue
                # Simplicity: the two halves may share only the meeting
                # node (the last element of both node sequences).
                if _halves_overlap(left_nodes, right_nodes):
                    continue
                if flip:
                    found.add(right_path + reverse_path(left_path))
                else:
                    found.add(left_path + reverse_path(right_path))
    return found


def _halves_overlap(left_nodes: tuple[int, ...], right_nodes: tuple[int, ...]) -> bool:
    """Whether two walk halves share any node besides their common last one.

    Node sequences are ≤ ⌈θ/2⌉ + 1 long, so nested tuple scans beat
    building and intersecting sets per walk pair.
    """
    for node in left_nodes[:-1]:
        if node in right_nodes:
            return True
    return False


def _paths_to_literal(
    kg: KnowledgeGraph, source: int, literal: int, max_length: int, memo: dict, tracer
) -> set[Path]:
    """Simple paths ending in the final hop onto a literal object.

    The entity-to-entity prefix enumeration is memoized per
    (source, holder, length budget) in ``memo``: distinct literals held
    by the same subject (heights, dates, names) would otherwise
    re-enumerate identical prefixes.
    """
    structural = kg.kernel.structural_predicate_ids
    if len(memo) > _MEMO_CAP:
        memo.clear()
    found: set[Path] = set()
    for holder, pid, _obj in kg.store.triples_ids(o=literal):
        if pid in structural:
            continue
        final = pid + 1  # forward step onto the literal
        if holder == source and max_length >= 1:
            found.add((final,))
        if max_length >= 2:
            key = (source, holder, max_length - 1)
            prefixes = memo.get(key)
            if prefixes is None:
                prefixes = _find_simple_paths(kg, source, holder, max_length - 1, memo, tracer)
                memo[key] = prefixes
            for prefix in prefixes:
                found.add(prefix + (final,))
    return found


def describe_path(kg: KnowledgeGraph, path: Path) -> str:
    """Human-readable rendering: '<spouse> → <starring>⁻¹' style."""
    from repro.rdf.graph import step_is_forward, step_predicate

    parts = []
    for step in path:
        name = kg.iri_of(step_predicate(step)).local_name
        parts.append(name if step_is_forward(step) else f"{name}⁻¹")
    return " → ".join(parts)
