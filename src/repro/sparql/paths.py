"""SPARQL 1.1 property paths (evaluation subset).

The paper's related work (Section 7, citing Losemann & Martens) contrasts
its offline *simple-path enumeration under a length bound* with SPARQL
property paths — regular expressions over predicates with unbounded
closure.  This module makes property paths executable so the contrast is
demonstrable in one system:

* ``<p>``            — a predicate step
* ``^<p>``           — inverse step
* ``p1 / p2``        — sequence
* ``p1 | p2``        — alternative
* ``p+``, ``p*``, ``p?`` — one-or-more / zero-or-more / zero-or-one
* parentheses for grouping

Closure (`+`/`*`) is evaluated by BFS over *nodes* (W3C semantics: no
duplicate nodes, termination guaranteed on cyclic data), unlike the
offline miner's all-simple-paths enumeration — exactly the difference the
paper points out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Union

from repro.rdf.store import TripleStore
from repro.rdf.terms import IRI


@dataclass(frozen=True, slots=True)
class PredicateStep:
    """A single forward predicate step."""

    predicate: IRI


@dataclass(frozen=True, slots=True)
class InversePath:
    inner: "PathExpr"


@dataclass(frozen=True, slots=True)
class SequencePath:
    steps: tuple["PathExpr", ...]


@dataclass(frozen=True, slots=True)
class AlternativePath:
    options: tuple["PathExpr", ...]


@dataclass(frozen=True, slots=True)
class RepeatPath:
    """Closure: min_count 0 (``*``/``?``) or 1 (``+``); bounded=True is ``?``."""

    inner: "PathExpr"
    min_count: int
    at_most_one: bool = False


PathExpr = Union[PredicateStep, InversePath, SequencePath, AlternativePath, RepeatPath]


def path_to_string(path: PathExpr) -> str:
    """Round-trippable rendering of a path expression."""
    if isinstance(path, PredicateStep):
        return f"<{path.predicate.value}>"
    if isinstance(path, InversePath):
        return f"^{path_to_string(path.inner)}"
    if isinstance(path, SequencePath):
        return "(" + "/".join(path_to_string(s) for s in path.steps) + ")"
    if isinstance(path, AlternativePath):
        return "(" + "|".join(path_to_string(o) for o in path.options) + ")"
    suffix = "?" if path.at_most_one else ("*" if path.min_count == 0 else "+")
    return f"{path_to_string(path.inner)}{suffix}"


# --------------------------------------------------------------------- #
# Evaluation
# --------------------------------------------------------------------- #

def _reach(store: TripleStore, path: PathExpr, start: int, forward: bool) -> set[int]:
    """All nodes ``path`` leads to from ``start`` (node semantics) —
    walked along its steps when ``forward``, else against them, which
    finds the nodes from which ``start`` is reachable via ``path``."""
    if isinstance(path, PredicateStep):
        pid = store.dictionary.lookup_or_none(path.predicate)
        if pid is None:
            return set()
        if forward:
            return set(store.objects_ids(start, pid))
        return set(store.subjects_ids(pid, start))
    if isinstance(path, InversePath):
        return _reach(store, path.inner, start, not forward)
    if isinstance(path, SequencePath):
        frontier = {start}
        for step in path.steps if forward else reversed(path.steps):
            next_frontier: set[int] = set()
            for node in frontier:
                next_frontier |= _reach(store, step, node, forward)
            if not next_frontier:
                return set()
            frontier = next_frontier
        return frontier
    if isinstance(path, AlternativePath):
        found: set[int] = set()
        for option in path.options:
            found |= _reach(store, option, start, forward)
        return found
    # RepeatPath: BFS closure over nodes.
    reached: set[int] = set()
    frontier = {start}
    if path.min_count == 0:
        reached.add(start)
    while frontier:
        next_frontier = set()
        for node in frontier:
            next_frontier |= _reach(store, path.inner, node, forward)
        next_frontier -= reached
        reached |= next_frontier
        if path.at_most_one:
            break
        frontier = next_frontier
    return reached


def evaluate_path(
    store: TripleStore,
    path: PathExpr,
    source: int | None,
    target: int | None,
) -> Iterator[tuple[int, int]]:
    """All (source, target) id pairs connected by ``path``.

    Either endpoint may be bound (an id) or free (None); with both free,
    every graph node is tried as a source — correct, if costly, matching
    the W3C evaluation semantics for open-ended paths.
    """
    if source is not None and target is not None:
        if target in _reach(store, path, source, True):
            yield (source, target)
        return
    if source is not None:
        for node in sorted(_reach(store, path, source, True)):
            yield (source, node)
        return
    if target is not None:
        for node in sorted(_reach(store, path, target, False)):
            yield (node, target)
        return
    for start in sorted(store.node_ids()):
        for node in sorted(_reach(store, path, start, True)):
            yield (start, node)
