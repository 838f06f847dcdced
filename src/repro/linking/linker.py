"""Entity linker: phrase → confidence-ranked entity/class candidates.

Plays the role of DBpedia Lookup in the paper (Section 4.2.1): given an
argument phrase from the semantic query graph, return every plausible
entity or class with a confidence probability δ(arg, u) ∈ (0, 1] — and
return them *all*; disambiguation is the matcher's job.

Scoring combines surface similarity with graph prominence (degree), the
same signals lookup services rank by: "Philadelphia" retrieves the city,
the film, and the 76ers; the city scores highest on prominence, yet the
film wins later because only it participates in a match.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Iterable

from repro import obs
from repro.linking.index import IndexEntry, LabelIndex, normalize_label
from repro.linking.similarity import combined_similarity
from repro.rdf.graph import KnowledgeGraph


@dataclass(frozen=True, slots=True)
class LinkCandidate:
    """One candidate mapping of an argument phrase to a graph node."""

    node_id: int
    label: str
    score: float
    is_class: bool

    def __repr__(self) -> str:
        kind = "class" if self.is_class else "entity"
        return f"LinkCandidate({self.label!r}, {kind}, {self.score:.3f})"


class _ProminenceTable(dict):
    """``node_id → prominence`` for one store version, filled on first read.

    Prominence is ``log1p(degree) / log1p(max_degree)`` — degree-based
    popularity, log-scaled, clamped to [0, 1] (``max_degree`` is the
    ceiling of the graph the linker was built over; a node that live
    ingest has grown past it is as prominent as a node can be, not
    more) — and a degree is a function of the store's contents, so a
    table is valid for exactly the version it is stamped with; the linker
    starts a new one when the version has moved, unless the writer has
    said which nodes it touched (:meth:`EntityLinker.carry_prominence`).
    It holds at most the nodes the label index can return.
    """

    __slots__ = ("version", "_kg", "_max_degree")

    def __init__(self, kg: KnowledgeGraph, max_degree: int, version: int):
        super().__init__()
        self.version = version
        self._kg = kg
        self._max_degree = max_degree

    def __missing__(self, node_id: int) -> float:
        degree = self._kg.degree(node_id)
        if degree <= 0:
            value = 0.0
        else:
            value = min(1.0, math.log1p(degree) / math.log1p(self._max_degree))
        self[node_id] = value
        return value


def _max_degree(kg: KnowledgeGraph) -> int:
    """``max(kg.degree(node) for node in kg.store.node_ids())`` from one
    scan: a node's degree is the number of times it stands as a subject
    plus the number of times it stands as an object (a self-loop counts
    twice, as it does there); literals are not nodes."""
    degrees = Counter(
        chain.from_iterable((sid, oid) for sid, _pid, oid in kg.store.triples_ids())
    )
    is_literal = kg.store.is_literal_id
    return max(
        (degree for node_id, degree in degrees.items() if not is_literal(node_id)),
        default=1,
    )


def _material(kg: KnowledgeGraph) -> tuple[LabelIndex, int]:
    """The label index and max degree of ``kg`` — functions of the store's
    contents, so built once per store version and kept with the kernel.

    The one place they are built.  The kernel's ``linking_material`` slot
    holds one ``(store version, index, max degree)``; it is rebuilt when
    the version has moved (a direct store write moves it without a
    refresh), and a refreshed or patched kernel starts without one.
    (Two threads that miss together build twice and keep one; the values
    are equal.)
    """
    kernel = kg.kernel
    version = kg.store.version
    tracer = obs.get_tracer()
    held = kernel.linking_material
    if held is not None and held[0] == version:
        tracer.metrics.incr("linking.material_found")
    else:
        with tracer.span("linking.index_build", store_version=version):
            held = kernel.linking_material = (version, LabelIndex(kg), _max_degree(kg))
        tracer.metrics.incr("linking.material_built")
    return held[1], held[2]


class EntityLinker:
    """Link argument phrases to knowledge graph nodes.

    Parameters
    ----------
    kg:
        The knowledge graph to link against.
    max_candidates:
        Upper bound on returned candidates per phrase.
    min_score:
        Candidates scoring below this confidence are dropped; raising it
        trades recall (more entity-linking failures, Table 10) for speed.
    """

    def __init__(
        self,
        kg: KnowledgeGraph,
        max_candidates: int = 10,
        min_score: float = 0.25,
        index: LabelIndex | None = None,
        max_degree: int | None = None,
    ):
        self.kg = kg
        self.max_candidates = max_candidates
        self.min_score = min_score
        # A compiled snapshot supplies both the prebuilt index and the
        # max degree, skipping the full label scan and the degree sweep.
        # Otherwise both are the kernel's, built once per store version.
        if index is None or max_degree is None:
            shared_index, shared_max_degree = _material(kg)
            if index is None:
                index = shared_index
            if max_degree is None:
                max_degree = shared_max_degree
        self.index = index
        self._max_degree = max_degree
        self._prominence = _ProminenceTable(kg, self._max_degree, kg.store.version)

    @property
    def max_degree(self) -> int:
        """The prominence-normalization ceiling (snapshot compiler reads it)."""
        return self._max_degree

    def statistics(self) -> dict[str, int]:
        """Index and prominence-table sizes (``GET /stats`` → ``linker``).

        Reads the table, never fills or replaces it: a stale
        ``prominence_version`` means no mention was linked since a write
        that did not carry the table forward.
        """
        prominence = self._prominence
        return {
            "entries": len(self.index),
            "words": len(self.index.word_postings()),
            "max_degree": self._max_degree,
            "prominence_version": prominence.version,
            "prominence_cached": len(prominence),
        }

    def carry_prominence(self, touched: Iterable[int]) -> None:
        """Carry the prominence table across the write that just ended.

        ``touched`` are the nodes whose degree the write may have changed
        (the subjects and objects of its triples).  The successor is a
        copy of the current table without them, stamped with the store's
        current version, so the next mention re-reads those degrees and
        no other.  For the one writer, after its last mutation; a reader
        that is still filling the table it took before keeps filling that
        one, never the successor.
        """
        successor = _ProminenceTable(self.kg, self._max_degree, self.kg.store.version)
        dict.update(successor, self._prominence)
        for node_id in touched:
            successor.pop(node_id, None)
        self._prominence = successor

    def link(self, phrase: str, tracer=None) -> list[LinkCandidate]:
        """Confidence-ranked candidates for ``phrase`` (may be empty).

        Exact normalized label matches always rank above partial matches;
        within each tier, prominence (degree) breaks ties — mirroring how
        lookup services rank "Philadelphia" the city above the film.

        The cost follows the distinct labels met and the candidates
        returned, not the entries scored: prominence comes from the
        per-store-version table, a label shared by many homonyms is
        compared with the phrase once, and a :class:`LinkCandidate` is
        built only for an entry that survives the cut.
        """
        normalized = normalize_label(phrase)
        if not normalized:
            return []
        # Request threads share this linker and writers do not wait for
        # them.  Read the table once and fill it through this reference
        # only: a degree read before a write can then never land in a table
        # stamped after it, whichever thread replaces ``self._prominence``.
        prominence = self._prominence
        version = self.kg.store.version
        if prominence.version != version:
            prominence = self._prominence = _ProminenceTable(
                self.kg, self._max_degree, version
            )
        best: dict[int, tuple[float, IndexEntry]] = {}
        exact_entries = self.index.exact(phrase)
        if not exact_entries:
            # Lookup services resolve a descriptive prefix away: "the comic
            # Captain America" → "Captain America".  Try suffixes of the
            # phrase before falling back to fuzzy retrieval.
            words = phrase.split()
            for start in range(1, len(words)):
                exact_entries = self.index.exact(" ".join(words[start:]))
                if exact_entries:
                    break
        for entry in exact_entries:
            node_id = entry.node_id
            # Exact matches sit in [0.8, 1.0] by prominence alone, so a
            # node's second exact entry can only tie: the first one stays.
            if node_id not in best:
                best[node_id] = (0.8 + 0.2 * prominence[node_id], entry)
        min_score = self.min_score
        similarities: dict[str, float] = {}
        if best:
            # Exact hits exist: keep only the fuzzy candidates whose label
            # *contains* every phrase word — lookup services behave like a
            # prefix search ("Philadelphia" also returns "Philadelphia
            # 76ers"), but sharing one word is not enough ("Mark Thatcher"
            # must not pollute "Margaret Thatcher").
            phrase_words = set(normalized.split())
            for entry in self.index.by_words(phrase):
                if entry.node_id in best:
                    continue
                if phrase_words <= set(entry.normalized.split()):
                    label = entry.normalized
                    similarity = similarities.get(label)
                    if similarity is None:
                        similarity = similarities[label] = combined_similarity(
                            normalized, label
                        )
                    # Partial matches are scaled into [0, 0.8) so they can
                    # never outrank an exact match.
                    node_id = entry.node_id
                    score = similarity * (0.55 + 0.25 * prominence[node_id])
                    if score >= min_score:
                        best[node_id] = (score, entry)
        else:
            for entry in self.index.by_words(phrase):
                label = entry.normalized
                similarity = similarities.get(label)
                if similarity is None:
                    similarity = similarities[label] = combined_similarity(
                        normalized, label
                    )
                node_id = entry.node_id
                score = similarity * (0.55 + 0.25 * prominence[node_id])
                if score >= min_score:
                    existing = best.get(node_id)
                    if existing is None or score > existing[0]:
                        best[node_id] = (score, entry)
        ranked = sorted(best.values(), key=lambda pair: (-pair[0], pair[1].node_id))
        kept = [
            LinkCandidate(entry.node_id, entry.label, score, entry.is_class)
            for score, entry in ranked[: self.max_candidates]
        ]
        if tracer is None:
            tracer = obs.get_tracer()
        metrics = tracer.metrics
        metrics.incr("linker.lookups")
        metrics.incr("linker.candidates_returned", len(kept))
        if not kept:
            metrics.incr("linker.misses")
        return kept
