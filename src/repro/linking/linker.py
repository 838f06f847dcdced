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
from dataclasses import dataclass

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
        self.index = index if index is not None else LabelIndex(kg)
        self._max_degree = max_degree if max_degree is not None else max(
            (kg.degree(node_id) for node_id in kg.store.node_ids()),
            default=1,
        )

    @property
    def max_degree(self) -> int:
        """The prominence-normalization ceiling (snapshot compiler reads it)."""
        return self._max_degree

    def link(self, phrase: str, tracer=None) -> list[LinkCandidate]:
        """Confidence-ranked candidates for ``phrase`` (may be empty).

        Exact normalized label matches always rank above partial matches;
        within each tier, prominence (degree) breaks ties — mirroring how
        lookup services rank "Philadelphia" the city above the film.
        """
        normalized = normalize_label(phrase)
        if not normalized:
            return []
        scored: dict[int, LinkCandidate] = {}
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
            candidate = self._score(phrase, entry, exact=True)
            self._keep_best(scored, candidate)
        if scored:
            # Exact hits exist: keep only the fuzzy candidates whose label
            # *contains* every phrase word — lookup services behave like a
            # prefix search ("Philadelphia" also returns "Philadelphia
            # 76ers"), but sharing one word is not enough ("Mark Thatcher"
            # must not pollute "Margaret Thatcher").
            phrase_words = set(normalized.split())
            for entry in self.index.by_words(phrase):
                if entry.node_id in scored:
                    continue
                if phrase_words <= set(entry.normalized.split()):
                    candidate = self._score(phrase, entry, exact=False)
                    if candidate.score >= self.min_score:
                        self._keep_best(scored, candidate)
        else:
            for entry in self.index.by_words(phrase):
                candidate = self._score(phrase, entry, exact=False)
                if candidate.score >= self.min_score:
                    self._keep_best(scored, candidate)
        ranked = sorted(scored.values(), key=lambda c: (-c.score, c.node_id))
        kept = ranked[: self.max_candidates]
        if tracer is None:
            tracer = obs.get_tracer()
        metrics = tracer.metrics
        metrics.incr("linker.lookups")
        metrics.incr("linker.candidates_returned", len(kept))
        if not kept:
            metrics.incr("linker.misses")
        return kept

    def _keep_best(self, scored: dict[int, LinkCandidate], candidate: LinkCandidate) -> None:
        existing = scored.get(candidate.node_id)
        if existing is None or candidate.score > existing.score:
            scored[candidate.node_id] = candidate

    def _score(self, phrase: str, entry: IndexEntry, exact: bool) -> LinkCandidate:
        similarity = 1.0 if exact else combined_similarity(
            normalize_label(phrase), entry.normalized
        )
        prominence = self._prominence(entry.node_id)
        # Exact matches sit in [0.8, 1.0] by prominence; partial matches are
        # scaled into [0, 0.8) so they can never outrank an exact match.
        if exact:
            score = 0.8 + 0.2 * prominence
        else:
            score = similarity * (0.55 + 0.25 * prominence)
        return LinkCandidate(entry.node_id, entry.label, score, entry.is_class)

    def _prominence(self, node_id: int) -> float:
        """Degree-based popularity in [0, 1], log-scaled."""
        degree = self.kg.degree(node_id)
        if degree <= 0:
            return 0.0
        return math.log1p(degree) / math.log1p(self._max_degree)
