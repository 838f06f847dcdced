"""The paraphrase dictionary D: relation phrases → predicate paths.

Each entry maps a (lemmatized) relation phrase to a confidence-ranked list
of predicate paths (Figure 3 of the paper).  The dictionary also carries
the word-level inverted index that Algorithm 2 uses to find which relation
phrases occur in a dependency tree.

Maintenance (Section 3's closing remark): when predicates are removed from
the dataset, :meth:`remove_predicate` drops every mapping that traverses
them; newly introduced predicates are covered by mining again
(:meth:`repro.paraphrase.ParaphraseMiner.mine`).  Definition 4's idf is
taken over the whole phrase set T, so an exact re-mine collects every
phrase's path sets: re-mining only the phrases a new predicate touches
would score them against each other alone.

The dictionary is persisted, by id, as the ``dictionary`` section of a
compiled snapshot (:mod:`repro.rdf.snapshot`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.rdf.graph import step_predicate

Path = tuple[int, ...]


@dataclass(frozen=True, slots=True)
class PredicateMapping:
    """One phrase→path mapping with its confidence probability."""

    path: Path
    confidence: float

    @property
    def length(self) -> int:
        return len(self.path)

    @property
    def is_single_predicate(self) -> bool:
        return len(self.path) == 1


class ParaphraseDictionary:
    """Relation phrases with their top-k equivalent predicate paths."""

    def __init__(self) -> None:
        self._entries: dict[tuple[str, ...], list[PredicateMapping]] = {}
        self._word_index: dict[str, set[tuple[str, ...]]] = {}

    # ------------------------------------------------------------------ #
    # Population
    # ------------------------------------------------------------------ #

    def add(self, phrase_words: tuple[str, ...], mappings: list[PredicateMapping]) -> None:
        """Insert/replace the mappings for a phrase (given as lemma tuple)."""
        if not phrase_words:
            raise ValueError("relation phrase must have at least one word")
        # Ties on confidence prefer shorter paths (a single predicate beats
        # an equally-confident multi-hop path).
        ranked = sorted(mappings, key=lambda m: (-m.confidence, len(m.path), m.path))
        self._entries[phrase_words] = ranked
        for word in phrase_words:
            self._word_index.setdefault(word, set()).add(phrase_words)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, phrase_words: tuple[str, ...]) -> bool:
        return phrase_words in self._entries

    def phrases(self) -> Iterator[tuple[str, ...]]:
        return iter(self._entries)

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #

    def lookup(self, phrase_words: tuple[str, ...]) -> list[PredicateMapping]:
        """Ranked predicate paths for a phrase ([] when absent)."""
        return list(self._entries.get(phrase_words, ()))

    def phrases_containing(self, word: str) -> set[tuple[str, ...]]:
        """All phrases containing ``word`` — Algorithm 2's inverted index."""
        return set(self._word_index.get(word, ()))

    def vocabulary(self) -> set[str]:
        return set(self._word_index)

    # ------------------------------------------------------------------ #
    # Maintenance
    # ------------------------------------------------------------------ #

    def remove_predicate(self, predicate_id: int) -> int:
        """Drop every mapping whose path uses ``predicate_id``.

        Returns the number of mappings removed.  Phrases left with no
        mappings stay in the dictionary (their embeddings can still be
        found; they simply produce no edge candidates).
        """
        removed = 0
        for phrase, mappings in self._entries.items():
            kept = [
                m for m in mappings
                if all(step_predicate(step) != predicate_id for step in m.path)
            ]
            removed += len(mappings) - len(kept)
            self._entries[phrase] = kept
        return removed
