"""Inverted label index over a knowledge graph.

Indexes every ``rdfs:label`` (falling back to IRI local names) of every
graph node, normalized, plus a word-level posting list so multi-word and
partial phrases retrieve candidates cheaply.  Parenthetical disambiguators
("Philadelphia (film)") are stripped from the *key* but kept on the entry,
which is exactly what makes "Philadelphia" ambiguous — three nodes share
the normalized key.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

from repro.nlp.lemmatizer import lemmatize_noun
from repro.rdf.graph import KnowledgeGraph
from repro.rdf.terms import IRI

_PAREN_RE = re.compile(r"\s*\([^)]*\)")
_NON_WORD_RE = re.compile(r"[^a-z0-9 ]+")


def normalize_label(label: str) -> str:
    """Normalization applied to both index keys and query phrases."""
    text = _PAREN_RE.sub("", label.lower())
    text = text.replace("_", " ").replace("-", " ").replace(".", "")
    text = _NON_WORD_RE.sub(" ", text)
    return " ".join(text.split())


def _posting_keys(normalized: str) -> set[str]:
    """The word keys of a normalized label or phrase: its words and their
    singular forms, so "films" and "film" meet under "film".  An entry is
    filed under the keys of its label and retrieved through the keys of
    the phrase — the two sides of one function."""
    words = set(normalized.split())
    return words | {lemmatize_noun(word) for word in words}


@lru_cache(maxsize=4096)
def lookup_words(phrase: str) -> frozenset[str]:
    """Every posting key a lookup of ``phrase`` reads.

    An entry can reach the candidates of ``phrase`` — through
    :meth:`LabelIndex.exact` (suffixes of the phrase included) or
    :meth:`LabelIndex.by_words` — only if it is filed under one of these,
    which makes them the *label-word read scope* of a link list: a write
    that touches no node filed under any of them cannot change the list.
    """
    return frozenset(_posting_keys(normalize_label(phrase)))


@dataclass(frozen=True, slots=True)
class IndexEntry:
    """One (node, label) pair in the index."""

    node_id: int
    label: str
    normalized: str
    is_class: bool


class LabelIndex:
    """Exact and word-overlap retrieval over graph node labels."""

    def __init__(self, kg: KnowledgeGraph):
        self.kg = kg
        self._exact: dict[str, list[IndexEntry]] = {}
        self._by_word: dict[str, set[int]] = {}  # word → entry positions
        self._entries: list[IndexEntry] = []
        self._words_of: dict[int, list[str]] | None = None
        self._build()

    @classmethod
    def prebuilt(
        cls,
        kg: KnowledgeGraph,
        entries: list[IndexEntry],
        exact: dict[str, list[IndexEntry]],
        by_word: dict[str, set[int]],
    ) -> "LabelIndex":
        """An index over structures a compiled snapshot already holds.

        Skips the full build — no triple scan, no label normalization,
        no lemmatizing: the snapshot reader decodes the persisted entries
        (in insertion order), the exact-match map over their stored
        normalized keys and the word posting sets straight into the
        objects given here, and the index adopts them as they are.
        """
        index = cls.__new__(cls)
        index.kg = kg
        index._entries = entries
        index._exact = exact
        index._by_word = by_word
        index._words_of = None
        return index

    def entries(self) -> list[IndexEntry]:
        """All (node, label) entries in insertion order (read-only)."""
        return self._entries

    def word_postings(self) -> dict[str, set[int]]:
        """word → entry-position posting lists (read-only)."""
        return self._by_word

    def _build(self) -> None:
        store = self.kg.store
        decode = store.dictionary.decode
        # Every rdfs:label in one scan grouped by subject, not a seek per
        # node.  The scan orders one node's labels by object, the seek by
        # the backend's leaf for that node, and entry order is persisted —
        # so a node with several labels is read again through the seek.
        labels_of: dict[int, list[str]] = {}
        label_id = self.kg.kernel.label_id
        if label_id is not None:
            for sid, _pid, oid in store.triples_ids(p=label_id):
                labels_of.setdefault(sid, []).append(str(decode(oid)))
        class_ids = self.kg.class_ids
        for node_id in sorted(store.node_ids()):
            labels = labels_of.get(node_id)
            if labels is None:
                # An unlabelled node is linked by its IRI's local name.
                term = decode(node_id)
                fallback = (
                    term.local_name.replace("_", " ") if isinstance(term, IRI) else str(term)
                )
                labels = [fallback] if fallback else []
            elif len(labels) > 1:
                labels = self.kg.all_labels(node_id)
            is_class = node_id in class_ids
            for label in labels:
                self._add_entry(node_id, label, is_class)
        # Short name-like literals are linkable too: "Who was called
        # Scarface?" must link the phrase to the alias literal itself.
        structural = self.kg.structural_predicate_ids
        for sid, pid, oid in store.triples_ids():
            if pid in structural or not store.is_literal_id(oid):
                continue
            lexical = str(store.dictionary.decode(oid))
            if 0 < len(lexical.split()) <= 4 and not lexical[:1].isdigit():
                self._add_entry(oid, lexical, is_class=False)

    def _add_entry(self, node_id: int, label: str, is_class: bool) -> None:
        normalized = normalize_label(label)
        if not normalized:
            return
        entry = IndexEntry(node_id, label, normalized, is_class)
        if any(e.node_id == node_id for e in self._exact.get(normalized, ())):
            return
        position = len(self._entries)
        self._entries.append(entry)
        self._exact.setdefault(normalized, []).append(entry)
        for word in _posting_keys(normalized):
            self._by_word.setdefault(word, set()).add(position)

    def __len__(self) -> int:
        return len(self._entries)

    def exact(self, phrase: str) -> list[IndexEntry]:
        """Entries whose normalized label equals the normalized phrase.

        Tries the phrase as-is and with its head word singularised
        ("movies" → "movie")."""
        normalized = normalize_label(phrase)
        found = list(self._exact.get(normalized, ()))
        words = normalized.split()
        if words:
            singular = " ".join(words[:-1] + [lemmatize_noun(words[-1])])
            if singular != normalized:
                found.extend(self._exact.get(singular, ()))
        return found

    def by_words(self, phrase: str) -> list[IndexEntry]:
        """Entries sharing at least one word with the phrase."""
        positions: set[int] = set()
        for word in lookup_words(phrase):
            positions |= self._by_word.get(word, set())
        return [self._entries[position] for position in sorted(positions)]

    def words_of(self, node_id: int) -> list[str]:
        """The posting keys the node's entries are filed under (read-only;
        empty for a node the index does not know).

        The inverse of the posting lists, built by one pass over them on
        the first call — a writer's question ("whose link lists can a
        change to this node reach?"), so a process that never writes
        never builds it.  Callers serialise the first call (the serving
        engine asks under its ingest lock).
        """
        words_of = self._words_of
        if words_of is None:
            words_of = {}
            entries = self._entries
            for word, positions in self._by_word.items():
                for position in positions:
                    words_of.setdefault(entries[position].node_id, []).append(word)
            self._words_of = words_of
        return words_of.get(node_id, [])
