"""Inverted label index over a knowledge graph.

Indexes every ``rdfs:label`` (falling back to IRI local names) of every
graph node, normalized, plus a word-level posting list so multi-word and
partial phrases retrieve candidates cheaply.  Parenthetical disambiguators
("Philadelphia (film)") are stripped from the *key* but kept on the entry,
which is exactly what makes "Philadelphia" ambiguous — three nodes share
the normalized key.

The index has one form, columns, whether it was built from a graph or
opened from a compiled snapshot (which stores :meth:`LabelIndex.columns`
as they are and hands back ``memoryview`` casts over its mapping):

* the entries — a node-id column, a class-flag column, and the labels and
  their normalized forms as UTF-8 blobs with offsets — decoded into one
  list of :class:`IndexEntry`, because :meth:`LabelIndex.by_words` walks
  them;
* two key tables of one shape (:class:`KeyTable`): the *word table*
  (posting key → the entries filed under it) and the *label table*
  (normalized label → its entries), each a sorted key blob with offsets,
  run starts and an entry-position column ascending within each run.
  Neither becomes a ``dict`` or a ``set``: a lookup bisects the keys and
  reads a run of the positions.
"""

from __future__ import annotations

import re
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, chain, repeat, tee
from operator import eq, le, lt

from repro.nlp.lemmatizer import lemmatize_noun
from repro.rdf.columns import (
    borrowed_column,
    ids_below,
    owned_column,
    run_starts_rise,
    runs_ascend,
)
from repro.rdf.graph import KnowledgeGraph
from repro.rdf.terms import IRI

_PAREN_RE = re.compile(r"\s*\([^)]*\)")
_NON_WORD_RE = re.compile(r"[^a-z0-9 ]+")
_NON_ASCII_RE = re.compile(rb"[^\x00-\x7f]")

#: Which of :meth:`LabelIndex.columns` are integer columns, in order
#: (the others are bytes): node ids, class flags, label offsets and blob,
#: normalized offsets and blob; then the word table and the label table,
#: each key offsets, key blob, run starts and positions.
_INTEGER_COLUMNS = (True, False) * 3 + (True, False, True, True) * 2
#: :func:`_union` bisects the other runs' positions into the longest run
#: when it is at least this many times longer than they are together.
_DOMINANT = 8
#: The most words :meth:`LabelIndex.by_words` remembers the place of.
_FOUND_LIMIT = 4096


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


@dataclass(frozen=True, slots=True)
class KeyTable:
    """Sorted keys, each filed with an ascending run of entry positions.

    Key ``i`` is ``keys[offsets[i]:offsets[i + 1]]`` — ASCII, since
    normalized text is ``[a-z0-9 ]``, so byte order is string order — and
    its run is ``positions[starts[i]:starts[i + 1]]``.
    """

    offsets: memoryview
    keys: memoryview
    starts: memoryview
    positions: memoryview

    def __len__(self) -> int:
        return len(self.starts) - 1

    def run(self, i: int) -> memoryview:
        return self.positions[self.starts[i]:self.starts[i + 1]]

    def items(self):
        """``(key, run)`` for every key, in key order."""
        starts = self.starts
        return zip(
            _texts(self.offsets, self.keys),
            map(self.positions.__getitem__, map(slice, starts, starts[1:])),
        )

    def find(self, key: str) -> int:
        """The index of ``key``, or -1: a binary search over the blob."""
        wanted = key.encode("utf-8")
        offsets, keys = self.offsets, self.keys
        low, high = 0, len(offsets) - 1
        while low < high:
            middle = (low + high) // 2
            if keys[offsets[middle]:offsets[middle + 1]].tobytes() < wanted:
                low = middle + 1
            else:
                high = middle
        if low < len(offsets) - 1 and keys[offsets[low]:offsets[low + 1]] == wanted:
            return low
        return -1

    def check(self, entries: int) -> None:
        """Raise ``ValueError`` unless the columns are a table over
        ``entries`` entries.

        Every rule walks the columns in place and collects nothing: a
        set of boxed positions, freed after the check, left its arenas
        with the allocator for the life of the process.
        """
        offsets, starts, positions = self.offsets, self.starts, self.positions
        _check_offsets(offsets, self.keys, "key")
        if _NON_ASCII_RE.search(self.keys):
            raise ValueError("a key is not ASCII")
        if len(starts) != len(offsets) or not run_starts_rise(starts, len(positions)):
            raise ValueError("run starts do not rise from 0 to the position count")
        if not ids_below(positions, entries):
            raise ValueError(f"a position is not one of the {entries} entries")
        if not runs_ascend((positions,), starts, strictly=True):
            raise ValueError("a run of positions is not ascending")
        earlier, later = tee(map(bytes, _slices(offsets, self.keys)))
        next(later, None)
        if not all(map(lt, earlier, later)):
            raise ValueError("keys are not strictly ascending")


def _slices(offsets: memoryview, blob: memoryview):
    return map(blob.__getitem__, map(slice, offsets, offsets[1:]))


def _texts(offsets: memoryview, blob: memoryview):
    return map(str, _slices(offsets, blob), repeat("utf-8"))


def _check_offsets(offsets: memoryview, blob: memoryview, what: str) -> None:
    if (
        not offsets
        or offsets[0] != 0
        or offsets[-1] != len(blob)
        or not all(map(le, offsets, offsets[1:]))
    ):
        raise ValueError(f"{what} offsets decrease or do not span their blob")


def _blob(texts: list[str]) -> tuple[array, bytes]:
    data = [text.encode("utf-8") for text in texts]
    return owned_column(accumulate(map(len, data), initial=0)), b"".join(data)


def _table(runs: dict[str, list[int]]) -> tuple:
    keys = sorted(runs)
    ordered = [runs[key] for key in keys]
    return (
        *_blob(keys),
        owned_column(accumulate(map(len, ordered), initial=0)),
        owned_column(chain.from_iterable(ordered)),
    )


def _columns(entries: list[IndexEntry]) -> list:
    """The columns of an index over ``entries`` (in ``_INTEGER_COLUMNS`` order)."""
    words: dict[str, list[int]] = {}
    labels: dict[str, list[int]] = {}
    for position, entry in enumerate(entries):
        labels.setdefault(entry.normalized, []).append(position)
        for word in _posting_keys(entry.normalized):
            words.setdefault(word, []).append(position)
    return [
        owned_column([entry.node_id for entry in entries]),
        bytes([entry.is_class for entry in entries]),
        *_blob([entry.label for entry in entries]),
        *_blob([entry.normalized for entry in entries]),
        *_table(words),
        *_table(labels),
    ]


def _decoded(columns: list[memoryview], terms: int) -> list[IndexEntry]:
    """The entries the first six columns hold, checked; a normalized
    label equal to its label is the label's own object."""
    node_ids, flags, label_offsets, labels, normalized_offsets, normalized = columns[:6]
    if not len(flags) == len(node_ids) == len(label_offsets) - 1 == len(normalized_offsets) - 1:
        raise ValueError("the entry columns disagree on length")
    _check_offsets(label_offsets, labels, "label")
    _check_offsets(normalized_offsets, normalized, "normalized label")
    if not ids_below(node_ids, terms):
        raise ValueError(f"an entry's node id is not one of the {terms} term ids")
    if not set(flags) <= {0, 1}:
        raise ValueError("a class flag is not 0 or 1")
    texts = list(_texts(label_offsets, labels))
    keys = [
        label if key == label else key
        for label, key in zip(texts, _texts(normalized_offsets, normalized))
    ]
    # One run of entries after their strings, not in among them: by_words
    # walks them on every question, and a walk over interleaved objects
    # measured ~10 % slower.
    return list(map(IndexEntry, node_ids, texts, keys, map(bool, flags)))


def _union(runs: list[memoryview]):
    """The positions of all ``runs``, ascending, each once.

    A lone run is served as it is; a run that dominates has the others'
    few positions bisected into it; otherwise one ``set`` union is built
    for the call.
    """
    if not runs:
        return ()
    runs.sort(key=len)
    longest = runs.pop()
    if not runs:
        return longest
    rest = set().union(*runs)
    if len(rest) * _DOMINANT > len(longest):
        rest.update(longest)
        return sorted(rest)
    merged: list[int] = []
    start = 0
    for position in sorted(rest):
        at = bisect_left(longest, position, start)
        merged.extend(longest[start:at])
        if at == len(longest) or longest[at] != position:
            merged.append(position)
        start = at
    merged.extend(longest[start:])
    return merged


class LabelIndex:
    """Exact and word-overlap retrieval over graph node labels.

    ``LabelIndex(kg)`` builds the columns from the graph; ``columns``
    (``_INTEGER_COLUMNS`` order, anything with a buffer) opens them instead — every
    column checked, ``ValueError`` if they do not describe an index over
    ``kg``'s terms.
    """

    def __init__(self, kg: KnowledgeGraph, columns: list | None = None):
        self.kg = kg
        self._words_of: dict[int, list[str]] | None = None
        #: Word → its index in the word table (-1: not there), for the
        #: words lookups have asked for: a bisection of the key blob is a
        #: Python loop, ~50× a ``dict`` hit.  Emptied when it reaches
        #: ``_FOUND_LIMIT`` items, so phrases cannot grow it without bound.
        self._found: dict[str, int] = {}
        opened = columns is not None
        if not opened:
            self._entries: list[IndexEntry] = []
            self._filed: set[tuple[int, str]] = set()
            self._build()
            del self._filed
            columns = _columns(self._entries)
        columns = [
            borrowed_column(column) if integer else memoryview(column).cast("B")
            for column, integer in zip(columns, _INTEGER_COLUMNS, strict=True)
        ]
        self._columns = columns
        self._words = words = KeyTable(*columns[6:10])
        self._labels = labels = KeyTable(*columns[10:14])
        if opened:
            self._entries = _decoded(columns, len(kg.store.dictionary))
            words.check(len(self._entries))
            labels.check(len(self._entries))
        # The label table is searched by C ``bisect`` over each run's first
        # entry's own normalized string: no new string objects.
        self._label_keys = [
            self._entries[position].normalized
            for position in map(labels.positions.__getitem__, labels.starts[:-1])
        ]
        if opened and not all(map(eq, self._label_keys, (key for key, _run in labels.items()))):
            raise ValueError("a label key is not the label of its run")

    def entries(self) -> list[IndexEntry]:
        """All (node, label) entries in insertion order (read-only)."""
        return self._entries

    def columns(self) -> list[memoryview]:
        """The index as a snapshot stores it, ``_INTEGER_COLUMNS`` order (read-only)."""
        return self._columns

    def word_postings(self) -> KeyTable:
        """The word table: posting key → entry positions (read-only)."""
        return self._words

    def label_postings(self) -> KeyTable:
        """The label table: normalized label → entry positions (read-only)."""
        return self._labels

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
        if not normalized or (node_id, normalized) in self._filed:
            return
        self._filed.add((node_id, normalized))
        if normalized == label:
            normalized = label
        self._entries.append(IndexEntry(node_id, label, normalized, is_class))

    def __len__(self) -> int:
        return len(self._entries)

    def _labelled(self, normalized: str) -> list[IndexEntry]:
        keys = self._label_keys
        i = bisect_left(keys, normalized)
        if i == len(keys) or keys[i] != normalized:
            return []
        return list(map(self._entries.__getitem__, self._labels.run(i)))

    def exact(self, phrase: str) -> list[IndexEntry]:
        """Entries whose normalized label equals the normalized phrase.

        Tries the phrase as-is and with its head word singularised
        ("movies" → "movie")."""
        normalized = normalize_label(phrase)
        found = self._labelled(normalized)
        words = normalized.split()
        if words:
            singular = " ".join(words[:-1] + [lemmatize_noun(words[-1])])
            if singular != normalized:
                found.extend(self._labelled(singular))
        return found

    def by_words(self, phrase: str) -> list[IndexEntry]:
        """Entries sharing at least one word with the phrase, in position
        order: the union of the words' runs."""
        table, found = self._words, self._found
        runs = []
        for word in lookup_words(phrase):
            i = found.get(word)
            if i is None:
                if len(found) >= _FOUND_LIMIT:
                    found.clear()
                i = found[word] = table.find(word)
            if i >= 0:
                runs.append(table.run(i))
        return list(map(self._entries.__getitem__, _union(runs)))

    def words_of(self, node_id: int) -> list[str]:
        """The posting keys the node's entries are filed under (read-only;
        empty for a node the index does not know).

        The inverse of the word table, built by one pass over its runs on
        the first call — a writer's question ("whose link lists can a
        change to this node reach?"), so a process that never writes
        never builds it.  Callers serialise the first call (the serving
        engine asks under its ingest lock).
        """
        words_of = self._words_of
        if words_of is None:
            words_of = {}
            entries = self._entries
            for word, run in self._words.items():
                for position in run:
                    words_of.setdefault(entries[position].node_id, []).append(word)
            self._words_of = words_of
        return words_of.get(node_id, [])
