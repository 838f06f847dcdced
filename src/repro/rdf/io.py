"""File-level load/save for triple stores.

Convenience wrappers over the N-Triples parser/serializer so a store
round-trips through a single text file — how a dump enters the system
(``bench/``'s offline build starts from :func:`load_store`) before
:func:`repro.rdf.snapshot.compile_snapshot` turns it into the deploy
artefact.  A loaded store is frozen: the dump goes from bytes to sorted
columns in one pass, with no mutable index in between.
"""

from __future__ import annotations

from pathlib import Path

from repro.rdf.dictionary import TermDictionary
from repro.rdf.ntriples import _id_triples, serialize_ntriples, serialize_triple
from repro.rdf.store import TripleStore


def load_store(path: str | Path) -> TripleStore:
    """Load a frozen, sorted-column triple store from an N-Triples file.

    Each line's tokens go straight to term ids and the distinct id triples
    straight into :meth:`~repro.rdf.store.TripleStore.frozen`.  Term ids,
    literal ids and ``version`` (one per distinct triple) are those of a
    store filled by ``add_all(parse_ntriples(...))`` and then compacted.
    To write to the result, take ``.overlay()``.
    """
    dictionary = TermDictionary()
    literal_flags = bytearray()
    # newline="\n": only LF ends a line (a raw U+2028 in a literal is data).
    with open(path, encoding="utf-8", newline="\n") as lines:
        return TripleStore.frozen(
            _id_triples(lines, dictionary.encode, literal_flags), dictionary, literal_flags
        )


def save_store(store: TripleStore, path: str | Path) -> int:
    """Write a store to an N-Triples file; returns the triple count.

    Triples are sorted by their serialized line, so equal stores write
    equal files whatever order their triples went in.
    """
    triples = sorted(store.triples(), key=serialize_triple)
    Path(path).write_text(serialize_ntriples(triples), encoding="utf-8")
    return len(triples)
