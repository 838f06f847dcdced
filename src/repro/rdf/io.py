"""File-level load/save for triple stores.

Convenience wrappers over the N-Triples parser/serializer so a store
round-trips through a single text file — how a dump enters the system
(``bench/``'s offline build starts from :func:`load_store`) before
:func:`repro.rdf.snapshot.compile_snapshot` turns it into the deploy
artefact.
"""

from __future__ import annotations

from pathlib import Path

from repro.rdf.ntriples import parse_ntriples, serialize_ntriples
from repro.rdf.store import TripleStore


def load_store(path: str | Path) -> TripleStore:
    """Load a (mutable, dict-backed) triple store from an N-Triples file.

    For a read-only workload such as serving, re-encode the result onto
    the sorted-column backend with ``.compacted()`` (see
    :mod:`repro.rdf.backend`) — frozen, much smaller, faster to scan.
    """
    store = TripleStore()
    # newline="\n": only LF ends a line (a raw U+2028 in a literal is data).
    with open(path, encoding="utf-8", newline="\n") as lines:
        store.add_all(parse_ntriples(lines))
    return store


def save_store(store: TripleStore, path: str | Path) -> int:
    """Write a store to an N-Triples file; returns the triple count.

    Triples are sorted for deterministic, diff-friendly output.
    """
    triples = sorted(
        store.triples(),
        key=lambda t: (t.subject.value, t.predicate.value, str(t.object)),
    )
    Path(path).write_text(serialize_ntriples(triples), encoding="utf-8")
    return len(triples)
