"""RDF substrate: terms, dictionary encoding, triple store, graph view, I/O.

This package is a from-scratch, laptop-scale RDF store.  It plays the role
DBpedia's backing store plays in the paper: everything above it (entity
linking, paraphrase mining, subgraph matching) talks to the knowledge base
only through these APIs.

Quick tour::

    from repro.rdf import IRI, Literal, Triple, TripleStore

    store = TripleStore.build([
        Triple(IRI("ex:Antonio_Banderas"), IRI("ex:starring"),
               IRI("ex:Philadelphia_(film)")),
    ])
    list(store.triples(predicate=IRI("ex:starring")))
    live = store.overlay()  # a built store is frozen; write through an overlay
    live.add(Triple(IRI("ex:Tom_Hanks"), IRI("ex:starring"),
                    IRI("ex:Philadelphia_(film)")))

The benchmark's ``"dict"`` store composition (``bench/``) is the name it
still gives the builder's output, which is now this frozen compact store.
"""

from repro.rdf.terms import IRI, Literal, Term, Triple
from repro.rdf.vocab import (
    RDF_TYPE,
    RDFS_LABEL,
    RDFS_SUBCLASSOF,
    XSD_BOOLEAN,
    XSD_DATE,
    XSD_DECIMAL,
    XSD_INTEGER,
    XSD_STRING,
)
from repro.rdf.backend import CompactBackend, StoreBackend
from repro.rdf.dictionary import TermDictionary
from repro.rdf.overlay import OverlayBackend
from repro.rdf.shard import ShardedBackend
from repro.rdf.store import TripleStore
from repro.rdf.graph import KnowledgeGraph
from repro.rdf.ntriples import (
    parse_ntriples,
    parse_ntriples_line,
    serialize_ntriples,
    serialize_term,
)

__all__ = [
    "IRI",
    "Literal",
    "Term",
    "Triple",
    "RDF_TYPE",
    "RDFS_LABEL",
    "RDFS_SUBCLASSOF",
    "XSD_BOOLEAN",
    "XSD_DATE",
    "XSD_DECIMAL",
    "XSD_INTEGER",
    "XSD_STRING",
    "TermDictionary",
    "TripleStore",
    "StoreBackend",
    "CompactBackend",
    "OverlayBackend",
    "ShardedBackend",
    "KnowledgeGraph",
    "parse_ntriples",
    "parse_ntriples_line",
    "serialize_ntriples",
    "serialize_term",
]
