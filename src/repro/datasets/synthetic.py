"""Synthetic knowledge-graph generator for scaling experiments.

The offline benchmarks (Tables 5 and 7) and the complexity-scaling bench
(Table 12) need graphs larger than the curated mini-DBpedia.  This
generator produces a DBpedia-*shaped* graph: entities with types and
labels, a Zipf-skewed predicate distribution, and a configurable density —
everything deterministic under an explicit seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

from repro.rdf import (
    IRI,
    KnowledgeGraph,
    Literal,
    RDF_TYPE,
    RDFS_LABEL,
    Triple,
    TripleStore,
)


@dataclass(frozen=True, slots=True)
class SyntheticConfig:
    """Shape parameters of a synthetic KG."""

    entities: int = 1000
    predicates: int = 20
    classes: int = 10
    triples_per_entity: float = 4.0
    zipf_exponent: float = 1.1   # predicate popularity skew
    seed: int = 42

    def __post_init__(self) -> None:
        if self.entities < 1 or self.predicates < 1 or self.classes < 1:
            raise ValueError("entities, predicates, and classes must be positive")
        if self.triples_per_entity <= 0:
            raise ValueError("triples_per_entity must be positive")

    @classmethod
    def with_total_triples(cls, total: int, **overrides) -> "SyntheticConfig":
        """A config sized so the graph holds roughly ``total`` triples.

        Every entity contributes two structural triples (type + label)
        plus ``triples_per_entity`` relation triples on average, so the
        entity count solves ``total = entities * (tpe + 2)``.  The 10^6
        point of the scaling benchmarks is expressed this way instead of
        hand-picking entity counts per density.
        """
        if total < 1:
            raise ValueError("total must be positive")
        default_tpe = cls.__dataclass_fields__["triples_per_entity"].default
        tpe = float(overrides.pop("triples_per_entity", default_tpe))
        entities = max(1, round(total / (tpe + 2.0)))
        return cls(entities=entities, triples_per_entity=tpe, **overrides)


def _zipf_weights(count: int, exponent: float) -> list[float]:
    return [1.0 / (rank ** exponent) for rank in range(1, count + 1)]


def build_synthetic_kg(config: SyntheticConfig = SyntheticConfig()) -> KnowledgeGraph:
    """Build a synthetic KG; same config → identical graph."""
    rng = random.Random(config.seed)
    classes = [IRI(f"syn:Class{i}") for i in range(config.classes)]
    predicates = [IRI(f"syn:pred{i}") for i in range(config.predicates)]
    entities = [IRI(f"syn:entity{i}") for i in range(config.entities)]
    weights = _zipf_weights(config.predicates, config.zipf_exponent)

    def triples() -> Iterator[Triple]:
        for index, entity in enumerate(entities):
            yield Triple(entity, RDF_TYPE, classes[index % config.classes])
            yield Triple(entity, RDFS_LABEL, Literal(f"entity {index}"))
        for _ in range(int(config.entities * config.triples_per_entity)):
            subject = rng.choice(entities)
            predicate = rng.choices(predicates, weights=weights, k=1)[0]
            yield Triple(subject, predicate, rng.choice(entities))

    return KnowledgeGraph(TripleStore.build(triples()))


def entity_pool(kg: KnowledgeGraph) -> list[IRI]:
    """The synthetic graph's entity IRIs (for phrase-dataset scaling)."""
    return [
        kg.iri_of(node_id)
        for node_id in sorted(kg.entity_ids())
        if kg.iri_of(node_id).value.startswith("syn:entity")
    ]
