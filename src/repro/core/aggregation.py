"""Extension: superlative aggregation post-processing.

The paper cannot answer aggregation questions ("Who is the youngest player
in the Premier League?") — they need ``ORDER BY DESC(?x) LIMIT 1`` style
post-processing and account for 35 % of its failures (Table 10).  This
module is the opt-in extension (``GAnswer(enable_aggregation=True)``) that
the paper leaves as future work: after the base subgraph matching returns
candidate answers, the superlative's attribute ranks them and the extreme
one wins.

The attribute lexicon maps a superlative adjective to (predicate local
names to try, direction).  Direction "max" keeps the largest value.
Birth dates invert the intuition: *youngest* = latest birth date.
"""

from __future__ import annotations

from repro.nlp.tagger import tag
from repro.rdf.graph import KnowledgeGraph, step_is_forward, step_predicate
from repro.rdf.terms import IRI, Literal, Term

#: superlative → (candidate predicate local names, "max" | "min")
SUPERLATIVE_ATTRIBUTES: dict[str, tuple[tuple[str, ...], str]] = {
    "youngest": (("birthDate", "dateOfBirth"), "max"),
    "oldest": (("birthDate", "dateOfBirth"), "min"),
    "largest": (("populationTotal", "area", "size"), "max"),
    "biggest": (("populationTotal", "area", "size"), "max"),
    "smallest": (("populationTotal", "area", "size"), "min"),
    "highest": (("elevation", "height"), "max"),
    "tallest": (("height", "elevation"), "max"),
    "longest": (("length",), "max"),
    "shortest": (("length",), "min"),
}


def _attribute_value(kg: KnowledgeGraph, term: Term, predicates: tuple[str, ...]):
    """The first available attribute value of an entity, as a sortable key."""
    if not isinstance(term, IRI):
        return None
    node_id = kg.id_of(term)
    if node_id is None:
        return None
    for local_name in predicates:
        for step, neighbor in kg.kernel.neighbors(node_id):
            if (
                step_is_forward(step)
                and kg.iri_of(step_predicate(step)).local_name == local_name
            ):
                value = kg.term_of(neighbor)
                if isinstance(value, Literal):
                    try:
                        return float(value.lexical)
                    except ValueError:
                        return value.lexical  # dates compare lexically (ISO)
    return None


def apply_superlative(kg: KnowledgeGraph, question: str, result) -> None:
    """Reduce ``result.answers`` to the superlative's extreme element.

    No-op when no known superlative occurs or no answer has the attribute;
    in that case the failure stays classified as aggregation-unsupported.
    """
    tokens = tag(question)
    spec = next(
        (
            SUPERLATIVE_ATTRIBUTES[token.lower]
            for token in tokens
            if token.lower in SUPERLATIVE_ATTRIBUTES
        ),
        None,
    )
    if spec is None or not result.answers:
        return
    predicates, direction = spec
    valued = [
        (value, answer)
        for answer in result.answers
        if (value := _attribute_value(kg, answer, predicates)) is not None
    ]
    if not valued:
        return
    # Mixed float/str keys cannot compare; keep the majority type.
    floats = [(v, a) for v, a in valued if isinstance(v, float)]
    strings = [(v, a) for v, a in valued if isinstance(v, str)]
    pool = floats if len(floats) >= len(strings) else strings
    best = max(pool, key=lambda pair: pair[0]) if direction == "max" else min(
        pool, key=lambda pair: pair[0]
    )
    result.answers = [best[1]]
    result.failure = None
