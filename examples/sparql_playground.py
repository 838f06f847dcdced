#!/usr/bin/env python
"""Scenario: the SPARQL engine on its own.

The QA pipeline sits on a real SPARQL subset engine; this demo exercises
it directly over the mini-DBpedia KB — basic graph patterns, FILTER,
ORDER BY/LIMIT (the paper's aggregation workaround shape), UNION,
OPTIONAL and SPARQL 1.1 property paths.

Run:  python examples/sparql_playground.py
"""

from repro.datasets import build_dbpedia_mini
from repro.sparql import evaluate, parse_query

QUERIES = [
    ("Basic graph pattern (join)",
     "SELECT ?who WHERE { ?a <ont:spouse> ?who . "
     "?a <ont:starring> <res:Philadelphia_(film)> }"),
    ("FILTER on a numeric literal",
     "SELECT ?p ?h WHERE { ?p <ont:height> ?h . FILTER(?h > 1.75) }"),
    ("The paper's aggregation shape: ORDER BY DESC + LIMIT 1",
     "SELECT ?c WHERE { ?c <ont:populationTotal> ?n } ORDER BY DESC(?n) LIMIT 1"),
    ("UNION of predicates",
     "SELECT ?p WHERE { { ?p <ont:starring> <res:Philadelphia_(film)> } "
     "UNION { ?p <ont:director> <res:Philadelphia_(film)> } }"),
    ("OPTIONAL left join",
     "SELECT ?actor ?spouse WHERE { ?actor <ont:starring> <res:Philadelphia_(film)> . "
     "OPTIONAL { ?actor <ont:spouse> ?spouse } }"),
    ("Property path: 2-hop sequence (player → league)",
     "SELECT ?p WHERE { ?p <ont:team>/<ont:league> <res:Premier_League> }"),
    ("Property path: alternative",
     "SELECT ?x WHERE { <res:Margaret_Thatcher> <ont:child>|<ont:spouse> ?x }"),
    ("Property path: inverse",
     "SELECT ?film WHERE { ?film ^<ont:starring> <res:Tom_Cruise> }"),
    ("ASK",
     "ASK { <res:Michelle_Obama> ^<ont:spouse> <res:Barack_Obama> }"),
    ("COUNT",
     "SELECT COUNT(?m) WHERE { ?m <ont:country> <res:Argentina> }"),
]


def render(result) -> str:
    if isinstance(result, bool):
        return "yes" if result else "no"
    if isinstance(result, int):
        return str(result)
    rows = []
    for row in result:
        rows.append(", ".join(
            f"{var}={term}" for var, term in sorted(row.items(), key=lambda kv: kv[0].name)
        ))
    return "\n    ".join(rows) if rows else "(empty)"


def main() -> None:
    kg = build_dbpedia_mini()
    for title, query_text in QUERIES:
        print(f"-- {title}")
        print(f"   {query_text}")
        query = parse_query(query_text)
        print(f"    {render(evaluate(kg.store, query))}")
        print()


if __name__ == "__main__":
    main()
