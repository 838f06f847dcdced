"""Seeded input generators: the program only ever receives what these make.

``--seed`` drives the question order, the Zipf draws, the update stream and
the synthetic KG / phrase dataset.  Every generator takes the seed (plus a
purpose string, so streams are independent) and is deterministic; the run
records a digest of each in ``inputs.json`` next to a host stamp.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import platform
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
RDFS_LABEL = "http://www.w3.org/2000/01/rdf-schema#label"

#: Relation phrases the question parser understands; each is planted on one
#: of the most frequent synthetic predicates so questions using it have a
#: known answer.  The remaining phrases of the dataset are filler the miner
#: must still process ("synthetic relation 17") but nobody asks about.
ASKABLE_VERBS = ("directed", "founded", "developed", "produced")


def rng_for(seed: int, purpose: str) -> random.Random:
    """An independent deterministic stream per (seed, purpose)."""
    return random.Random(f"{seed}/{purpose}")


def digest(value) -> str:
    """sha256 of a JSON-serializable value (canonical key order)."""
    return hashlib.sha256(
        json.dumps(value, sort_keys=True, default=str).encode("utf-8")
    ).hexdigest()


def file_digest(path: Path) -> str:
    sha = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            sha.update(block)
    return sha.hexdigest()


def host_stamp() -> dict:
    """What the numbers were measured on (recorded, never interpreted)."""
    return {
        "host_cpus": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "loadavg_at_start": list(os.getloadavg()),
    }


# --------------------------------------------------------------------- #
# Question streams
# --------------------------------------------------------------------- #

def shuffled_passes(questions: list[str], seed: int, client: int) -> Iterator[str]:
    """Every question once per pass, reshuffled each pass, forever."""
    rng = rng_for(seed, f"passes/{client}")
    while True:
        order = list(questions)
        rng.shuffle(order)
        yield from order


def zipf_stream(
    questions: list[str], seed: int, client: int, exponent: float = 1.1
) -> Iterator[str]:
    """Questions drawn Zipf(``exponent``) over a seed-shuffled ranking.

    The ranking depends on the seed only (both clients agree on which
    question is popular); the draws are per client.
    """
    ranking = list(questions)
    rng_for(seed, "zipf/ranking").shuffle(ranking)
    cumulative = list(
        itertools.accumulate(1.0 / rank ** exponent for rank in range(1, len(ranking) + 1))
    )
    rng = rng_for(seed, f"zipf/{client}")
    while True:
        yield rng.choices(ranking, cum_weights=cumulative, k=1)[0]


def uniform_stream(questions: list[str], seed: int, client: int) -> Iterator[str]:
    rng = rng_for(seed, f"uniform/{client}")
    while True:
        yield rng.choice(questions)


# --------------------------------------------------------------------- #
# Update stream (http_ingest_mixed)
# --------------------------------------------------------------------- #

def update_batches(seed: int, client: int, batch_size: int = 10) -> Iterator[list[list[str]]]:
    """Wire-format add batches in a private ``bench:`` namespace.

    Every triple is distinct (subjects are numbered), so each batch adds
    exactly ``batch_size`` triples and a later removal of the same batch
    removes exactly those.
    """
    rng = rng_for(seed, f"updates/{client}")
    prefix = f"bench:s{seed}/c{client}"
    for number in itertools.count():
        yield [
            [
                f"{prefix}/e{number * batch_size + slot}",
                f"bench:p{rng.randrange(7)}",
                f"{prefix}/e{rng.randrange(max(1, number * batch_size + slot + 1))}",
            ]
            for slot in range(batch_size)
        ]


# --------------------------------------------------------------------- #
# Synthetic KG + phrase dataset (offline_build_200k)
# --------------------------------------------------------------------- #

@dataclass(slots=True)
class SyntheticInputs:
    """A DBpedia-shaped random graph as the generator knows it."""

    entities: int
    #: Relation triples ``(subject, predicate, object)`` as entity/predicate numbers.
    relations: list[tuple[int, int, int]]
    #: phrase → supporting ``(subject, object)`` entity-number pairs.
    phrases: dict[str, list[tuple[int, int]]]
    #: phrase → the predicate number it was planted on (askable verbs only).
    planted: dict[str, int]

    @property
    def triples(self) -> int:
        return 2 * self.entities + len(self.relations)

    def ntriples_lines(self, seed: int) -> list[str]:
        lines = []
        for index in range(self.entities):
            lines.append(f"<syn:entity{index}> <{RDF_TYPE}> <syn:Class{index % 10}> .")
            lines.append(f'<syn:entity{index}> <{RDFS_LABEL}> "entity {index}" .')
        lines.extend(
            f"<syn:entity{s}> <syn:pred{p}> <syn:entity{o}> ." for s, p, o in self.relations
        )
        # A dump is not sorted by subject; the loader must not rely on it.
        rng_for(seed, "synthetic/line-order").shuffle(lines)
        return lines

    def neighbours(self, predicate: int) -> dict[int, set[int]]:
        """entity → entities one ``predicate`` edge away, either direction
        (the matcher treats a relation phrase's path as undirected)."""
        linked: dict[int, set[int]] = {}
        for s, p, o in self.relations:
            if p == predicate:
                linked.setdefault(s, set()).add(o)
                linked.setdefault(o, set()).add(s)
        return linked


def synthetic_inputs(
    seed: int,
    triples: int,
    phrases: int = 400,
    pairs_per_phrase: int = 10,
    predicates: int = 40,
    relations_per_entity: int = 4,
    exponent: float = 1.1,
) -> SyntheticInputs:
    """About ``triples`` triples: type + label per entity, Zipf-skewed
    predicates on uniformly random entity pairs; and a phrase dataset whose
    support pairs are real edges of one predicate each."""
    rng = rng_for(seed, "synthetic/kg")
    entities = max(predicates, triples // (relations_per_entity + 2))
    cumulative = list(
        itertools.accumulate(1.0 / rank ** exponent for rank in range(1, predicates + 1))
    )
    wanted = entities * relations_per_entity
    relations: set[tuple[int, int, int]] = set()
    while len(relations) < wanted:
        predicate = rng.choices(range(predicates), cum_weights=cumulative, k=1)[0]
        relations.add((rng.randrange(entities), predicate, rng.randrange(entities)))
    ordered = sorted(relations)

    by_predicate: dict[int, list[tuple[int, int]]] = {}
    for s, p, o in ordered:
        by_predicate.setdefault(p, []).append((s, o))
    rng = rng_for(seed, "synthetic/phrases")
    dataset: dict[str, list[tuple[int, int]]] = {}
    planted: dict[str, int] = {}
    for index in range(phrases):
        predicate = index % predicates
        if index < len(ASKABLE_VERBS):
            name = ASKABLE_VERBS[index]
            planted[name] = predicate
        else:
            name = f"synthetic relation {index}"
        edges = by_predicate.get(predicate, [])
        dataset[name] = rng.sample(edges, min(pairs_per_phrase, len(edges)))
    return SyntheticInputs(entities, ordered, dataset, planted)


def synthetic_questions(
    inputs: SyntheticInputs, seed: int, count: int
) -> list[tuple[str, list[str]]]:
    """``count`` distinct ``(question, expected sorted answers)`` pairs.

    "Who directed entity 17?" is answered by every entity one planted
    edge away from entity 17; only entities that have such an edge are
    asked about, so every question has a non-empty known answer.
    """
    rng = rng_for(seed, "synthetic/questions")
    pool: list[tuple[str, list[str]]] = []
    for verb, predicate in sorted(inputs.planted.items()):
        for entity, linked in sorted(inputs.neighbours(predicate).items()):
            pool.append(
                (
                    f"Who {verb} entity {entity}?",
                    sorted(f"syn:entity{other}" for other in linked),
                )
            )
    return rng.sample(pool, min(count, len(pool)))
