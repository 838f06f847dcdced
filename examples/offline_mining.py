#!/usr/bin/env python
"""Scenario: the offline phase — mining and maintaining the dictionary.

Demonstrates Algorithm 1 in isolation: multi-hop path discovery (the
"uncle of" pattern of Figure 4), tf-idf noise suppression (the
(hasGender, hasGender) discussion), serialization, and maintenance when
predicates are added (mine again) or removed (drop their mappings).

Run:  python examples/offline_mining.py
"""

import tempfile
from pathlib import Path

from repro.paraphrase import (
    ParaphraseMiner,
    RelationPhraseDataset,
    normalize_phrase,
)
from repro.paraphrase.path_mining import describe_path
from repro.rdf import IRI, KnowledgeGraph, Triple, TripleStore
from repro.rdf.snapshot import compile_snapshot, load_snapshot


def build_family_graph() -> KnowledgeGraph:
    """Figure 4's situation: uncles, spouses, and ubiquitous noise."""
    store = TripleStore()
    e = lambda name: IRI(f"ex:{name}")
    for family in ("kennedy", "corr"):
        store.add_all(
            [
                Triple(e(f"{family}_grandpa"), e("hasChild"), e(f"{family}_uncle")),
                Triple(e(f"{family}_grandpa"), e("hasChild"), e(f"{family}_parent")),
                Triple(e(f"{family}_parent"), e("hasChild"), e(f"{family}_nephew")),
                Triple(e(f"{family}_uncle"), e("spouse"), e(f"{family}_aunt")),
                # Noise: everyone shares a residence, connecting every pair.
                Triple(e(f"{family}_uncle"), e("livesIn"), e("usa")),
                Triple(e(f"{family}_nephew"), e("livesIn"), e("usa")),
                Triple(e(f"{family}_aunt"), e("livesIn"), e("usa")),
            ]
        )
    return KnowledgeGraph(store)


def main() -> None:
    kg = build_family_graph()
    e = lambda name: IRI(f"ex:{name}")

    dataset = RelationPhraseDataset()
    dataset.add("uncle of", [
        (e("kennedy_uncle"), e("kennedy_nephew")),
        (e("corr_uncle"), e("corr_nephew")),
    ])
    dataset.add("is married to", [
        (e("kennedy_uncle"), e("kennedy_aunt")),
        (e("corr_uncle"), e("corr_aunt")),
    ])

    print("Mining with tf-idf scoring (Algorithm 1, Definition 4):")
    miner = ParaphraseMiner(kg, max_path_length=3, top_k=3)
    dictionary = miner.mine(dataset)
    for phrase in ("uncle of", "is married to"):
        print(f"  {phrase!r}:")
        for mapping in dictionary.lookup(normalize_phrase(phrase)):
            print(f"    {describe_path(kg, mapping.path)}  "
                  f"confidence {mapping.confidence:.2f}")
    print("  → the 3-hop hasChild⁻¹·hasChild·hasChild path wins for "
          "'uncle of'; the (livesIn, livesIn⁻¹) noise is idf-suppressed.\n")

    print("Raw-frequency ablation (noise survives):")
    raw = ParaphraseMiner(kg, max_path_length=3, top_k=3, use_tfidf=False,
                          length_discount=1.0).mine(dataset)
    for mapping in raw.lookup(normalize_phrase("uncle of")):
        print(f"    {describe_path(kg, mapping.path)}  "
              f"confidence {mapping.confidence:.2f}")
    print()

    print("Serialization round-trip (a compiled snapshot):")
    with tempfile.TemporaryDirectory() as workdir:
        path = Path(workdir) / "family.snap"
        info = compile_snapshot(path, kg, dictionary)
        restored = load_snapshot(path).dictionary
        print(f"  {info.total_bytes} bytes of snapshot; restored "
              f"{len(restored)} phrases intact\n")

    print("Maintenance (Section 3): a direct uncleOf predicate appears ...")
    kg.store.add(Triple(e("kennedy_uncle"), e("uncleOf"), e("kennedy_nephew")))
    kg.store.add(Triple(e("corr_uncle"), e("uncleOf"), e("corr_nephew")))
    kg.refresh()
    # idf is taken over every phrase, so the whole dataset is mined again.
    dictionary = miner.mine(dataset)
    print(f"  re-mined {len(dictionary)} phrase(s); new top mapping:")
    top = dictionary.lookup(normalize_phrase("uncle of"))[0]
    print(f"    {describe_path(kg, top.path)}  confidence {top.confidence:.2f}")

    print("\n... and removing it again prunes the mappings:")
    uncle_id = kg.id_of(e("uncleOf"))
    removed = dictionary.remove_predicate(uncle_id)
    print(f"  {removed} mapping(s) dropped; top is back to:")
    top = dictionary.lookup(normalize_phrase("uncle of"))[0]
    print(f"    {describe_path(kg, top.path)}  confidence {top.confidence:.2f}")


if __name__ == "__main__":
    main()
