"""Offline-phase experiments: Tables 4–7 and the tf-idf ablation.

* Table 4 — dataset statistics of the knowledge graphs we mine against.
* Table 5 — relation-phrase dataset statistics at several scales.
* Table 6 / Exp 1 — sample dictionary entries and precision@k by path
  length, judged against the gold predicate map (our stand-in for the
  paper's human judges).
* Table 7 / Exp 2 — offline mining time for θ ∈ {2, 4} across dataset
  scales.
"""

from __future__ import annotations

import time
from functools import lru_cache

from repro.datasets import (
    SyntheticConfig,
    build_dbpedia_mini,
    build_phrase_dataset,
    build_noisy_phrase_dataset,
    build_synthetic_kg,
)
from repro.datasets.patty_sim import GOLD_PREDICATES, scale_phrase_dataset
from repro.datasets.synthetic import entity_pool
from repro.experiments import paper
from repro.experiments.common import ExperimentResult
from repro.paraphrase import ParaphraseMiner
from repro.paraphrase.path_mining import describe_path
from repro.paraphrase.miner import normalize_phrase
from repro.rdf.graph import step_predicate


def table4_graph_statistics() -> ExperimentResult:
    """Table 4: statistics of the RDF graphs."""
    result = ExperimentResult(
        "table4",
        "Table 4 — RDF graph statistics (paper: DBpedia with 5.2M entities, "
        "60M triples, 1643 predicates)",
        ["graph", "nodes", "triples", "predicates", "literals"],
    )
    for name, kg in (
        ("mini-DBpedia", build_dbpedia_mini()),
        ("mini-DBpedia +25 distractors", build_dbpedia_mini(distractors_per_entity=25)),
        ("synthetic-10k", build_synthetic_kg(SyntheticConfig(entities=2000, triples_per_entity=5))),
    ):
        stats = kg.store.statistics()
        result.rows.append(
            [name, stats["nodes"], stats["triples"], stats["predicates"], stats["literals"]]
        )
    return result


def table5_phrase_statistics() -> ExperimentResult:
    """Table 5: relation-phrase dataset statistics at two scales."""
    result = ExperimentResult(
        "table5",
        "Table 5 — relation phrase dataset statistics (paper: 350,568 / "
        "1,631,530 phrases, ~11 / ~9 pairs each)",
        ["dataset", "relation phrases", "entity pairs", "avg pairs/phrase"],
    )
    synth = build_synthetic_kg(SyntheticConfig(entities=500, triples_per_entity=4))
    pool = entity_pool(synth)
    datasets = (
        ("curated", build_phrase_dataset()),
        ("curated+noise", build_noisy_phrase_dataset()),
        ("scaled-small (wordnet-like)", scale_phrase_dataset(build_phrase_dataset(), 300, 8, pool)),
        ("scaled-large (freebase-like)", scale_phrase_dataset(build_phrase_dataset(), 1200, 6, pool)),
    )
    for name, dataset in datasets:
        stats = dataset.statistics()
        result.rows.append(
            [
                name,
                stats["relation_phrases"],
                stats["entity_pairs"],
                round(stats["avg_pairs_per_phrase"], 1),
            ]
        )
    result.notes.append(
        "the scaled datasets preserve Patty's shape: many phrases, "
        "single-digit average support"
    )
    return result


def _judge_path(kg, phrase: str, path: tuple[int, ...]) -> bool:
    """Gold judgement: every traversed predicate is in the phrase's set."""
    gold = GOLD_PREDICATES.get(phrase)
    if gold is None:
        return False
    names = {kg.iri_of(step_predicate(step)).local_name for step in path}
    return names <= gold


@lru_cache(maxsize=1)
def _noisy_dictionary():
    """The mini KG and the dictionary mined from the noisy phrase dataset."""
    kg = build_dbpedia_mini()
    miner = ParaphraseMiner(kg, max_path_length=4, top_k=3)
    return kg, miner.mine(build_noisy_phrase_dataset())


def precision_by_length() -> dict[int, tuple[float, int]]:
    """Exp 1's curve: (top-3 mapping precision, mappings judged) per path
    length — Table 6's notes print it and tier-1 asserts its shape."""
    kg, dictionary = _noisy_dictionary()
    judged: dict[int, list[bool]] = {}
    for phrase in GOLD_PREDICATES:
        for mapping in dictionary.lookup(normalize_phrase(phrase))[:3]:
            judged.setdefault(len(mapping.path), []).append(
                _judge_path(kg, phrase, mapping.path)
            )
    return {
        length: (sum(votes) / len(votes), len(votes))
        for length, votes in sorted(judged.items())
    }


def table6_dictionary_precision() -> ExperimentResult:
    """Table 6 + Exp 1: sample entries and precision@3 by path length."""
    kg, dictionary = _noisy_dictionary()
    result = ExperimentResult(
        "table6",
        "Table 6 / Exp 1 — paraphrase dictionary sample and precision "
        f"(paper: P@3 ≈ {paper.EXP1_P_AT_3_LENGTH1:.0%} at length 1, "
        "degrading with length)",
        ["relation phrase", "predicate / path", "confidence"],
    )
    for phrase in GOLD_PREDICATES:
        mappings = dictionary.lookup(normalize_phrase(phrase))
        if mappings and len(result.rows) < 6:  # a six-entry sample
            result.rows.append(
                [phrase, describe_path(kg, mappings[0].path), round(mappings[0].confidence, 2)]
            )
    for length, (precision, judged) in precision_by_length().items():
        result.notes.append(
            f"P@3 at path length {length}: {precision:.2f} over {judged} mappings"
        )
    return result


def table7_offline_time() -> ExperimentResult:
    """Table 7: offline mining wall-clock for θ ∈ {2, 4} at two scales."""
    result = ExperimentResult(
        "table7",
        "Table 7 — offline dictionary-mining time (paper: 17 min → 3.88 h "
        "and 119 min → 30.33 h going from θ=2 to θ=4)",
        ["dataset", "theta=2 (ms)", "theta=4 (ms)", "slowdown"],
    )
    synth = build_synthetic_kg(
        SyntheticConfig(entities=1000, triples_per_entity=4, predicates=30)
    )
    pool = entity_pool(synth)
    scales = (
        ("wordnet-like (small)", scale_phrase_dataset(build_phrase_dataset(), 100, 5, pool)),
        ("freebase-like (large)", scale_phrase_dataset(build_phrase_dataset(), 400, 5, pool)),
    )

    def mine_once(dataset, theta: int) -> float:
        synth.refresh()  # cold kernel caches: each pass times a full run
        miner = ParaphraseMiner(synth, max_path_length=theta, top_k=3)
        started = time.perf_counter()
        miner.mine(dataset)
        return time.perf_counter() - started

    for name, dataset in scales:
        # Fastest of three: interference only ever slows a pass.
        times = {
            theta: min(mine_once(dataset, theta) for _ in range(3))
            for theta in (2, 4)
        }
        result.rows.append(
            [
                name,
                round(times[2] * 1000, 1),
                round(times[4] * 1000, 1),
                f"{times[4] / max(times[2], 1e-9):.1f}x",
            ]
        )
    result.notes.append(
        "mining runs against the synthetic KG; the shape to check is the "
        "steep growth from θ=2 to θ=4 and with dataset size"
    )
    return result


def tfidf_ablation() -> ExperimentResult:
    """Ablation: tf-idf vs raw-frequency path scoring.

    Reproduces Section 3's noise discussion directly: a graph where every
    person shares a (livesIn, livesIn⁻¹)-style connection — the analogue
    of the paper's ubiquitous (hasGender, hasGender) path.  With tf-idf
    the noise path's idf (hence score) is zero and it vanishes; with raw
    frequency it ties the true relation path.
    """
    from repro.rdf import IRI, KnowledgeGraph, Triple, TripleStore
    from repro.rdf.graph import backward_step, forward_step
    from repro.paraphrase import RelationPhraseDataset

    store = TripleStore()
    e = lambda name: IRI(f"noise:{name}")
    families = 4
    triples = []
    for family in range(families):
        grandpa, ted, bob, junior, wife = (
            f"grandpa{family}", f"ted{family}", f"bob{family}",
            f"junior{family}", f"wife{family}",
        )
        triples += [
            (grandpa, "hasChild", ted), (grandpa, "hasChild", bob),
            (bob, "hasChild", junior), (ted, "spouse", wife),
        ]
        for person in (ted, junior, wife):
            triples.append((person, "livesIn", "usa"))
    for s, p, o in triples:
        store.add(Triple(e(s), e(p), e(o)))
    kg = KnowledgeGraph(store)

    dataset = RelationPhraseDataset()
    dataset.add("uncle of", [(e(f"ted{i}"), e(f"junior{i}")) for i in range(families)])
    dataset.add("is married to", [(e(f"ted{i}"), e(f"wife{i}")) for i in range(families)])

    lives_in = kg.id_of(e("livesIn"))
    noise_path = (forward_step(lives_in), backward_step(lives_in))
    child = kg.id_of(e("hasChild"))
    uncle_path = (backward_step(child), forward_step(child), forward_step(child))

    result = ExperimentResult(
        "ablation_tfidf",
        "Ablation — tf-idf vs raw tf path scoring (the paper's "
        "(hasGender, hasGender) noise scenario)",
        ["scoring", "noise path confidence", "uncle path confidence",
         "noise survives top-3"],
    )
    # The paper's row is the miner as shipped, the ablated row switches
    # tf-idf off: a changed default shows as two equal rows.
    for label, scoring in (("tf-idf (paper)", {}), ("raw tf", {"use_tfidf": False})):
        dictionary = ParaphraseMiner(
            kg, max_path_length=3, top_k=3, length_discount=1.0, **scoring
        ).mine(dataset)
        mappings = dictionary.lookup(normalize_phrase("uncle of"))
        by_path = {m.path: m.confidence for m in mappings}
        result.rows.append(
            [
                label,
                round(by_path.get(noise_path, 0.0), 3),
                round(by_path.get(uncle_path, 0.0), 3),
                "yes" if noise_path in by_path else "no",
            ]
        )
    result.notes.append(
        "shape to check: tf-idf drops the ubiquitous noise path entirely; "
        "raw frequency keeps it tied with the true 3-hop uncle path"
    )
    return result
