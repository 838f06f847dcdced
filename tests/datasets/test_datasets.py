"""Tests for the dataset builders: KG, phrase dataset, questions, synthetic."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.datasets import (
    QALDQuestion,
    SyntheticConfig,
    build_dbpedia_mini,
    build_noisy_phrase_dataset,
    build_phrase_dataset,
    build_synthetic_kg,
    qald_questions,
)
from repro.datasets.dbpedia_mini import ont, res
from repro.datasets.patty_sim import scale_phrase_dataset
from repro.datasets.qald import questions_by_category
from repro.datasets.synthetic import entity_pool
from repro.rdf import IRI, RDF_TYPE, Triple
from repro.rdf.kernel import step_predicate


_LABEL_ENTRIES_DIGEST = """
import hashlib
from repro.datasets import build_dbpedia_mini, build_yago_mini
from repro.linking import LabelIndex
for build in (build_dbpedia_mini, build_yago_mini):
    entries = LabelIndex(build()).entries()
    rows = [(e.node_id, e.label, e.normalized, e.is_class) for e in entries]
    print(build.__name__, len(rows), hashlib.sha256(repr(rows).encode()).hexdigest())
"""


def test_label_index_entries_do_not_follow_the_hash_seed():
    # Which of two labels with one normalized key the index keeps ("Book" or
    # "book") depends on the order the builders emit them in; a set of
    # strings iterates in PYTHONHASHSEED order, so each process had its own.
    src = Path(__file__).resolve().parent.parent.parent / "src"
    printed = set()
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(src), env.get("PYTHONPATH")])
        )
        done = subprocess.run(
            [sys.executable, "-c", _LABEL_ENTRIES_DIGEST],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        printed.add(done.stdout)
    assert len(printed) == 1, printed
    assert "build_dbpedia_mini" in printed.pop()


class TestDBpediaMini:
    def test_deterministic(self):
        first = build_dbpedia_mini().store.statistics()
        second = build_dbpedia_mini().store.statistics()
        assert first == second

    def test_default_label_wins_its_normalized_key(self):
        from repro.linking import EntityLinker

        assert EntityLinker(build_dbpedia_mini()).link("books")[0].label == "Book"

    def test_running_example_present(self):
        kg = build_dbpedia_mini()
        assert Triple(
            res("Antonio_Banderas"), ont("spouse"), res("Melanie_Griffith")
        ) in kg.store

    def test_philadelphia_ambiguity(self):
        kg = build_dbpedia_mini()
        labels = {
            label
            for name in ("Philadelphia", "Philadelphia_(film)")
            for label in kg.all_labels(kg.id_of(res(name)))
        }
        assert labels == {"Philadelphia"}  # two nodes, one surface label

    def test_classes_detected(self):
        kg = build_dbpedia_mini()
        assert kg.id_of(res("Actor")) in kg.class_ids
        assert kg.id_of(res("Antonio_Banderas")) not in kg.class_ids

    def test_subclass_hierarchy(self):
        kg = build_dbpedia_mini()
        banderas = kg.id_of(res("Antonio_Banderas"))
        assert kg.has_type(banderas, kg.id_of(res("Person")))

    def test_mi6_trap_label(self):
        # The entity exists but is never labelled "MI6" (Table 10 trap).
        kg = build_dbpedia_mini()
        sis = kg.id_of(res("Secret_Intelligence_Service"))
        assert sis is not None
        assert all("mi6" not in label.lower() for label in kg.all_labels(sis))

    def test_distractor_padding(self):
        plain = build_dbpedia_mini()
        padded = build_dbpedia_mini(distractors_per_entity=3)
        assert len(padded.store) > len(plain.store)
        clone = padded.id_of(IRI("res:Berlin__clone0"))
        assert clone is not None
        assert padded.all_labels(clone) == ["Berlin"]

    def test_distractors_have_no_domain_facts(self):
        padded = build_dbpedia_mini(distractors_per_entity=2)
        clone = padded.id_of(IRI("res:Berlin__clone0"))
        predicates = {
            padded.iri_of(step_predicate(step)).local_name
            for step, _neighbor in padded.kernel.neighbors(clone)
        }
        assert predicates <= {"distractorNote"}


class TestPhraseDataset:
    def test_curated_pairs_exist_in_graph(self):
        kg = build_dbpedia_mini()
        dataset = build_phrase_dataset()
        located = 0
        total = 0
        for pairs in dataset.support.values():
            for left, right in pairs:
                total += 1
                left_ok = kg.id_of(left) is not None or (
                    not isinstance(left, IRI)
                    and kg.literal_ids_by_lexical(left.lexical)
                )
                right_ok = kg.id_of(right) is not None or (
                    not isinstance(right, IRI)
                    and kg.literal_ids_by_lexical(right.lexical)
                )
                if left_ok and right_ok:
                    located += 1
        assert located == total  # the curated dataset is fully aligned

    def test_withheld_phrases_absent(self):
        from repro.datasets.patty_sim import WITHHELD_PHRASES

        dataset = build_phrase_dataset()
        for phrase in WITHHELD_PHRASES:
            assert phrase not in dataset.support

    def test_noisy_dataset_located_fraction(self):
        """About a third of the noisy pairs miss the graph — the Patty
        statistic the paper reports (67 % located)."""
        from repro.paraphrase import ParaphraseMiner

        kg = build_dbpedia_mini()
        noisy = build_noisy_phrase_dataset()
        assert len(noisy) == len(build_phrase_dataset()) + 50  # the filler phrases
        miner = ParaphraseMiner(kg, max_path_length=2)
        miner.mine(noisy)
        assert 0.4 < miner.last_report.located_fraction < 0.9

    def test_noisy_dataset_deterministic(self):
        first = build_noisy_phrase_dataset()
        second = build_noisy_phrase_dataset()
        assert first.support == second.support

    def test_statistics_shape(self):
        stats = build_phrase_dataset().statistics()
        assert stats["relation_phrases"] > 30
        assert stats["avg_pairs_per_phrase"] >= 1.0

    def test_scaling(self):
        kg = build_synthetic_kg(SyntheticConfig(entities=50, seed=1))
        pool = entity_pool(kg)
        scaled = scale_phrase_dataset(build_phrase_dataset(), 100, 5, pool)
        assert len(scaled) == len(build_phrase_dataset()) + 100


class TestQALD:
    def test_99_questions(self):
        assert len(qald_questions()) == 99

    def test_ids_unique_and_sorted(self):
        questions = qald_questions()
        ids = [q.qid for q in questions]
        assert ids == sorted(ids)
        assert len(set(ids)) == 99

    def test_table11_questions_present(self):
        by_id = {q.qid: q for q in qald_questions()}
        for qid in (2, 3, 14, 17, 19, 20, 21, 22, 24, 27, 28, 30, 35, 39, 41,
                    42, 44, 45, 54, 58, 63, 70, 74, 76, 77, 81, 83, 84, 86,
                    89, 98, 100):
            assert by_id[qid].category == "right"

    def test_right_count_is_32(self):
        grouped = questions_by_category()
        assert len(grouped["right"]) == 32

    def test_category_proportions_match_table10(self):
        # Aggregation is the largest failure class, then linking, then
        # relation extraction — the paper's Table 10 ordering.
        grouped = questions_by_category()
        assert (
            len(grouped["aggregation"])
            > len(grouped["entity_linking"])
            > len(grouped["relation_extraction"])
            > len(grouped["other"])
        )

    def test_boolean_questions_marked(self):
        booleans = [q for q in qald_questions() if q.is_boolean]
        assert booleans
        for question in booleans:
            assert question.gold == frozenset()

    def test_non_boolean_have_gold(self):
        for question in qald_questions():
            if not question.is_boolean:
                assert question.gold


class TestSynthetic:
    def test_deterministic_under_seed(self):
        a = build_synthetic_kg(SyntheticConfig(entities=100, seed=5))
        b = build_synthetic_kg(SyntheticConfig(entities=100, seed=5))
        assert a.store.statistics() == b.store.statistics()
        assert set(a.store.triples()) == set(b.store.triples())

    def test_different_seed_different_graph(self):
        a = build_synthetic_kg(SyntheticConfig(entities=100, seed=5))
        b = build_synthetic_kg(SyntheticConfig(entities=100, seed=6))
        assert set(a.store.triples()) != set(b.store.triples())

    def test_every_entity_typed_and_labelled(self):
        kg = build_synthetic_kg(SyntheticConfig(entities=30))
        for node in entity_pool(kg):
            node_id = kg.id_of(node)
            assert kg.types_of(node_id)
            assert kg.all_labels(node_id)

    def test_scale_parameters(self):
        small = build_synthetic_kg(SyntheticConfig(entities=50, triples_per_entity=2))
        large = build_synthetic_kg(SyntheticConfig(entities=500, triples_per_entity=2))
        assert len(large.store) > len(small.store)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            SyntheticConfig(entities=0)
        with pytest.raises(ValueError):
            SyntheticConfig(triples_per_entity=0)
