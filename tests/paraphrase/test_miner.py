"""Tests for tf-idf scoring, Algorithm 1, and dictionary maintenance."""

import math

import pytest

from repro.paraphrase import (
    ParaphraseDictionary,
    ParaphraseMiner,
    PredicateMapping,
    RelationPhraseDataset,
    normalize_phrase,
)
from repro.paraphrase.tfidf import idf_value, tf_idf_value, tf_value
from repro.rdf import IRI, KnowledgeGraph, Triple, TripleStore
from repro.rdf.graph import backward_step, forward_step, step_predicate


def e(name):
    return IRI(f"ex:{name}")


@pytest.fixture
def family_kg():
    """Small family/gender graph reproducing the Figure 4 noise situation."""
    store = TripleStore()
    triples = [
        # Kennedy-style uncle structure, twice for support.
        ("grandpaA", "hasChild", "tedA"), ("grandpaA", "hasChild", "bobA"),
        ("bobA", "hasChild", "juniorA"),
        ("grandpaB", "hasChild", "tedB"), ("grandpaB", "hasChild", "bobB"),
        ("bobB", "hasChild", "juniorB"),
        # Spouse facts.
        ("tedA", "spouse", "wifeA"), ("tedB", "spouse", "wifeB"),
        # Noise in the style of the paper's (hasGender, hasGender⁻¹):
        # everyone lives in the same country, so (livesIn, livesIn⁻¹)
        # connects the entity pairs of *every* relation phrase.
        ("tedA", "livesIn", "usa"), ("juniorA", "livesIn", "usa"),
        ("tedB", "livesIn", "usa"), ("juniorB", "livesIn", "usa"),
        ("wifeA", "livesIn", "usa"), ("wifeB", "livesIn", "usa"),
    ]
    for s, p, o in triples:
        store.add(Triple(e(s), e(p), e(o)))
    return KnowledgeGraph(store)


@pytest.fixture
def uncle_dataset():
    dataset = RelationPhraseDataset()
    dataset.add("uncle of", [(e("tedA"), e("juniorA")), (e("tedB"), e("juniorB"))])
    dataset.add("is married to", [(e("tedA"), e("wifeA")), (e("tedB"), e("wifeB"))])
    return dataset


class TestNormalizePhrase:
    def test_be_forms_collapse(self):
        assert normalize_phrase("was married to") == normalize_phrase("be married to")

    def test_verb_inflections_collapse(self):
        assert normalize_phrase("plays in") == normalize_phrase("play in")

    def test_noun_words(self):
        assert normalize_phrase("children of") == ("child", "of")

    def test_result_is_tuple(self):
        assert normalize_phrase("uncle of") == ("uncle", "of")


class TestTfIdf:
    def test_tf_counts_supporting_pairs(self):
        path = (1,)
        sets = [{(1,), (2,)}, {(1,)}, {(3,)}]
        assert tf_value(path, sets) == 2

    def test_idf_penalizes_ubiquitous_paths(self):
        everywhere = {(9,)}
        corpus = {"a": {(9,), (1,)}, "b": {(9,), (2,)}, "c": {(9,)}}
        assert idf_value((9,), corpus) < idf_value((1,), corpus)

    def test_idf_formula(self):
        corpus = {"a": {(1,)}, "b": {(2,)}, "c": {(3,)}}
        assert idf_value((1,), corpus) == pytest.approx(math.log(3 / 2))

    def test_tf_idf_product(self):
        corpus = {"a": {(1,)}, "b": {(2,)}}
        sets = [{(1,)}, {(1,)}]
        assert tf_idf_value((1,), sets, corpus) == pytest.approx(
            2 * math.log(2 / 2)
        )


class TestMiner:
    def test_finds_uncle_path(self, family_kg, uncle_dataset):
        miner = ParaphraseMiner(family_kg, max_path_length=3, top_k=3)
        dictionary = miner.mine(uncle_dataset)
        mappings = dictionary.lookup(normalize_phrase("uncle of"))
        assert mappings
        child = family_kg.id_of(e("hasChild"))
        uncle_path = (
            backward_step(child), forward_step(child), forward_step(child)
        )
        assert mappings[0].path == uncle_path

    def test_tfidf_suppresses_shared_noise(self, family_kg, uncle_dataset):
        # The (livesIn, livesIn⁻¹) pattern occurs in the path sets of BOTH
        # phrases, so its idf — hence its tf-idf — is zero and it is dropped,
        # exactly the paper's (hasGender, hasGender) discussion.
        miner = ParaphraseMiner(family_kg, max_path_length=3, top_k=10)
        dictionary = miner.mine(uncle_dataset)
        lives_in = family_kg.id_of(e("livesIn"))
        noise_path = (forward_step(lives_in), backward_step(lives_in))
        paths = {m.path for m in dictionary.lookup(normalize_phrase("uncle of"))}
        assert noise_path not in paths

    def test_raw_tf_ablation_keeps_noise_competitive(self, family_kg, uncle_dataset):
        raw = ParaphraseMiner(family_kg, max_path_length=3, top_k=10, use_tfidf=False)
        dictionary = raw.mine(uncle_dataset)
        lives_in = family_kg.id_of(e("livesIn"))
        noise_path = (forward_step(lives_in), backward_step(lives_in))
        paths = {m.path for m in dictionary.lookup(normalize_phrase("uncle of"))}
        assert noise_path in paths

    def test_spouse_maps_to_single_predicate(self, family_kg, uncle_dataset):
        miner = ParaphraseMiner(family_kg, max_path_length=3, top_k=1)
        dictionary = miner.mine(uncle_dataset)
        (top,) = dictionary.lookup(normalize_phrase("is married to"))
        spouse = family_kg.id_of(e("spouse"))
        assert top.path == (forward_step(spouse),)
        assert top.is_single_predicate

    def test_confidences_normalized(self, family_kg, uncle_dataset):
        dictionary = ParaphraseMiner(family_kg, max_path_length=3, top_k=5).mine(uncle_dataset)
        for phrase in dictionary.phrases():
            mappings = dictionary.lookup(phrase)
            if mappings:
                assert mappings[0].confidence == pytest.approx(1.0)
                for mapping in mappings:
                    assert 0.0 < mapping.confidence <= 1.0

    def test_missing_pairs_tolerated(self, family_kg):
        dataset = RelationPhraseDataset()
        dataset.add("ghost of", [(e("nobody"), e("nothing"))])
        miner = ParaphraseMiner(family_kg, max_path_length=2)
        dictionary = miner.mine(dataset)
        assert dictionary.lookup(normalize_phrase("ghost of")) == []
        assert miner.last_report.located_fraction == 0.0

    def test_report_located_fraction(self, family_kg, uncle_dataset):
        miner = ParaphraseMiner(family_kg, max_path_length=2)
        miner.mine(uncle_dataset)
        assert miner.last_report.located_fraction == 1.0
        assert miner.last_report.pairs_total == 4

    def test_invalid_parameters(self, family_kg):
        from repro.exceptions import MiningError
        with pytest.raises(MiningError):
            ParaphraseMiner(family_kg, max_path_length=0)
        with pytest.raises(MiningError):
            ParaphraseMiner(family_kg, top_k=0)

    def test_theta_2_misses_uncle(self, family_kg, uncle_dataset):
        # The 3-hop uncle path needs θ ≥ 3 — the precision/θ trade-off
        # behind Table 7.
        dictionary = ParaphraseMiner(family_kg, max_path_length=2).mine(uncle_dataset)
        child = family_kg.id_of(e("hasChild"))
        for mapping in dictionary.lookup(normalize_phrase("uncle of")):
            assert len(mapping.path) <= 2


class TestDictionary:
    def test_lookup_ranked_by_confidence(self):
        d = ParaphraseDictionary()
        d.add(("play", "in"), [
            PredicateMapping((1,), 0.5),
            PredicateMapping((2,), 0.9),
        ])
        confidences = [m.confidence for m in d.lookup(("play", "in"))]
        assert confidences == sorted(confidences, reverse=True)

    def test_word_inverted_index(self):
        d = ParaphraseDictionary()
        d.add(("be", "marry", "to"), [PredicateMapping((1,), 1.0)])
        d.add(("play", "in"), [PredicateMapping((2,), 1.0)])
        assert d.phrases_containing("marry") == {("be", "marry", "to")}
        assert d.phrases_containing("in") == {("play", "in")}
        assert d.phrases_containing("zzz") == set()

    def test_empty_phrase_rejected(self):
        d = ParaphraseDictionary()
        with pytest.raises(ValueError):
            d.add((), [])

    def test_remove_predicate(self):
        d = ParaphraseDictionary()
        d.add(("play", "in"), [
            PredicateMapping((forward_step(7),), 1.0),
            PredicateMapping((forward_step(8),), 0.5),
        ])
        removed = d.remove_predicate(7)
        assert removed == 1
        remaining = d.lookup(("play", "in"))
        assert len(remaining) == 1
        assert remaining[0].path == (forward_step(8),)


def dictionary_view(dictionary):
    return {
        phrase: [(m.path, m.confidence) for m in dictionary.lookup(phrase)]
        for phrase in sorted(dictionary.phrases())
    }


class TestIncrementalMaintenance:
    """Section 3's maintenance: a removed predicate leaves through
    ``remove_predicate``, a new one is covered by mining again — over the
    whole phrase set, as Definition 4's idf is taken over all of T."""

    def test_remine_for_new_predicate(self, family_kg, uncle_dataset):
        miner = ParaphraseMiner(family_kg, max_path_length=3, top_k=3)
        miner.mine(uncle_dataset)
        # A new, better predicate appears: a direct uncleOf edge.
        family_kg.store.add(Triple(e("tedA"), e("uncleOf"), e("juniorA")))
        family_kg.store.add(Triple(e("tedB"), e("uncleOf"), e("juniorB")))
        family_kg.refresh()
        dictionary = miner.mine(uncle_dataset)
        uncle = family_kg.id_of(e("uncleOf"))
        top = dictionary.lookup(normalize_phrase("uncle of"))[0]
        assert top.path == (forward_step(uncle),)
        assert dictionary.remove_predicate(uncle) >= 1
        assert all(
            uncle not in {step_predicate(step) for step in mapping.path}
            for mapping in dictionary.lookup(normalize_phrase("uncle of"))
        )

    def test_remine_with_unknown_predicate_is_noop(self, family_kg, uncle_dataset):
        # A write no support pair reaches changes no mined mapping.
        miner = ParaphraseMiner(family_kg, max_path_length=2)
        dictionary = miner.mine(uncle_dataset)
        family_kg.store.add(Triple(e("elsewhere"), e("nope"), e("nowhere")))
        family_kg.refresh()
        assert dictionary_view(miner.mine(uncle_dataset)) == dictionary_view(dictionary)
        assert dictionary.remove_predicate(family_kg.id_of(e("nope"))) == 0


class TestWhatMiningKeeps:
    """The walk memo pays between the pairs of one run, not after it: the
    run owns it, and nothing of it is left on the kernel."""

    KERNEL_SLOTS = ("superclasses", "subclasses", "instances")

    def _kernel_memos(self, kg):
        """The kernel's per-version memos, by slot: mining fills none."""
        kernel = kg.kernel
        return {name: dict(getattr(kernel, name)) for name in self.KERNEL_SLOTS}

    def test_the_run_memo_is_hit_and_left_nowhere(
        self, family_kg, uncle_dataset, monkeypatch
    ):
        from repro.paraphrase import miner as miner_module

        memos, hits = [], []
        find = miner_module.find_simple_paths

        def watching(kg, source, target, max_length, tracer=None, memo=None):
            if not any(held is memo for held in memos):
                memos.append(memo)
            hits.append((source, (max_length + 1) // 2) in memo)
            return find(kg, source, target, max_length, tracer=tracer, memo=memo)

        monkeypatch.setattr(miner_module, "find_simple_paths", watching)
        before = self._kernel_memos(family_kg)
        ParaphraseMiner(family_kg, max_path_length=3).mine(uncle_dataset)
        (memo,) = memos  # one dict for every pair of the run
        assert memo and any(hits)  # it held trees, and a later pair reused one
        assert self._kernel_memos(family_kg) == before

    def test_a_remine_leaves_no_memo_on_the_kernel(self, family_kg, uncle_dataset):
        miner = ParaphraseMiner(family_kg, max_path_length=3, top_k=3)
        miner.mine(uncle_dataset)
        family_kg.store.add(Triple(e("tedA"), e("uncleOf"), e("juniorA")))
        family_kg.refresh()
        before = self._kernel_memos(family_kg)
        assert miner.mine(uncle_dataset).lookup(normalize_phrase("uncle of"))
        assert self._kernel_memos(family_kg) == before

    def test_mining_twice_gives_equal_dictionaries(self, family_kg, uncle_dataset):
        miner = ParaphraseMiner(family_kg, max_path_length=3, top_k=3)
        first = miner.mine(uncle_dataset)
        second = miner.mine(uncle_dataset)  # rebuilds its trees
        assert dictionary_view(first) == dictionary_view(second)
        assert len(first) > 0
