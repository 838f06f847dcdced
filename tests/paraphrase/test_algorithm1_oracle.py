"""Algorithm 1 and Definition 4, held to an independent oracle.

The oracle shares nothing with the miner but the graph's terms as
``store.triples()`` yields them: it enumerates simple undirected paths by
depth-first search over those triples, with predicate IRIs and directions
for steps, and scores them by the paper's formulas (tf over the support
pairs, an add-one-smoothed idf over the whole phrase set T, the
``0.75^(len−1)`` length discount, the top k, normalised to the best).
Two seeded mutants must disagree with it: scoring a sub-corpus against
itself, and a search that walks through literals.
"""

import math
from collections import Counter, defaultdict

import pytest

from repro.datasets import build_dbpedia_mini, build_phrase_dataset
from repro.paraphrase import ParaphraseMiner, RelationPhraseDataset, normalize_phrase
from repro.rdf import RDF_TYPE, RDFS_LABEL, RDFS_SUBCLASSOF, Literal, TripleStore

THETA, TOP_K, DISCOUNT = 4, 3, 0.75
STRUCTURAL = {RDF_TYPE, RDFS_LABEL, RDFS_SUBCLASSOF}


def oracle_paths(adjacency, source, target, theta):
    """Simple undirected paths source → target of length ≤ θ, as tuples of
    (predicate, forward?) steps.  A path never passes through a literal;
    a literal endpoint is left by the first hop or reached by the last."""
    found = set()

    def extend(node, path, visited):
        if node == target and path:
            found.add(tuple(path))
            return
        if len(path) == theta:
            return
        for step, neighbor in adjacency[node]:
            if neighbor in visited:
                continue
            if isinstance(neighbor, Literal) and neighbor != target:
                continue
            visited.add(neighbor)
            path.append(step)
            extend(neighbor, path, visited)
            path.pop()
            visited.discard(neighbor)

    if source != target:
        extend(source, [], {source})
    return found


def oracle_dictionary(store, dataset, theta=THETA, k=TOP_K):
    """``normalised phrase → ({path: normalised score}, sorted top-k
    scores)`` of Definition 4."""
    adjacency = defaultdict(list)
    for triple in store.triples():
        if triple.predicate in STRUCTURAL:
            continue
        adjacency[triple.subject].append(((triple.predicate, True), triple.object))
        adjacency[triple.object].append(((triple.predicate, False), triple.subject))

    def endpoints(term):
        if term in adjacency:
            return [term]
        if isinstance(term, Literal):  # lexical match, any datatype
            return [node for node in adjacency
                    if isinstance(node, Literal) and node.lexical == term.lexical]
        return []

    pair_sets = {}
    for phrase, pairs in dataset.support.items():
        sets = []
        for left, right in pairs:
            paths = set()
            for source in endpoints(left):
                for target in endpoints(right):
                    paths |= oracle_paths(adjacency, source, target, theta)
            sets.append(paths)
        pair_sets[phrase] = sets
    corpus = len(pair_sets)
    df = Counter(path for sets in pair_sets.values() for path in set().union(*sets))
    result = {}
    for phrase, sets in pair_sets.items():
        scores = {}
        for path in set().union(*sets):
            tf = sum(path in paths for paths in sets)
            idf = math.log((corpus + 1) / (df[path] + 1))
            score = tf * idf * DISCOUNT ** (len(path) - 1)
            if score > 0:
                scores[path] = score
        kept = sorted(scores.items(), key=lambda item: -item[1])[:k]
        best = kept[0][1] if kept else 1.0
        result[normalize_phrase(phrase)] = (
            {path: score / best for path, score in scores.items()},
            sorted(score / best for _path, score in kept),
        )
    return result


def disagreements(kg, dataset, dictionary, theta=THETA, k=TOP_K):
    """Every phrase where the mined mappings differ from the oracle's top k.

    Paths compare as predicate IRIs with directions; where scores tie at
    the k-th cut either tied path may be kept, so the kept scores compare
    as a multiset and every kept path must carry the oracle's score."""
    differ = []
    for phrase, (scores, kept) in oracle_dictionary(kg.store, dataset, theta, k).items():
        mined = {
            tuple((kg.iri_of(abs(step) - 1), step > 0) for step in mapping.path):
                mapping.confidence
            for mapping in dictionary.lookup(phrase)
        }
        if sorted(mined.values()) != pytest.approx(kept, abs=1e-9) or any(
            path not in scores or not math.isclose(scores[path], confidence, abs_tol=1e-9)
            for path, confidence in mined.items()
        ):
            differ.append(phrase)
    return differ


@pytest.fixture(scope="module")
def mini():
    return build_dbpedia_mini()


@pytest.fixture(scope="module")
def phrases():
    return build_phrase_dataset()


def test_the_miner_agrees_with_the_oracle(mini, phrases):
    dictionary = ParaphraseMiner(mini, max_path_length=THETA, top_k=TOP_K).mine(phrases)
    assert len(dictionary) > 40
    assert disagreements(mini, phrases, dictionary) == []


def test_an_idf_over_a_sub_corpus_disagrees(mini, phrases):
    """Re-mining the phrases a new predicate touches, scored against those
    phrases alone, is not Definition 4."""
    touched = ("was married to", "played in", "starred in", "movies with")
    sub = RelationPhraseDataset({phrase: phrases.support[phrase] for phrase in touched})
    partial = ParaphraseMiner(mini, max_path_length=THETA, top_k=TOP_K).mine(sub)
    merged = ParaphraseMiner(mini, max_path_length=THETA, top_k=TOP_K).mine(phrases)
    for phrase in partial.phrases():
        merged.add(phrase, partial.lookup(phrase))
    assert normalize_phrase("played in") in disagreements(mini, phrases, merged)


def test_a_search_through_literals_disagrees(phrases, monkeypatch):
    """With no node a literal, paths run through a shared literal value (a
    birth date two children have in common)."""
    kg = build_dbpedia_mini()
    monkeypatch.setattr(TripleStore, "is_literal_id", lambda self, term_id: False)
    dictionary = ParaphraseMiner(kg, max_path_length=THETA, top_k=TOP_K).mine(phrases)
    monkeypatch.undo()
    assert disagreements(kg, phrases, dictionary) == [("child", "of"), ("child",)]
