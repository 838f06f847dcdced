"""The label index held to a brute-force scan of its own entries.

``exact`` returns the entries whose normalized label equals the phrase's,
or equals it with the head word singularised; ``by_words`` returns the
entries filed under any of ``lookup_words(phrase)`` — a label's words and
their singulars — in position order.  The oracle reads only the entry
list and those definitions, so it holds the word table, the label table
and the union of runs however they are laid out: for the index built
from a graph and for the one opened from its compiled snapshot.
"""

import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.linking import index as index_module
from repro.linking.index import LabelIndex, lookup_words, normalize_label
from repro.nlp.lemmatizer import lemmatize_noun
from repro.paraphrase.dictionary import ParaphraseDictionary
from repro.rdf import IRI, KnowledgeGraph, Literal, RDFS_LABEL, Triple, TripleStore
from repro.rdf.snapshot import compile_snapshot, load_snapshot


def _filed_under(normalized):
    words = normalized.split()
    return set(words) | {lemmatize_noun(word) for word in words}


def oracle_exact(entries, phrase):
    normalized = normalize_label(phrase)
    keys = [normalized]
    words = normalized.split()
    if words and lemmatize_noun(words[-1]) != words[-1]:
        keys.append(" ".join(words[:-1] + [lemmatize_noun(words[-1])]))
    return [entry for key in keys for entry in entries if entry.normalized == key]


def oracle_by_words(entries, phrase):
    wanted = lookup_words(phrase)
    return [entry for entry in entries if _filed_under(entry.normalized) & wanted]


def check(kg, index, phrases):
    entries = index.entries()
    # Every (node, normalized label) pair of the graph, once each.
    pairs = [(entry.node_id, entry.normalized) for entry in entries]
    assert len(pairs) == len(set(pairs))
    assert set(pairs) == {
        (sid, normalize_label(str(kg.term_of(oid))))
        for sid, _pid, oid in kg.store.triples_ids()
        if normalize_label(str(kg.term_of(oid)))
    }
    for phrase in phrases:
        assert index.exact(phrase) == oracle_exact(entries, phrase), phrase
        assert index.by_words(phrase) == oracle_by_words(entries, phrase), phrase


_WORDS = ("film", "films", "city", "cities", "alpha", "bus", "buses", "x")
_labels = st.one_of(
    st.lists(st.sampled_from(_WORDS), min_size=1, max_size=3).map(" ".join),
    # Labels that normalize to nothing, and a case / parenthetical variant.
    st.sampled_from(("", "()", "!!", "(band)", "Films (band)", "CITY-Alpha")),
)


@st.composite
def label_sets(draw):
    """Nodes with one to three labels drawn from a small pool (so labels
    repeat across nodes, words are shared and heads are plural), and the
    phrases to look up."""
    nodes = draw(st.lists(st.lists(_labels, min_size=1, max_size=3), min_size=1, max_size=8))
    phrases = draw(st.lists(st.one_of(_labels, st.sampled_from(_WORDS)), min_size=1, max_size=4))
    return nodes, phrases


def _graph(nodes):
    store = TripleStore()
    for number, labels in enumerate(nodes):
        for label in labels:
            store.add(Triple(IRI(f"ex:n{number}"), RDFS_LABEL, Literal(label)))
    return KnowledgeGraph(store)


@settings(max_examples=60, deadline=None)
@given(label_sets())
@example(([["alpha film", "films"], ["city"], ["cities", "()"], ["alpha film"]], ["alpha cities", "films"]))
# A run eight times the others: their positions, one of them its own too,
# are bisected into it.
@example(([["alpha film"]] * 16 + [["bus film"], ["city bus"]], ["film bus", "buses"]))
def test_built_and_opened_index_equal_the_scan(case):
    nodes, phrases = case
    kg = _graph(nodes)
    built = LabelIndex(kg)
    check(kg, built, phrases)
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "labels.snap"
        compile_snapshot(path, kg, ParaphraseDictionary())
        state = load_snapshot(path)
        assert state.index.entries() == built.entries()
        check(state.kg, state.index, phrases)


def test_a_union_that_drops_the_shorter_runs_fails_the_oracle(monkeypatch):
    monkeypatch.setattr(index_module, "_union", lambda runs: max(runs, key=len, default=()))
    kg = _graph([["alpha film"], ["alpha city"], ["city bus"]])
    with pytest.raises(AssertionError):
        check(kg, LabelIndex(kg), ["alpha city"])
