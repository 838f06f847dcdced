"""Tests for the label index and entity linker on an ambiguous graph."""

import math
import sys
import threading
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.linking import EntityLinker, LabelIndex, LinkCandidate
from repro.linking import linker as linker_module
from repro.linking.index import normalize_label
from repro.linking.similarity import combined_similarity
from repro.rdf import (
    IRI,
    KnowledgeGraph,
    Literal,
    RDF_TYPE,
    RDFS_LABEL,
    Triple,
    TripleStore,
)


@pytest.fixture(scope="module")
def kg():
    """The paper's ambiguity setup: three Philadelphias, actor class."""
    store = TripleStore()
    e = lambda name: IRI(f"ex:{name}")

    def entity(name, label, *, cls=None):
        store.add(Triple(e(name), RDFS_LABEL, Literal(label)))
        if cls is not None:
            store.add(Triple(e(name), RDF_TYPE, e(cls)))

    entity("Philadelphia", "Philadelphia", cls="City")
    entity("Philadelphia_(film)", "Philadelphia (film)", cls="Film")
    entity("Philadelphia_76ers", "Philadelphia 76ers", cls="BasketballTeam")
    entity("Antonio_Banderas", "Antonio Banderas", cls="Actor")
    entity("An_Actor_Prepares", "An Actor Prepares", cls="Book")
    entity("Queen_Elizabeth_II", "Queen Elizabeth II", cls="Person")
    store.add(Triple(e("Queen_Elizabeth_II"), RDFS_LABEL, Literal("Elizabeth II")))
    store.add(Triple(e("Actor"), RDFS_LABEL, Literal("actor")))
    store.add(Triple(e("City"), RDFS_LABEL, Literal("city")))
    # Make the city prominent: several incident facts.
    for i in range(6):
        store.add(Triple(e(f"Suburb{i}"), e("locatedIn"), e("Philadelphia")))
    store.add(
        Triple(e("Antonio_Banderas"), e("starring"), e("Philadelphia_(film)"))
    )
    return KnowledgeGraph(store)


def ids(kg, candidates):
    return [kg.iri_of(c.node_id).local_name for c in candidates]


class TestNormalization:
    def test_strips_parenthetical(self):
        assert normalize_label("Philadelphia (film)") == "philadelphia"

    def test_underscores_and_case(self):
        assert normalize_label("Antonio_Banderas") == "antonio banderas"

    def test_punctuation(self):
        assert normalize_label("U.S. state!") == "us state"


class TestLabelIndex:
    def test_exact_finds_all_homonyms(self, kg):
        index = LabelIndex(kg)
        entries = index.exact("Philadelphia")
        assert {e.node_id for e in entries} == {
            kg.id_of(IRI("ex:Philadelphia")),
            kg.id_of(IRI("ex:Philadelphia_(film)")),
        }

    def test_exact_with_plural_phrase(self, kg):
        index = LabelIndex(kg)
        assert index.exact("actors")  # singularized to the class label

    def test_by_words_partial(self, kg):
        index = LabelIndex(kg)
        entries = index.by_words("Philadelphia")
        node_ids = {e.node_id for e in entries}
        assert kg.id_of(IRI("ex:Philadelphia_76ers")) in node_ids

    def test_alternate_labels_indexed(self, kg):
        index = LabelIndex(kg)
        entries = index.exact("Elizabeth II")
        assert kg.id_of(IRI("ex:Queen_Elizabeth_II")) in {e.node_id for e in entries}

    def test_class_flag(self, kg):
        index = LabelIndex(kg)
        (actor_entry,) = [e for e in index.exact("actor") if e.is_class]
        assert actor_entry.node_id == kg.id_of(IRI("ex:Actor"))


class TestEntityLinker:
    def test_ambiguous_phrase_returns_multiple_candidates(self, kg):
        linker = EntityLinker(kg)
        candidates = linker.link("Philadelphia")
        names = ids(kg, candidates)
        assert "Philadelphia" in names
        assert "Philadelphia_(film)" in names
        assert "Philadelphia_76ers" in names

    def test_exact_match_outranks_partial(self, kg):
        linker = EntityLinker(kg)
        candidates = linker.link("Philadelphia")
        exact = [c for c in candidates if c.label in ("Philadelphia", "Philadelphia (film)")]
        partial = [c for c in candidates if c.label == "Philadelphia 76ers"]
        assert min(c.score for c in exact) > max(c.score for c in partial)

    def test_prominence_ranks_city_over_film(self, kg):
        linker = EntityLinker(kg)
        names = ids(kg, linker.link("Philadelphia"))
        assert names.index("Philadelphia") < names.index("Philadelphia_(film)")

    def test_class_and_entity_for_actor(self, kg):
        # Section 4.2.1: "actor" links to class <Actor> and the entity
        # <An_Actor_Prepares>.
        linker = EntityLinker(kg)
        candidates = linker.link("actor")
        kinds = {(kg.iri_of(c.node_id).local_name, c.is_class) for c in candidates}
        assert ("Actor", True) in kinds
        assert ("An_Actor_Prepares", False) in kinds

    def test_scores_are_probabilities(self, kg):
        linker = EntityLinker(kg)
        for phrase in ("Philadelphia", "actor", "Antonio Banderas"):
            for candidate in linker.link(phrase):
                assert 0.0 < candidate.score <= 1.0

    def test_unknown_phrase_empty(self, kg):
        linker = EntityLinker(kg)
        assert linker.link("Zorblax Quux") == []

    def test_empty_phrase(self, kg):
        assert EntityLinker(kg).link("") == []

    def test_max_candidates_respected(self, kg):
        linker = EntityLinker(kg, max_candidates=2)
        assert len(linker.link("Philadelphia")) == 2

    def test_multiword_exact(self, kg):
        linker = EntityLinker(kg)
        candidates = linker.link("Antonio Banderas")
        assert ids(kg, candidates)[0] == "Antonio_Banderas"

    def test_alternate_label_links(self, kg):
        linker = EntityLinker(kg)
        names = ids(kg, linker.link("Elizabeth II"))
        assert names[0] == "Queen_Elizabeth_II"

    def test_min_score_filters_weak_partials(self, kg):
        strict = EntityLinker(kg, min_score=0.99)
        names = ids(kg, strict.link("Philadelphia"))
        assert "Philadelphia_76ers" not in names


# --------------------------------------------------------------------- #
# The linker against the one it replaced, and against its invariants
# --------------------------------------------------------------------- #


def reference_link(linker, phrase):
    """The linker that scores every entry it meets and reads the store for
    each: exact tier, suffix retry, subset-filtered fuzzy tier, ``min_score``,
    ``(-score, node_id)``, cut at ``max_candidates``."""
    kg, index = linker.kg, linker.index
    normalized = normalize_label(phrase)
    if not normalized:
        return []

    def prominence(node_id):
        degree = kg.degree(node_id)
        if degree <= 0:
            return 0.0
        return min(1.0, math.log1p(degree) / math.log1p(linker.max_degree))

    scored = {}

    def keep(entry, score):
        held = scored.get(entry.node_id)
        if held is None or score > held.score:
            scored[entry.node_id] = LinkCandidate(
                entry.node_id, entry.label, score, entry.is_class
            )

    exact = index.exact(phrase)
    words = phrase.split()
    for start in range(1, len(words)):
        if exact:
            break
        exact = index.exact(" ".join(words[start:]))
    for entry in exact:
        keep(entry, 0.8 + 0.2 * prominence(entry.node_id))
    has_exact = bool(scored)
    phrase_words = set(normalized.split())
    for entry in index.by_words(phrase):
        if has_exact and (
            entry.node_id in scored
            or not phrase_words <= set(entry.normalized.split())
        ):
            continue
        similarity = combined_similarity(normalized, entry.normalized)
        score = similarity * (0.55 + 0.25 * prominence(entry.node_id))
        if score >= linker.min_score:
            keep(entry, score)
    ranked = sorted(scored.values(), key=lambda c: (-c.score, c.node_id))
    return ranked[: linker.max_candidates]


_WORDS = ("alpha", "beta", "film", "films", "city")
_label_words = st.lists(st.sampled_from(_WORDS), min_size=1, max_size=3)
_labels = st.builds(
    lambda words, tag, title: (
        (" ".join(words).title() if title else " ".join(words))
        + (f" ({tag})" if tag else "")
    ),
    _label_words,
    st.sampled_from(("", "", "film", "band")),
    st.booleans(),
)


@st.composite
def label_graphs(draw):
    """A small label graph, phrases to link and the linker's two cut-offs.

    Five words and at most five labels, so homonym clones (one label on
    many nodes), labels sharing words, parentheticals, plurals, two labels
    of one node under one key and a class and an entity under one label
    all turn up; ``dropped`` nodes lose every triple after the index is
    built, so the linker meets zero-degree nodes too.  Phrases are mostly
    a label as written, pluralised, or behind a descriptive prefix.
    """
    labels = draw(st.lists(_labels, min_size=1, max_size=5, unique=True))
    node_count = draw(st.integers(min_value=1, max_value=14))
    nodes = [
        (
            draw(st.lists(st.sampled_from(labels), min_size=1, max_size=3, unique=True)),
            draw(st.booleans()),  # is a class (some node is typed with it)
            draw(st.integers(min_value=0, max_value=4)),  # extra facts
        )
        for _ in range(node_count)
    ]
    dropped = draw(st.sets(st.integers(min_value=0, max_value=node_count - 1), max_size=2))
    a_label = st.sampled_from(labels)
    phrases = draw(
        st.lists(
            st.one_of(
                a_label,
                a_label.map(lambda label: label.split(" (")[0] + "s"),
                a_label.map(lambda label: "the comic " + label),
                _label_words.map(" ".join),
            ),
            min_size=1,
            max_size=4,
        )
    )
    max_candidates = draw(st.integers(min_value=1, max_value=6))
    min_score = draw(st.sampled_from((0.0, 0.25, 0.6)))
    return nodes, dropped, phrases, max_candidates, min_score


def _build_label_graph(nodes, dropped):
    store = TripleStore()
    e = lambda name: IRI(f"ex:{name}")
    triples_of: dict[int, list[Triple]] = {}
    for number, (labels, is_class, facts) in enumerate(nodes):
        mine = [Triple(e(f"n{number}"), RDFS_LABEL, Literal(label)) for label in labels]
        if is_class:
            mine.append(Triple(e(f"instance{number}"), RDF_TYPE, e(f"n{number}")))
        mine += [
            Triple(e(f"n{number}"), e("linksTo"), e(f"other{number}_{i}"))
            for i in range(facts)
        ]
        triples_of[number] = mine
        for triple in mine:
            store.add(triple)
    kg = KnowledgeGraph(store)
    index = LabelIndex(kg)
    max_degree = max(kg.degree(node_id) for node_id in store.node_ids())
    for number in dropped:
        for triple in triples_of[number]:
            store.remove(triple)
    return kg, index, max_degree


@settings(max_examples=150, deadline=None)
@given(label_graphs())
# One node met twice in the exact tier ("films" and its singular "film").
@example(([(["film", "films"], False, 1), (["films"], True, 0)], set(), ["films"], 5, 0.25))
# Beside an exact hit a node's first fuzzy entry is the one kept, although
# its second label ("alpha beta") is closer to the phrase.
@example(
    (
        [(["alpha"], False, 0), (["alpha beta film city", "alpha beta"], False, 2)],
        set(), ["alpha", "alphas", "the comic alpha"], 5, 0.0,
    )
)
# Two labels of one node equally close to the phrase: the first is kept.
@example(([(["alpha zeta", "gamma zeta"], False, 1)], set(), ["zeta"], 5, 0.0))
def test_link_equals_the_linker_that_scores_every_entry(case):
    nodes, dropped, phrases, max_candidates, min_score = case
    kg, index, max_degree = _build_label_graph(nodes, dropped)
    linker = EntityLinker(
        kg, max_candidates=max_candidates, min_score=min_score,
        index=index, max_degree=max_degree,
    )
    for phrase in phrases:
        expected = reference_link(linker, phrase)
        assert linker.link(phrase) == expected  # fields and order, scores by ==
        assert linker.link(phrase) == expected  # and again from a filled table


class _RecordingBackend:
    """A delegating ``StoreBackend`` that counts the calls it forwards; an
    armed ``before_return`` hook runs once, after the next ``out_index``
    has read its row and before the caller sees it."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = Counter()
        self.before_return = None

    def __len__(self):
        return len(self.inner)

    def __getattr__(self, name):
        target = getattr(self.inner, name)
        if not callable(target):
            return target

        def counted(*args, **kwargs):
            self.calls[name] += 1
            result = target(*args, **kwargs)
            if name == "out_index" and self.before_return is not None:
                result = {p: frozenset(objects) for p, objects in result.items()}
                hook, self.before_return = self.before_return, None
                hook()
            return result

        return counted


def _homonym_store(clones, label="Springfield"):
    store = TripleStore()
    for i in range(clones):
        store.add(Triple(IRI(f"ex:clone{i}"), RDFS_LABEL, Literal(label)))
    store.add(Triple(IRI("ex:clone0"), IRI("ex:locatedIn"), IRI("ex:Somewhere")))
    return store


@pytest.fixture(params=["dict", "overlay"])
def recorded(request):
    """(kg, backend): 12 homonyms, over the default store (every triple in
    its delta) and over an overlay on a compact base, behind a
    call-counting backend."""
    store = _homonym_store(12)
    if request.param == "overlay":
        store = store.compacted().overlay()
    backend = _RecordingBackend(store.backend)
    store.swap_backend(backend)
    return KnowledgeGraph(store), backend


class TestLinkerReadsNothingTwice:
    def test_second_link_makes_no_backend_call(self, recorded):
        kg, backend = recorded
        linker = EntityLinker(kg)
        first = linker.link("Springfield")
        assert len(first) == 10
        backend.calls.clear()
        assert linker.link("Springfield") == first
        assert linker.link("springfields") == first  # other phrase, same nodes
        assert sum(backend.calls.values()) == 0, backend.calls

    def test_a_write_is_seen_by_the_next_link(self, recorded):
        kg, backend = recorded
        linker = EntityLinker(kg)
        before = linker.link("Springfield")
        # Not the first: it carries the graph's maximum degree and already
        # sits at the ceiling of prominence.
        grown = before[1]
        for i in range(3):
            kg.store.add(
                Triple(kg.iri_of(grown.node_id), IRI("ex:locatedIn"), IRI(f"ex:Place{i}"))
            )
        backend.calls.clear()
        after = linker.link("Springfield")
        assert backend.calls["out_index"] >= 1  # re-read, not replayed
        (regrown,) = [c for c in after if c.node_id == grown.node_id]
        assert regrown.score > grown.score
        assert all(candidate.score <= 1.0 for candidate in after)
        assert after == reference_link(linker, "Springfield")

    def test_value_read_before_a_version_bump_is_not_served_after_it(self):
        # The race, made deterministic: while link() is between reading the
        # store version and reading the node's row, a write lands and another
        # request links the same phrase at the new version; the row the
        # first call gets is the one from before the write.  Its value must
        # go to the table it took, not to the one the other request started.
        store = _homonym_store(1)
        # A hub keeps the homonym below the ceiling of prominence, so one
        # more edge shows in its score.
        for i in range(6):
            store.add(Triple(IRI("ex:Hub"), IRI("ex:locatedIn"), IRI(f"ex:Spoke{i}")))
        backend = _RecordingBackend(store.backend)
        store.swap_backend(backend)
        kg = KnowledgeGraph(store)
        linker = EntityLinker(kg)
        new_fact = Triple(IRI("ex:clone0"), IRI("ex:locatedIn"), IRI("ex:Elsewhere"))

        def write_then_link_elsewhere():
            store.add(new_fact)
            linker.link("Springfield")

        backend.before_return = write_then_link_elsewhere
        stale = linker.link("Springfield")
        assert backend.before_return is None and new_fact in store
        fresh = linker.link("Springfield")
        assert fresh == reference_link(linker, "Springfield")
        assert fresh[0].score > stale[0].score

    def test_links_beside_a_writer_end_on_the_last_version(self):
        # More linking threads than cores share one linker while a writer
        # (which readers never wait for: the overlay publishes rows
        # copy-on-write) keeps moving the version.  Whatever the
        # interleaving, a degree read before a write must not survive in
        # the table of a later version, so once the writer is done every
        # thread's next link is the one a fresh read of the store gives.
        store = _homonym_store(12).compacted().overlay()
        kg = KnowledgeGraph(store)
        linker = EntityLinker(kg)
        subjects = [IRI(f"ex:clone{i}") for i in range(12)]
        writing = threading.Event()
        writing.set()
        failures = []

        def read():
            try:
                while writing.is_set():
                    linker.link("Springfield")
                if linker.link("Springfield") != reference_link(linker, "Springfield"):
                    failures.append("stale prominence served after the last write")
            except Exception as error:  # surfaced below, not lost in the thread
                failures.append(repr(error))

        readers = [threading.Thread(target=read) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in readers:
                thread.start()
            for i in range(1200):
                store.add(Triple(subjects[i % 12], IRI("ex:locatedIn"), IRI(f"ex:P{i}")))
            writing.clear()
            for thread in readers:
                thread.join(timeout=30)
        finally:
            writing.clear()
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in readers)
        assert failures == []
        assert linker.statistics()["prominence_version"] == store.version


class TestLinkerScoresEachLabelOnce:
    def test_one_similarity_per_distinct_normalized_label(self, monkeypatch):
        # 101 homonyms of a label the phrase matches only fuzzily, and one
        # node under a second label: two distinct labels, two comparisons.
        store = _homonym_store(101, label="Springfield Heights")
        store.add(Triple(IRI("ex:other"), RDFS_LABEL, Literal("Springfield Gardens")))
        linker = EntityLinker(KnowledgeGraph(store))
        seen = []

        def counting(left, right):
            seen.append((left, right))
            return combined_similarity(left, right)

        monkeypatch.setattr(linker_module, "combined_similarity", counting)
        candidates = linker.link("Springfield")
        assert len(candidates) == 10
        assert sorted(seen) == [
            ("springfield", "springfield gardens"),
            ("springfield", "springfield heights"),
        ]

    def test_no_candidate_is_built_for_a_dropped_entry(self, monkeypatch):
        linker = EntityLinker(KnowledgeGraph(_homonym_store(120)))
        built = []

        def counting(*args):
            candidate = LinkCandidate(*args)
            built.append(candidate)
            return candidate

        monkeypatch.setattr(linker_module, "LinkCandidate", counting)
        kept = linker.link("Springfield")
        assert len(kept) == 10
        assert built == kept


class TestLinkerStatistics:
    def test_shape_and_reporting_never_fills_the_table(self, kg):
        linker = EntityLinker(kg)
        stats = linker.statistics()
        assert stats == {
            "entries": len(linker.index),
            "words": len(linker.index.word_postings()),
            "max_degree": linker.max_degree,
            "prominence_version": kg.store.version,
            "prominence_cached": 0,
        }
        linked = linker.link("Philadelphia")
        assert linker.statistics()["prominence_cached"] >= len(linked)
        assert linker.statistics() == linker.statistics()
