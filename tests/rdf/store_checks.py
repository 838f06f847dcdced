"""The one equivalence walk every store test shares.

``assert_matches_model`` compares a :class:`TripleStore` — every
``StoreBackend`` member it delegates to and every view the facade derives
on top — against a plain ``set`` of id triples.  ``assert_same_order``
adds the stronger contract the frozen family keeps among itself: every
iterator yields in the *same order* whichever frozen layout answers it.

The state machine in ``test_store_machine.py`` runs both after every step
of a random mutation stream; the fixture tests in ``test_backend.py``,
``test_shard.py`` and ``test_overlay.py`` run them on their pinned inputs.
"""

from itertools import product

import pytest

from repro.exceptions import StoreFrozenError
from repro.rdf import IRI, Triple

VOCABULARY = ("subject_ids", "predicate_ids", "object_ids")


def probes(ids, cap):
    """Up to ``cap`` evenly strided ids, one id nothing uses, and the wildcard."""
    ids = sorted(ids)
    stride = max(1, -(-len(ids) // cap))
    return ids[::stride] + [max(ids, default=0) + 1, None]


def generalisations(model, probe_s, probe_p, probe_o):
    """pattern → sorted matching triples, for every probed pattern shape."""
    matches = {
        pattern: [] for pattern in product(probe_s, probe_p, probe_o)
    }
    for s, p, o in sorted(model):
        for pattern in product((s, None), (p, None), (o, None)):
            if pattern in matches:
                matches[pattern].append((s, p, o))
    return matches


def assert_matches_model(store, model, cap=6):
    """Every read of ``store`` says exactly what the plain set ``model`` says."""
    backend = store.backend
    subjects = {s for s, _, _ in model}
    predicates = {p for _, p, _ in model}
    objects = {o for _, _, o in model}
    assert len(backend) == len(store) == len(model)

    for name, expected in zip(VOCABULARY, (subjects, predicates, objects)):
        listed = list(getattr(backend, name)())
        assert len(listed) == len(set(listed)), f"{name} repeats an id"
        assert set(listed) == set(getattr(store, name)()) == expected, name

    matches = generalisations(
        model, probes(subjects, cap), probes(predicates, cap), probes(objects, cap)
    )
    for (s, p, o), expected in matches.items():
        assert sorted(backend.triples_ids(s, p, o)) == expected, (s, p, o)
        assert store.count(s, p, o) == len(expected), (s, p, o)
        if None not in (s, p, o):
            assert backend.contains(s, p, o) == bool(expected), (s, p, o)
        elif o is None and None not in (s, p):
            assert backend.objects_ids(s, p) == {t[2] for t in expected}, (s, p)
        elif s is None and None not in (p, o):
            assert backend.subjects_ids(p, o) == {t[0] for t in expected}, (p, o)
        elif s is not None and p is None and o is None:
            assert _as_sets(backend.out_index(s)) == _grouped(expected, 1, 2), s
        elif o is not None and s is None and p is None:
            assert _as_sets(backend.in_index(o)) == _grouped(expected, 0, 1), o
        elif p is not None and s is None and o is None:
            derived = list(store.objects_of_predicate(p))
            assert len(derived) == len(set(derived)), p
            assert set(derived) == {t[2] for t in expected}, p

    nodes = subjects | {o for o in objects if not store.is_literal_id(o)}
    assert store.node_ids() == nodes
    assert store.statistics() == {
        "triples": len(model),
        "nodes": len(nodes),
        "predicates": len(predicates),
        "literals": store.literal_count(),
    }


def _as_sets(row):
    return {key: set(values) for key, values in row.items()}


def _grouped(triples, key, value):
    grouped = {}
    for triple in triples:
        grouped.setdefault(triple[key], set()).add(triple[value])
    return grouped


def assert_same_order(store, reference, model, cap=6):
    """Every iterator of ``store`` yields in ``reference``'s exact order."""
    assert_same_vocabulary_order(store, reference, model, cap)
    assert_same_pattern_order(store, reference, model, cap)
    assert_same_row_order(store, reference, model, cap)


def assert_same_vocabulary_order(store, reference, model, cap=6):
    for name in VOCABULARY:
        assert list(getattr(store, name)()) == list(getattr(reference, name)()), name
    for p in probes({p for _, p, _ in model}, cap)[:-1]:
        assert list(store.objects_of_predicate(p)) == list(
            reference.objects_of_predicate(p)
        ), p


def assert_same_pattern_order(store, reference, model, cap=6):
    for pattern in product(
        probes({s for s, _, _ in model}, cap),
        probes({p for _, p, _ in model}, cap),
        probes({o for _, _, o in model}, cap),
    ):
        assert list(store.triples_ids(*pattern)) == list(
            reference.triples_ids(*pattern)
        ), pattern


def assert_same_row_order(store, reference, model, cap=6):
    for s in probes({s for s, _, _ in model}, cap)[:-1]:
        assert list(store.out_index(s).items()) == list(reference.out_index(s).items()), s
    for o in probes({o for _, _, o in model}, cap)[:-1]:
        assert list(store.in_index(o).items()) == list(reference.in_index(o).items()), o


def assert_refuses_mutation(store):
    """A frozen store refuses every write, at the facade and at the backend,
    before it touches the shared term dictionary."""
    assert not store.writable and not store.backend.writable
    terms_before = len(store.dictionary)
    triple = Triple(IRI("x:unseen-s"), IRI("x:unseen-p"), IRI("x:unseen-o"))
    for write in (
        lambda: store.add(triple),
        lambda: store.add_all([triple]),
        lambda: store.remove(triple),
        lambda: store.backend.add_all_ids([(1, 2, 3)]),
        lambda: store.backend.remove(1, 2, 3),
    ):
        with pytest.raises(StoreFrozenError):
            write()
    assert len(store.dictionary) == terms_before
