"""Tests for the KnowledgeGraph view: classes, labels, adjacency, paths.

The graph keeps no per-node label of its own: a node's labels are its
``rdfs:label`` objects, and the entity linker's index — which falls back
to the IRI local name — is where a node is found by one."""

import sys
import threading
from typing import Iterator

import pytest

from repro.linking import EntityLinker
from repro.paraphrase.path_mining import entity_row
from repro.rdf import (
    IRI,
    KnowledgeGraph,
    Literal,
    RDF_TYPE,
    RDFS_LABEL,
    RDFS_SUBCLASSOF,
    Triple,
    TripleStore,
)
from repro.rdf.graph import (
    backward_step,
    forward_step,
    reverse_path,
    step_is_forward,
    step_predicate,
)


@pytest.fixture
def kg():
    """The running example of the paper's Figure 1 in miniature."""
    store = TripleStore()
    e = lambda name: IRI(f"ex:{name}")
    store.add_all(
        [
            Triple(e("Antonio_Banderas"), e("spouse"), e("Melanie_Griffith")),
            Triple(e("Antonio_Banderas"), e("starring"), e("Philadelphia_(film)")),
            Triple(e("Antonio_Banderas"), RDF_TYPE, e("Actor")),
            Triple(e("Actor"), RDFS_SUBCLASSOF, e("Person")),
            Triple(e("Aaron_McKie"), e("playsFor"), e("Philadelphia_76ers")),
            Triple(e("Antonio_Banderas"), RDFS_LABEL, Literal("Antonio Banderas")),
            Triple(e("Philadelphia_(film)"), RDFS_LABEL, Literal("Philadelphia")),
            Triple(e("Antonio_Banderas"), e("height"), Literal("1.74")),
        ]
    )
    return KnowledgeGraph(store)


def nid(kg, name):
    return kg.id_of(IRI(f"ex:{name}"))


class TestClassDetection:
    def test_type_object_is_class(self, kg):
        assert nid(kg, "Actor") in kg.class_ids

    def test_subclass_parent_is_class(self, kg):
        assert nid(kg, "Person") in kg.class_ids

    def test_entity_is_not_class(self, kg):
        assert nid(kg, "Antonio_Banderas") not in kg.class_ids

    def test_literal_is_not_entity(self, kg):
        literal_id = kg.store.dictionary.lookup(Literal("1.74"))
        assert literal_id not in kg.entity_ids()

    def test_entity_ids_exclude_classes(self, kg):
        entities = kg.entity_ids()
        assert nid(kg, "Antonio_Banderas") in entities
        assert nid(kg, "Actor") not in entities


class TestTypes:
    def test_direct_types(self, kg):
        assert kg.types_of(nid(kg, "Antonio_Banderas")) == {nid(kg, "Actor")}

    def test_transitive_types_include_superclass(self, kg):
        closure = kg.superclasses_of(nid(kg, "Actor"))
        assert closure == {nid(kg, "Actor"), nid(kg, "Person")}

    def test_has_type_direct_and_transitive(self, kg):
        banderas = nid(kg, "Antonio_Banderas")
        assert kg.has_type(banderas, nid(kg, "Actor"))
        assert kg.has_type(banderas, nid(kg, "Person"))
        assert not kg.has_type(banderas, nid(kg, "Philadelphia_76ers"))

    def test_instances_of_transitive(self, kg):
        assert nid(kg, "Antonio_Banderas") in kg.instances_of(nid(kg, "Person"))


def linked_labels(kg, name):
    """The labels the entity linker files the node under."""
    node = nid(kg, name)
    return [entry.label for entry in EntityLinker(kg).index.entries() if entry.node_id == node]


class TestLabels:
    def test_label_from_rdfs_label(self, kg):
        assert linked_labels(kg, "Philadelphia_(film)") == ["Philadelphia"]

    def test_label_fallback_to_local_name(self, kg):
        assert linked_labels(kg, "Melanie_Griffith") == ["Melanie Griffith"]

    def test_all_labels(self, kg):
        assert kg.all_labels(nid(kg, "Antonio_Banderas")) == ["Antonio Banderas"]
        assert kg.all_labels(nid(kg, "Melanie_Griffith")) == []

    def test_refresh_picks_up_new_labels(self, kg):
        assert linked_labels(kg, "Melanie_Griffith") == ["Melanie Griffith"]
        griffith = IRI("ex:Melanie_Griffith")
        kg.store.add(Triple(griffith, RDFS_LABEL, Literal("Melanie Griffith (actress)")))
        kg.refresh()
        assert linked_labels(kg, "Melanie_Griffith") == ["Melanie Griffith (actress)"]


class TestAdjacency:
    """Adjacency is the kernel's signed steps; the graph adds only degree."""

    def test_edges_both_directions(self, kg):
        spouse = kg.id_of(IRI("ex:spouse"))
        banderas = nid(kg, "Antonio_Banderas")
        griffith = nid(kg, "Melanie_Griffith")
        assert (forward_step(spouse), griffith) in set(kg.kernel.neighbors(banderas))
        assert (backward_step(spouse), banderas) in set(kg.kernel.neighbors(griffith))

    def test_edges_skip_structural_by_default(self, kg):
        banderas = nid(kg, "Antonio_Banderas")
        predicates = {
            kg.iri_of(step_predicate(step)) for step, _ in kg.kernel.neighbors(banderas)
        }
        assert predicates == {IRI("ex:spouse"), IRI("ex:starring"), IRI("ex:height")}

    def test_edges_include_structural_on_request(self, kg):
        # Structural edges stay readable where the linker's degree counts
        # them: the store's runs.
        banderas = nid(kg, "Antonio_Banderas")
        predicates = {kg.iri_of(pid) for _s, pid, _o in kg.store.triples_ids(s=banderas)}
        assert {RDF_TYPE, RDFS_LABEL} <= predicates

    def test_undirected_neighbors_skip_literals(self, kg):
        # The kernel row keeps the literal; the row mining walks drops it.
        banderas = nid(kg, "Antonio_Banderas")
        literal_id = kg.store.dictionary.lookup(Literal("1.74"))
        assert literal_id in {node for _, node in kg.kernel.neighbors(banderas)}
        steps, neighbors = entity_row(kg.kernel, banderas)
        assert literal_id not in neighbors
        assert set(zip(steps, neighbors)) == {
            (step, node) for step, node in kg.kernel.neighbors(banderas)
            if node != literal_id
        }

    def test_degree(self, kg):
        # spouse, starring, height (literal) — and the structural type and
        # label edges the kernel row leaves out.
        banderas = nid(kg, "Antonio_Banderas")
        assert kg.degree(banderas) == 5
        assert len(kg.kernel.adjacency(banderas)[0]) == 3
        # Incoming edges count too: spouse(in) only.
        assert kg.degree(nid(kg, "Melanie_Griffith")) == 1

    def test_incident_predicates(self, kg):
        griffith = nid(kg, "Melanie_Griffith")
        spouse = kg.id_of(IRI("ex:spouse"))
        assert kg.kernel.incident_steps(griffith) == {backward_step(spouse)}


class TestPathEncoding:
    def test_roundtrip_forward(self):
        step = forward_step(0)
        assert step_predicate(step) == 0
        assert step_is_forward(step)

    def test_roundtrip_backward(self):
        step = backward_step(0)
        assert step_predicate(step) == 0
        assert not step_is_forward(step)

    def test_reverse_path(self):
        path = (forward_step(1), backward_step(2))
        assert reverse_path(path) == (forward_step(2), backward_step(1))
        assert reverse_path(reverse_path(path)) == path


class TestPathWalking:
    def test_walk_single_forward_step(self, kg):
        spouse = kg.id_of(IRI("ex:spouse"))
        result = kg.walk_path(nid(kg, "Antonio_Banderas"), (forward_step(spouse),))
        assert result == {nid(kg, "Melanie_Griffith")}

    def test_walk_single_backward_step(self, kg):
        spouse = kg.id_of(IRI("ex:spouse"))
        result = kg.walk_path(nid(kg, "Melanie_Griffith"), (backward_step(spouse),))
        assert result == {nid(kg, "Antonio_Banderas")}

    def test_walk_two_hop(self, kg):
        spouse = kg.id_of(IRI("ex:spouse"))
        starring = kg.id_of(IRI("ex:starring"))
        # Griffith -(spouse^-1)-> Banderas -(starring)-> Philadelphia(film)
        path = (backward_step(spouse), forward_step(starring))
        assert kg.walk_path(nid(kg, "Melanie_Griffith"), path) == {
            nid(kg, "Philadelphia_(film)")
        }

    def test_walk_dead_end_is_empty(self, kg):
        starring = kg.id_of(IRI("ex:starring"))
        assert kg.walk_path(nid(kg, "Melanie_Griffith"), (forward_step(starring),)) == set()

    def test_path_connects(self, kg):
        spouse = kg.id_of(IRI("ex:spouse"))
        assert kg.path_connects(
            nid(kg, "Antonio_Banderas"), nid(kg, "Melanie_Griffith"), (forward_step(spouse),)
        )
        assert not kg.path_connects(
            nid(kg, "Antonio_Banderas"), nid(kg, "Aaron_McKie"), (forward_step(spouse),)
        )

    def test_reverse_path_connects_back(self, kg):
        spouse = kg.id_of(IRI("ex:spouse"))
        starring = kg.id_of(IRI("ex:starring"))
        path = (backward_step(spouse), forward_step(starring))
        assert kg.path_connects(
            nid(kg, "Philadelphia_(film)"), nid(kg, "Melanie_Griffith"), reverse_path(path)
        )


class TestSubclassCycles:
    def test_transitive_types_terminate_on_cycle(self):
        """A subClassOf cycle in dirty data must not hang the closure."""
        store = TripleStore()
        store.add(Triple(IRI("c:A"), RDFS_SUBCLASSOF, IRI("c:B")))
        store.add(Triple(IRI("c:B"), RDFS_SUBCLASSOF, IRI("c:A")))
        store.add(Triple(IRI("c:x"), RDF_TYPE, IRI("c:A")))
        cyclic = KnowledgeGraph(store)
        x = cyclic.id_of(IRI("c:x"))
        assert cyclic.has_type(x, cyclic.id_of(IRI("c:A")))
        assert cyclic.has_type(x, cyclic.id_of(IRI("c:B")))

    def test_instances_terminate_on_cycle(self):
        store = TripleStore()
        store.add(Triple(IRI("c:A"), RDFS_SUBCLASSOF, IRI("c:B")))
        store.add(Triple(IRI("c:B"), RDFS_SUBCLASSOF, IRI("c:A")))
        store.add(Triple(IRI("c:x"), RDF_TYPE, IRI("c:A")))
        cyclic = KnowledgeGraph(store)
        b = cyclic.id_of(IRI("c:B"))
        assert cyclic.id_of(IRI("c:x")) in cyclic.instances_of(b)


def _write_during(monkeypatch, kg, method, triple, when=None):
    """The next ``TripleStore.<method>`` call that ``when(store, *args)``
    accepts (any call without one) reads the store, and then — before its
    caller stores what it computed — a live-ingest batch lands:
    ``triple`` is added and the graph refreshed incrementally."""
    original = getattr(TripleStore, method)

    def read_then_write(store, *args):
        result = original(store, *args)
        if when is not None and not when(store, *args):
            return result
        if isinstance(result, Iterator):
            result = list(result)  # read before the write, as a reader would
        monkeypatch.setattr(TripleStore, method, original)
        store.add(triple)
        kg.refresh(incremental=True)
        return result

    monkeypatch.setattr(TripleStore, method, read_then_write)


class TestAReadOverlappingARefresh:
    """A read that overlaps a write and ``refresh(incremental=True)``
    fills the kernel it bound — the one the refresh dropped — so the
    refreshed graph serves what a fresh graph over the same store does."""

    @pytest.fixture
    def kg(self):
        store = TripleStore()  # an overlay: the incremental path runs
        e = lambda name: IRI(f"ex:{name}")
        store.add_all([
            Triple(e("a"), RDF_TYPE, e("City")),
            Triple(e("City"), RDFS_SUBCLASSOF, e("Place")),
            Triple(e("a"), e("name"), Literal("old")),
        ])
        return KnowledgeGraph(store)

    @pytest.mark.parametrize(
        "read, method, added, when",
        [
            (
                lambda kg: kg.class_ids,
                "objects_of_predicate", ("z", RDF_TYPE, "Village"), None,
            ),
            (
                lambda kg: kg.instances_of(nid(kg, "City")),
                "subjects_ids", ("z", RDF_TYPE, "City"),
                lambda store, p, o: p == store.dictionary.lookup_or_none(RDF_TYPE),
            ),
            (
                lambda kg: kg.superclasses_of(nid(kg, "City")),
                "objects_ids", ("City", RDFS_SUBCLASSOF, "Region"), None,
            ),
            (
                lambda kg: kg.subclasses_of(nid(kg, "Place")),
                "subjects_ids", ("Hamlet", RDFS_SUBCLASSOF, "Place"), None,
            ),
            (
                lambda kg: kg.literal_ids_by_lexical("new"),
                "iter_literal_ids", ("z", "name", Literal("new")), None,
            ),
        ],
        ids=["class_ids", "instances_of", "superclasses_of", "subclasses_of",
             "literal_ids_by_lexical"],
    )
    def test_nothing_stale_is_left_in_the_refreshed_graph(
        self, kg, monkeypatch, read, method, added, when
    ):
        s, p, o = (
            term if isinstance(term, (IRI, Literal)) else IRI(f"ex:{term}") for term in added
        )
        before = read(KnowledgeGraph(kg.store))
        _write_during(monkeypatch, kg, method, Triple(s, p, o), when)
        read(kg)  # binds the live kernel, then overlaps the batch
        after = read(KnowledgeGraph(kg.store))
        assert after != before  # the batch changed the answer
        assert read(kg) == after

    def test_threaded_reads_beside_batches_leave_the_final_graph_exact(self, kg):
        """Four readers hammer every cached read while 40 batches land,
        each followed by ``refresh(incremental=True)``; whatever they
        interleave, the final graph serves what a fresh one does."""
        e = lambda name: IRI(f"ex:{name}")
        city, place = nid(kg, "City"), nid(kg, "Place")
        reads = (
            lambda graph: graph.class_ids,
            lambda graph: graph.instances_of(city),
            lambda graph: graph.superclasses_of(city),
            lambda graph: graph.subclasses_of(place),
            lambda graph: graph.literal_ids_by_lexical("v39"),
        )
        stop, errors = threading.Event(), []

        def reader():
            try:
                while not stop.is_set():
                    for read in reads:
                        read(kg)
            except Exception as error:  # reported below, not lost with the thread
                errors.append(error)

        readers = [threading.Thread(target=reader) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in readers:
                thread.start()
            for batch in range(40):
                kg.store.add_all([
                    Triple(e(f"z{batch}"), RDF_TYPE, e("City")),
                    Triple(e("City"), RDFS_SUBCLASSOF, e(f"Region{batch}")),
                    Triple(e(f"Town{batch}"), RDFS_SUBCLASSOF, e("Place")),
                    Triple(e(f"z{batch}"), e("name"), Literal(f"v{batch}")),
                ])
                kg.refresh(incremental=True)
        finally:
            stop.set()
            for thread in readers:
                thread.join(timeout=30)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in readers)
        assert errors == []
        fresh = KnowledgeGraph(kg.store)
        assert [read(kg) for read in reads] == [read(fresh) for read in reads]
