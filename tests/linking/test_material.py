"""Linker material — the label index and the max degree — is built once
per store version, in one place, and equals what a seek per node gives."""

import datetime

import pytest

from repro import obs
from repro.datasets import (
    SyntheticConfig,
    build_dbpedia_mini,
    build_phrase_dataset,
    build_synthetic_kg,
    build_yago_mini,
)
from repro.linking import EntityLinker, LabelIndex
from repro.linking import linker as linker_module
from repro.paraphrase import ParaphraseMiner
from repro.paraphrase.dictionary import ParaphraseDictionary
from repro.rdf import IRI, KnowledgeGraph, Literal, RDFS_LABEL, Triple, TripleStore
from repro.rdf import snapshot as snapshot_module
from repro.rdf.snapshot import compile_snapshot


class _PerNodeLabelIndex(LabelIndex):
    """The reference: the build as it was, one ``all_labels`` seek per node,
    an unlabelled node filed under its IRI's local name."""

    def _build(self) -> None:
        store = self.kg.store
        for node_id in sorted(store.node_ids()):
            labels = self.kg.all_labels(node_id)
            if not labels:
                term = self.kg.term_of(node_id)
                fallback = (
                    term.local_name.replace("_", " ") if isinstance(term, IRI) else str(term)
                )
                labels = [fallback] if fallback else []
            is_class = node_id in self.kg.class_ids
            for label in labels:
                self._add_entry(node_id, label, is_class)
        structural = self.kg.structural_predicate_ids
        for sid, pid, oid in store.triples_ids():
            if pid in structural or not store.is_literal_id(oid):
                continue
            lexical = str(store.dictionary.decode(oid))
            if 0 < len(lexical.split()) <= 4 and not lexical[:1].isdigit():
                self._add_entry(oid, lexical, is_class=False)


def _per_node_max_degree(kg):
    return max((kg.degree(node_id) for node_id in kg.store.node_ids()), default=1)


def _per_node_material(kg):
    return _PerNodeLabelIndex(kg), _per_node_max_degree(kg)


#: Cases the fixture graphs lack: a node with two labels whose label
#: literals were first stored in the other order (so that the label scan
#: and the per-node seek disagree where a scan follows insertion order, as
#: an overlay's delta does), a self-loop, a node with no label at all.
_EXTRAS = [
    Triple(IRI("ex:other"), IRI("ex:alias"), Literal("Zed")),
    Triple(IRI("ex:other"), IRI("ex:alias"), Literal("Alpha")),
    Triple(IRI("ex:twice"), RDFS_LABEL, Literal("Alpha")),
    Triple(IRI("ex:twice"), RDFS_LABEL, Literal("Zed")),
    Triple(IRI("ex:twice"), RDFS_LABEL, Literal("Twice (band)")),
    Triple(IRI("ex:twice"), IRI("ex:influencedBy"), IRI("ex:twice")),
    Triple(IRI("ex:twice"), IRI("ex:influencedBy"), IRI("ex:Unlabelled_Node")),
]
_LATE = [
    Triple(IRI("ex:late"), RDFS_LABEL, Literal("Late Arrival")),
    Triple(IRI("ex:late"), RDFS_LABEL, Literal("Latecomer")),
    Triple(IRI("ex:late"), IRI("ex:influencedBy"), IRI("ex:late")),
    Triple(IRI("ex:twice"), RDFS_LABEL, Literal("Twice again")),
]


def _composed(build, composition):
    # "dict" keeps the name the benchmark gives the builder's store; here
    # it is that frozen store with every extra triple in an overlay's delta.
    store = build().store.overlay()
    store.add_all(_EXTRAS)
    if composition == "dict":
        store.add_all(_LATE)
    elif composition == "compact":
        store.add_all(_LATE)
        store = store.compacted()
    elif composition == "sharded8":
        store.add_all(_LATE)
        store = store.sharded(8)
    else:  # a dirty overlay: the late triples sit in the delta
        store = store.compacted().overlay()
        store.add_all(_LATE)
        store.remove(_EXTRAS[-1])
    return KnowledgeGraph(store)


@pytest.mark.parametrize("composition", ["dict", "compact", "sharded8", "overlay"])
@pytest.mark.parametrize("build", [build_dbpedia_mini, build_yago_mini], ids=["dbpedia", "yago"])
def test_material_equals_the_per_node_reference(build, composition):
    kg = _composed(build, composition)
    linker = EntityLinker(kg)
    reference = _PerNodeLabelIndex(kg)
    assert linker.index.entries() == reference.entries()
    # The entry columns, the word table and the label table, column by column.
    assert linker.index.columns() == reference.columns()
    assert linker.index.word_postings() == reference.word_postings()
    assert linker.index.label_postings() == reference.label_postings()
    assert linker.max_degree == _per_node_max_degree(kg)
    twice = kg.id_of(IRI("ex:twice"))
    assert len([e for e in linker.index.entries() if e.node_id == twice]) >= 3
    assert kg.degree(twice) >= 6  # the self-loop counts at both ends


def test_max_degree_of_an_empty_graph_and_of_literal_hubs():
    assert EntityLinker(KnowledgeGraph(TripleStore())).max_degree == 1
    store = TripleStore()
    store.add_all(
        Triple(IRI(f"ex:n{i}"), IRI("ex:gender"), Literal("male")) for i in range(9)
    )
    # The literal has nine incident edges; it is not a node.
    assert EntityLinker(KnowledgeGraph(store)).max_degree == 1


class _Builds:
    """Counts ``LabelIndex._build`` runs."""

    def __init__(self, monkeypatch):
        self.count = 0
        original = LabelIndex._build

        def counting(index):
            self.count += 1
            original(index)

        monkeypatch.setattr(LabelIndex, "_build", counting)


class TestOncePerStoreVersion:
    def test_two_linkers_over_one_kernel_share_one_build(self, monkeypatch):
        builds = _Builds(monkeypatch)
        kg = build_dbpedia_mini()
        tracer = obs.Tracer()
        with obs.use_tracer(tracer):
            first, second = EntityLinker(kg), EntityLinker(kg, max_candidates=3)
        assert first.index is second.index
        assert first.max_degree == second.max_degree
        assert builds.count == 1
        assert tracer.metrics.counter("linking.material_built") == 1
        assert tracer.metrics.counter("linking.material_found") == 1
        assert tracer.summary()["spans"]["linking.index_build"]["count"] == 1

    def test_refresh_rebuilds(self, monkeypatch):
        builds = _Builds(monkeypatch)
        kg = KnowledgeGraph(build_dbpedia_mini().store.overlay())
        before = EntityLinker(kg)
        kg.store.add(Triple(IRI("ex:new"), RDFS_LABEL, Literal("Brand New Thing")))
        kg.refresh()
        after = EntityLinker(kg)
        assert builds.count == 2
        assert after.index is not before.index
        assert [c.label for c in after.link("brand new thing")] == ["Brand New Thing"]

    def test_a_write_without_refresh_rebuilds_too(self, monkeypatch):
        builds = _Builds(monkeypatch)
        kg = KnowledgeGraph(build_dbpedia_mini().store.overlay())
        kernel = kg.kernel
        before = EntityLinker(kg)
        hub = IRI("ex:hub")
        kg.store.add_all(Triple(hub, IRI("ex:linksTo"), IRI(f"ex:leaf{i}")) for i in range(500))
        after = EntityLinker(kg)
        assert kg.kernel is kernel  # same kernel, same region: the stamp decides
        assert builds.count == 2
        assert after.max_degree == 500 > before.max_degree
        assert EntityLinker(kg).index is after.index and builds.count == 2

    def test_incremental_refresh_starts_without_material(self, monkeypatch):
        builds = _Builds(monkeypatch)
        store = build_dbpedia_mini().store.compacted().overlay()
        kg = KnowledgeGraph(store)
        EntityLinker(kg)
        store.add(Triple(IRI("ex:new"), RDFS_LABEL, Literal("Brand New Thing")))
        kg.refresh(incremental=True)
        assert EntityLinker(kg).index.exact("brand new thing")
        assert builds.count == 2

    def test_given_index_and_max_degree_touch_neither_region_nor_store(self, monkeypatch):
        kg = build_dbpedia_mini()
        material = EntityLinker(kg)
        kg.refresh()
        kernel = kg.kernel
        builds = _Builds(monkeypatch)
        monkeypatch.setattr(
            type(kg.store), "triples_ids", lambda *a, **k: pytest.fail("the store was scanned")
        )
        linker = EntityLinker(kg, index=material.index, max_degree=material.max_degree)
        assert linker.index is material.index
        assert builds.count == 0
        assert kernel.cache_region("linking.material") == {}


class _PinnedClock(datetime.datetime):
    @classmethod
    def now(cls, tz=None):
        return datetime.datetime(2026, 1, 1, tzinfo=tz)


def _snapshot_files(directory, stem):
    return {path.name: path.read_bytes() for path in sorted(directory.glob(f"{stem}*"))}


@pytest.mark.parametrize("graph", ["synthetic20k", "dbpedia"])
def test_compiled_bytes_equal_those_from_per_node_material(graph, tmp_path, monkeypatch):
    """Single-file and 8-shard snapshots, material built the new way and the
    old (same process, so one hash seed; the creation stamp pinned)."""
    monkeypatch.setattr(snapshot_module, "datetime", _PinnedClock)
    if graph == "dbpedia":
        kg = build_dbpedia_mini()
        dictionary = ParaphraseMiner(kg, max_path_length=4, top_k=3).mine(build_phrase_dataset())
    else:
        kg = build_synthetic_kg(SyntheticConfig.with_total_triples(20_000))
        dictionary = ParaphraseDictionary()
    new, old = tmp_path / "new", tmp_path / "old"
    new.mkdir()
    old.mkdir()
    compile_snapshot(new / "single.snap", kg, dictionary)
    compile_snapshot(new / "sharded.snap", kg, dictionary, shards=8)
    monkeypatch.setattr(linker_module, "_material", _per_node_material)
    compile_snapshot(old / "single.snap", kg, dictionary)
    compile_snapshot(old / "sharded.snap", kg, dictionary, shards=8)
    assert len(_snapshot_files(new, "sharded")) == 10  # manifest, state, 8 segments
    assert _snapshot_files(new, "single") == _snapshot_files(old, "single")
    assert _snapshot_files(new, "sharded") == _snapshot_files(old, "sharded")
