"""An opened snapshot held to a loaded one.

A snapshot is opened, not loaded: kernel rows are read from the file's
permutation runs when first asked for, term objects are built when first
decoded, terms are found by bisecting the record-sorted id column.  None
of that may be observable except through the laziness gauges — every
row, every term and every lookup must equal what a kernel and a
dictionary over the built store give — and the file under a reader must
never change.
"""

import gc

import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import SyntheticConfig, build_dbpedia_mini, build_synthetic_kg
from repro.paraphrase.dictionary import ParaphraseDictionary
from repro.rdf import IRI, RDF_TYPE, KnowledgeGraph, Literal, Triple, TripleStore
from repro.rdf import snapshot as snapshot_module
from repro.rdf.kernel import _EMPTY_ROW, AdjacencyKernel
from repro.rdf.snapshot import compile_snapshot, load_snapshot

from .row_oracle import oracle_directory, oracle_rows

SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.fixture(params=["synthetic", "dbpedia_mini"], scope="module")
def source(request):
    if request.param == "synthetic":
        return build_synthetic_kg(
            SyntheticConfig(entities=200, triples_per_entity=4, predicates=12)
        )
    return build_dbpedia_mini()


@pytest.fixture(scope="module")
def opened(source, tmp_path_factory):
    path = tmp_path_factory.mktemp("opened") / "graph.snap"
    compile_snapshot(path, source, ParaphraseDictionary())
    return load_snapshot(path)


# --------------------------------------------------------------------- #
# (a) The row mapping
# --------------------------------------------------------------------- #

class TestRowMapping:
    def test_equal_to_the_cold_rows_in_both_operand_orders(self, source, opened):
        cold = AdjacencyKernel(source.store)
        rows = AdjacencyKernel(opened.kg.store).full_rows()
        plain = oracle_rows(source.store, cold.structural_predicate_ids)
        assert rows == plain and plain == rows
        assert rows == cold.full_rows() and cold.full_rows() == rows
        assert not rows != plain and not plain != rows
        del plain[next(iter(plain))]
        assert rows != plain and plain != rows

    def test_every_row_is_there_while_only_the_touched_are_boxed(self, source, opened):
        cold = AdjacencyKernel(source.store)
        kernel = AdjacencyKernel(opened.kg.store)
        rows, expected = kernel.full_rows(), cold.full_rows()
        assert type(rows) is dict and len(rows) == len(expected) > 3
        assert rows == expected
        # Reading every row memoizes none of them.
        assert kernel.statistics()["rows_boxed"] == 0
        assert cold.statistics()["rows_boxed"] == 0
        touched = sorted(expected)[:3]
        for node in touched:
            assert kernel.adjacency(node) == expected[node]
            assert kernel.adjacency(node) is kernel._full[node]  # the second read: a hit
        assert kernel.statistics()["rows_boxed"] == 3
        assert sorted(kernel._full) == touched

    def test_a_node_without_a_row_reads_empty_and_stores_nothing(self, source, opened):
        cold = AdjacencyKernel(source.store)
        kernel = AdjacencyKernel(opened.kg.store)
        absent = max(cold.full_rows()) + 1
        for memo in (kernel._full, cold._full):
            assert memo[absent] is _EMPTY_ROW
            assert absent not in memo and not memo
        assert absent not in kernel.full_rows()
        assert kernel.adjacency(absent) is _EMPTY_ROW
        assert kernel.statistics()["rows_boxed"] == 0

    def test_statistics_equal_the_cold_kernels(self, source, opened):
        cold = AdjacencyKernel(source.store)
        kernel = AdjacencyKernel(opened.kg.store)
        sizes = ("nodes_full", "nodes_entity", "edge_slots_full", "edge_slots_entity")
        assert [kernel.statistics()[key] for key in sizes] == [
            cold.statistics()[key] for key in sizes
        ]
        # Counting reads the permutation runs: no row boxed, no entity row
        # derived.
        assert kernel.statistics()["rows_boxed"] == 0
        assert not kernel._entity and not cold._entity

    def test_eight_threads_boxing_the_same_rows(self):
        kg = build_synthetic_kg(
            SyntheticConfig(entities=1200, triples_per_entity=3, predicates=8)
        )
        cold = AdjacencyKernel(kg.store)
        kernel = AdjacencyKernel(kg.store)
        nodes = sorted(cold.full_rows())[:1000]
        assert len(nodes) == 1000
        seen: list = [None] * 8
        failures: list[BaseException] = []
        start = threading.Barrier(8)

        def box(slot):
            try:
                start.wait(timeout=30)
                seen[slot] = [kernel.adjacency(node) for node in nodes]
            except BaseException as exc:  # noqa: BLE001 - reported below
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=box, args=(slot,)) for slot in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures
        expected = [cold.adjacency(node) for node in nodes]
        assert all(rows == expected for rows in seen)
        assert kernel.statistics()["rows_boxed"] == 1000


# --------------------------------------------------------------------- #
# (b) Random graphs: store reads == the oracle, before and after a patch
# --------------------------------------------------------------------- #

_NODES = [IRI(f"x:n{i}") for i in range(6)]
_PREDICATES = [IRI("x:p0"), IRI("x:p1"), RDF_TYPE]
_OBJECTS = _NODES + [Literal("l0"), Literal("l1", language="en")]
_triples = st.builds(
    Triple, st.sampled_from(_NODES), st.sampled_from(_PREDICATES), st.sampled_from(_OBJECTS)
)


def assert_same_reads(kernel, store):
    """Every read of ``kernel`` against the sort-and-scan oracle."""
    rows = oracle_rows(store, kernel.structural_predicate_ids)
    directory = oracle_directory(rows)
    ids = range(len(store.dictionary) + 1)
    for node in ids:
        steps, neighbors = rows.get(node, ((), ()))
        entity = [(s, n) for s, n in zip(steps, neighbors) if not store.is_literal_id(n)]
        assert kernel.adjacency(node) == (steps, neighbors)
        assert list(zip(*kernel.entity_adjacency(node))) == entity
        assert kernel.incident_steps(node) == frozenset(steps)
    for pid in ids:
        for step in (pid + 1, -(pid + 1)):
            assert kernel.nodes_with_step(step) == directory.get(step, set())


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(_triples, max_size=14), st.lists(_triples, min_size=1, max_size=5),
       st.lists(_triples, max_size=3))
def test_opened_kernel_reads_like_the_cold_one_before_and_after_a_patch(base, adds, removes):
    source = TripleStore()
    for term in _NODES + _PREDICATES + _OBJECTS:  # fixed ids, fixed structural set
        source.dictionary.encode(term)
    source.add_all(base)
    frozen = source.compacted()
    assert_same_reads(AdjacencyKernel(frozen), frozen)

    kg = KnowledgeGraph(frozen.overlay())
    stale = kg.kernel
    for node in range(len(frozen.dictionary)):
        stale.adjacency(node)  # every row boxed before the write
    before = kg.store.version
    for triple in removes:
        kg.store.remove(triple)
    kg.store.add_all(adds)
    touched = kg.store.backend.touched_since(before)
    kg.refresh(incremental=True)
    patched = kg.kernel
    # The patch carried every boxed row the write did not touch, by
    # reference, and read none afresh.
    carried = [node for node in stale._full if node not in touched]
    assert patched.statistics()["rows_boxed"] == len(carried)
    assert all(patched.adjacency(node) is stale.adjacency(node) for node in carried)
    assert_same_reads(patched, kg.store)

    # A second batch patches the patch: still flat, still equal.
    kg.store.add_all(removes)
    kg.refresh(incremental=True)
    assert kg.kernel.full_rows() == oracle_rows(kg.store, patched.structural_predicate_ids)
    assert all(referent is not patched._full for referent in gc.get_referents(kg.kernel._full))


def test_add_remove_churn_leaves_nothing_on_the_patched_kernel():
    """A node added and removed again is forgotten: what a patched kernel
    carries is bounded by the graph, not by its history."""
    frozen = build_dbpedia_mini().store.compacted()
    kg = KnowledgeGraph(frozen.overlay())
    expected = oracle_rows(frozen, kg.kernel.structural_predicate_ids)
    for node in expected:
        kg.kernel.adjacency(node)
    berlin = IRI("res:Berlin")
    for round_ in range(3):
        fresh = [
            Triple(IRI(f"x:churn{round_}/{i}"), IRI("x:rel"), IRI(f"x:churn{round_}/{i + 1}"))
            for i in range(5)
        ] + [Triple(IRI(f"x:churn{round_}/0"), IRI("x:rel"), berlin)]
        kg.store.add_all(fresh)
        kg.refresh(incremental=True)
        berlin_id = kg.store.dictionary.lookup(berlin)
        assert berlin_id not in kg.kernel._full  # touched: read afresh
        assert len(kg.kernel.adjacency(berlin_id)[0]) == len(expected[berlin_id][0]) + 1
        for triple in fresh:
            kg.store.remove(triple)
        kg.refresh(incremental=True)
        assert set(kg.kernel._full) < set(expected)  # no churn node carried
        assert kg.kernel.full_rows() == expected


# --------------------------------------------------------------------- #
# (c) The term table
# --------------------------------------------------------------------- #

class TestTermTable:
    def test_every_term_is_found_where_it_decodes(self, source, opened):
        terms = opened.kg.store.dictionary
        expected = source.store.dictionary.terms_in_id_order()
        assert len(terms) == len(expected)
        for term_id, term in enumerate(expected):
            assert terms.decode(term_id) == term
            assert terms.lookup(terms.decode(term_id)) == term_id
            assert terms.lookup_or_none(term) == term_id
            assert term in terms

    def test_absent_terms_are_not_found(self, source, opened):
        terms = opened.kg.store.dictionary
        present = source.store.dictionary.terms_in_id_order()
        literal = next(term for term in present if isinstance(term, Literal))
        absent = [
            IRI("x:never-stored"),
            Literal(""),
            Literal("never stored"),
            Literal(literal.lexical, language="zz"),
            Literal(literal.lexical, datatype=IRI("x:datatype")),
            IRI(literal.lexical) if literal.lexical else IRI("x:empty"),
        ]
        for term in absent:
            assert term not in source.store.dictionary
            assert terms.lookup_or_none(term) is None
            assert term not in terms

    def test_empty_and_qualified_literals_round_trip(self, tmp_path):
        store = TripleStore()
        objects = [
            Literal(""), Literal("", language="en"), Literal("", datatype=IRI("x:d")),
            Literal("a"), Literal("a", language="en"), Literal("a", datatype=IRI("x:d")),
            Literal("en"), IRI("a"), Literal("ü\x00b"),
        ]
        store.add_all(Triple(IRI("x:s"), IRI("x:p"), obj) for obj in objects)
        compile_snapshot(tmp_path / "g.snap", KnowledgeGraph(store), ParaphraseDictionary())
        terms = load_snapshot(tmp_path / "g.snap").kg.store.dictionary
        for obj in objects:
            assert terms.decode(terms.lookup(obj)) == obj
            assert terms.lookup(obj) == store.dictionary.lookup(obj)
        assert terms.terms_in_id_order() == store.dictionary.terms_in_id_order()

    def test_new_terms_go_behind_the_base_and_survive_a_recompile(self, source, tmp_path):
        first = tmp_path / "first.snap"
        compile_snapshot(first, source, ParaphraseDictionary())
        state = load_snapshot(first)
        terms = state.kg.store.dictionary
        base = len(terms)
        known = source.store.dictionary.decode(0)
        assert terms.encode(known) == 0  # a base term: found, not appended
        fresh = [IRI("x:fresh0"), Literal("fresh", language="en"), IRI("x:fresh1")]
        assert [terms.encode(term) for term in fresh] == [base, base + 1, base + 2]
        assert [terms.encode(term) for term in fresh] == [base, base + 1, base + 2]
        assert [terms.lookup(term) for term in fresh] == [base, base + 1, base + 2]
        assert terms.statistics()["terms_total"] == base + 3

        from repro.serve import QAEngine

        engine = QAEngine(state.kg, state.dictionary, base_linker=state.build_linker())
        try:
            engine.ingest([Triple(IRI("x:fresh0"), IRI("x:rel"), IRI("x:fresh1"))])
            second = tmp_path / "second.snap"
            engine.compact(snapshot_path=str(second))
            reopened = load_snapshot(second)
            assert (
                reopened.kg.store.dictionary.terms_in_id_order()
                == engine.kg.store.dictionary.terms_in_id_order()
            )
            assert sorted(reopened.kg.store.triples_ids()) == sorted(
                engine.kg.store.triples_ids()
            )
            assert reopened.kg.kernel.full_rows() == engine.kg.kernel.full_rows()
            assert reopened.kg.store.dictionary.lookup(IRI("x:rel")) == base + 3
        finally:
            engine.close()

    def test_warming_decodes_next_to_nothing(self, opened):
        from repro.serve import QAEngine

        opened = load_snapshot(opened.info.path)  # nobody has read this one
        engine = QAEngine(opened.kg, opened.dictionary, base_linker=opened.build_linker())
        try:
            report = engine.warm()
        finally:
            engine.close()
        assert report["rows_boxed"] == 0
        # The kernel probes its structural vocabulary by record; finding
        # an id builds no term.
        assert report["store"]["terms_decoded"] <= 3
        assert report["store"]["terms_total"] == len(opened.kg.store.dictionary)
        assert report["store"]["snapshot_mapped_bytes"] == len(opened.mapping)


# --------------------------------------------------------------------- #
# Publication: a reader's file never changes under it
# --------------------------------------------------------------------- #

_READER = """
import hashlib, sys
from repro.rdf.snapshot import load_snapshot

state = load_snapshot(sys.argv[1])

def digest():
    seen = hashlib.sha256()
    for triple in state.kg.store.triples_ids():
        seen.update(repr(triple).encode())
    for node, row in sorted(state.kg.kernel.full_rows().items()):
        seen.update(repr((node, row)).encode())
    return seen.hexdigest()

print(digest(), flush=True)
sys.stdin.readline()
print(digest(), flush=True)
"""


@pytest.mark.parametrize("shards", [None, 2])
def test_recompiling_onto_a_snapshot_a_reader_has_open(tmp_path, shards):
    """The reader keeps the bytes it opened (truncating the file in place
    killed it with SIGBUS) and the path holds the new snapshot."""
    path = tmp_path / "live.snap"
    old = build_synthetic_kg(SyntheticConfig(entities=300, triples_per_entity=3))
    new = build_synthetic_kg(SyntheticConfig(entities=200, triples_per_entity=2, seed=9))
    compile_snapshot(path, old, ParaphraseDictionary(), shards=shards)
    reader = subprocess.Popen(
        [sys.executable, "-c", _READER, str(path)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    try:
        before = reader.stdout.readline().strip()
        assert len(before) == 64
        compile_snapshot(path, new, ParaphraseDictionary(), shards=shards)
        reader.stdin.write("again\n")
        reader.stdin.flush()
        after = reader.stdout.readline().strip()
        assert reader.wait(timeout=60) == 0
    finally:
        reader.kill()
        reader.wait(timeout=60)
    assert after == before
    assert len(load_snapshot(path).kg.store) == len(new.store) != len(old.store)
    assert not list(tmp_path.glob("*.tmp"))


@pytest.mark.parametrize("shards", [None, 2])
def test_a_compile_that_raises_leaves_what_was_there(tmp_path, monkeypatch, shards):
    path = tmp_path / "kept.snap"
    kg = build_dbpedia_mini()
    compile_snapshot(path, kg, ParaphraseDictionary(), shards=shards)
    before = {member.name: member.read_bytes() for member in tmp_path.iterdir()}

    def failing(out, sections, meta):
        out.write(b"half a file")
        raise OSError("disk full")

    monkeypatch.setattr(snapshot_module, "_write_container", failing)
    with pytest.raises(OSError, match="disk full"):
        compile_snapshot(path, kg, ParaphraseDictionary(), shards=shards)
    assert {member.name: member.read_bytes() for member in tmp_path.iterdir()} == before


def test_a_process_start_imports_only_what_it_runs():
    """The fork pools, the HTTP client and the HTTP server's stack are
    imported where they are used, not by every ``import repro.serve``:
    an in-process engine loads none of them, and every exported name
    still resolves (the transport's on first access)."""
    probe = (
        "import sys; from repro.serve import QAEngine; "
        "print([name for name in ('multiprocessing', 'concurrent.futures', "
        "'urllib.request', 'http.server', 'http.client', 'ssl', 'email.parser', "
        "'socketserver') if name in sys.modules]); "
        "import repro.serve; "
        "print(all(getattr(repro.serve, name) is not None for name in repro.serve.__all__))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["[]", "True"]


def test_a_serving_process_loads_no_http_client_stack():
    """The server reads and writes its own heads: importing the transport,
    the pre-fork supervisor and the CLI loads no HTTP library, and so no
    HTTP client, ``email`` parser or TLS module behind one.  (The pre-fork
    metrics fan-in and ``repro compact`` import ``urllib`` when they run.)"""
    probe = (
        "import sys; import repro.serve.server, repro.serve.prefork, repro.cli; "
        "print([name for name in ('http.server', 'http.client', 'email.parser', 'ssl') "
        "if name in sys.modules])"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["[]"]
