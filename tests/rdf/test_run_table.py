"""The permutation run tables against brute force.

A :class:`~repro.rdf.backend.CompactBackend` holds each permutation as
its distinct first keys, where each key's run starts, and the second and
third columns.  Every read must equal a scan of a plain Python set of the
same triples — built in memory, opened from a single-file snapshot, and
opened from a three-segment one — a value past the 4-byte limit must be
refused by name, never as an ``OverflowError``, and the order check the
open runs must agree with a row-by-row scan.
"""

from itertools import accumulate, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.exceptions import ColumnOverflowError, SnapshotError
from repro.paraphrase.dictionary import ParaphraseDictionary, PredicateMapping
from repro.rdf import IRI, CompactBackend, KnowledgeGraph, Triple, TripleStore, columns
from repro.rdf.snapshot import compile_snapshot, load_snapshot

_NODES, _PREDICATES = 6, 3

_ID_TRIPLES = st.sets(
    st.tuples(
        st.integers(0, _NODES - 1), st.integers(0, _PREDICATES - 1), st.integers(0, _NODES - 1)
    ),
    max_size=40,
)


def _assert_reads_equal(backend, triples: set, nodes: list[int], predicates: list[int]) -> None:
    """Every pattern shape, count and membership test, and the three
    vocabulary iterators of ``backend``, against a scan of ``triples``."""
    assert list(backend.triples_ids()) == sorted(triples)
    assert backend.count() == len(backend) == len(triples)
    for s, p, o in product([None, *nodes], [None, *predicates], [None, *nodes]):
        expected = {
            triple for triple in triples
            if (s is None or triple[0] == s)
            and (p is None or triple[1] == p)
            and (o is None or triple[2] == o)
        }
        assert set(backend.triples_ids(s, p, o)) == expected, (s, p, o)
        assert backend.count(s, p, o) == len(expected), (s, p, o)
        if None not in (s, p, o):
            assert backend.contains(s, p, o) == ((s, p, o) in triples)
    assert list(backend.subject_ids()) == sorted({s for s, _p, _o in triples})
    assert list(backend.predicate_ids()) == sorted({p for _s, p, _o in triples})
    assert list(backend.object_ids()) == sorted({o for _s, _p, o in triples})


@settings(max_examples=60, deadline=None, derandomize=True)
@given(triples=_ID_TRIPLES)
@example(triples=set())
@example(triples={(2, 0, 1), (2, 1, 1), (2, 1, 4), (2, 2, 0), (2, 2, 5)})  # one subject
@example(triples={(s, p, o) for s in (1, 4) for p in range(3) for o in range(6)})  # long runs
def test_built_run_tables_read_like_a_set(triples):
    backend = CompactBackend.from_triples(triples)
    # Ids absent from the triples are asked for too.
    _assert_reads_equal(backend, triples, list(range(_NODES + 1)), list(range(_PREDICATES + 1)))
    backend.check(_NODES)


def _graph(triples: set) -> KnowledgeGraph:
    store = TripleStore.build(
        Triple(IRI(f"ex:n{s}"), IRI(f"ex:p{p}"), IRI(f"ex:n{o}")) for s, p, o in triples
    )
    return KnowledgeGraph(store)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(triples=_ID_TRIPLES.filter(bool))
@example(triples={(2, 0, 1), (2, 1, 1), (2, 1, 4), (2, 2, 0), (2, 2, 5)})
@example(triples={(s, p, o) for s in (1, 4) for p in range(3) for o in range(6)})
def test_opened_run_tables_read_like_a_set(triples, tmp_path_factory):
    kg = _graph(triples)
    lookup = kg.store.dictionary.lookup
    expected = {
        (lookup(IRI(f"ex:n{s}")), lookup(IRI(f"ex:p{p}")), lookup(IRI(f"ex:n{o}")))
        for s, p, o in triples
    }
    ids = list(range(len(kg.store.dictionary) + 1))  # every term id, and one past them
    directory = tmp_path_factory.mktemp("runs")
    for shards in (None, 3):
        path = directory / f"{shards}.snap"
        compile_snapshot(path, kg, ParaphraseDictionary(), shards=shards)
        backend = load_snapshot(path).kg.store.backend
        _assert_reads_equal(backend, expected, ids, ids)


@pytest.mark.parametrize("value", [2**31, -(2**31) - 1, 2**40])
def test_an_id_past_four_bytes_is_refused_by_name(value):
    with pytest.raises(ColumnOverflowError, match=r"2\^31 - 1"):
        CompactBackend.from_triples([(0, 0, 1), (value, 0, 1)])


def test_a_compile_past_four_bytes_is_a_snapshot_error(tmp_path):
    """A step id past the limit in a mined path: the compile names the
    limit and leaves no file."""
    dictionary = ParaphraseDictionary()
    dictionary.add(("wrote",), [PredicateMapping((2**31,), 1.0)])
    path = tmp_path / "g.snap"
    with pytest.raises(SnapshotError, match=r"2\^31 - 1"):
        compile_snapshot(path, _graph({(0, 0, 1)}), dictionary)
    assert list(tmp_path.iterdir()) == []


def _runs_ascend_by_scan(rows: list[tuple[int, ...]], starts: list[int], strictly: bool) -> bool:
    return all(
        rows[row - 1] < rows[row] if strictly else rows[row - 1] <= rows[row]
        for begin, end in zip(starts, starts[1:])
        for row in range(begin + 1, end)
    )


# Runs of sorted rows one or two values wide (so most runs pass), each
# perhaps with one value changed; a length past one pass of rows crosses
# a pass boundary.
_VALUES = st.sampled_from([0, 1, 2, 7, 2**31 - 2, 2**31 - 1])


@st.composite
def _runs(draw):
    width = draw(st.sampled_from([1, 2]))
    row = st.tuples(*[_VALUES] * width)
    return draw(st.lists(st.lists(row, min_size=1, max_size=6).map(sorted), max_size=12))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(runs=_runs(),
       edit=st.none() | st.tuples(st.integers(0), st.integers(0, 1), st.sampled_from([0, 2**31 - 1])),
       strictly=st.booleans(), padding=st.sampled_from([0, columns._PASS_ROWS - 3]))
def test_runs_ascend_agrees_with_a_scan(runs, edit, strictly, padding):
    """The lane arithmetic of :func:`repro.rdf.columns.runs_ascend`, on
    owned and borrowed columns one or two wide (lexicographic rows),
    against a row-by-row scan."""
    rows = [list(row) for run in runs for row in run]
    if edit is not None and rows:
        row = rows[edit[0] % len(rows)]
        row[edit[1] % len(row)] = edit[2]
    width = len(rows[0]) if rows else 1
    # A first run of rising rows moves the others past the first pass.
    if padding:
        runs = [[()] * padding, *runs]
        rows = [[0] * (width - 1) + [value] for value in range(padding)] + rows
    starts = [0, *accumulate(map(len, runs))]
    expected = _runs_ascend_by_scan([tuple(row) for row in rows], starts, strictly)
    for build in (columns.owned_column, lambda values: columns.borrowed_column(columns.owned_column(values))):
        lanes = tuple(build([row[part] for row in rows]) for part in range(width))
        assert columns.runs_ascend(lanes, build(starts), strictly) is expected
