"""``KeyTable.check``'s run rule, and what checking costs in memory.

The rule: wherever the position column does not rise, a new run must
begin.  It was a set expression (:func:`set_rule`, transcribed here); the
check is now a merge walk over the descents and the run starts, and a
Hypothesis oracle holds the walk to the expression over generated tables
— descents on and off run boundaries, repeated positions, single-entry
runs.  A ``tracemalloc`` pin holds the whole check on a 10^5-position
table under 100 KB: a count, not a timing.  Two sets of boxed ints (or a
``str`` of the key blob) do not fit under it.
"""

import tracemalloc
from array import array
from itertools import accumulate, chain, compress, count
from operator import ge

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.linking.index import KeyTable

ENTRIES = 12


def set_rule(positions, starts) -> bool:
    """The rule as the set expression it was checked by before."""
    return set(compress(count(1), map(ge, positions, positions[1:]))) <= set(starts)


def table(runs, entries=ENTRIES) -> KeyTable:
    """A table filing ``runs`` (position lists, in order) under ascending keys."""
    keys = [f"k{i:06d}".encode("ascii") for i in range(len(runs))]
    return KeyTable(
        memoryview(array("i", accumulate(map(len, keys), initial=0))),
        memoryview(b"".join(keys)),
        memoryview(array("i", accumulate(map(len, runs), initial=0))),
        memoryview(array("i", chain.from_iterable(runs))),
    )


runs = st.lists(
    st.one_of(
        # An ascending run: every descent inside the column is at its start.
        st.lists(st.integers(0, ENTRIES - 1), min_size=1, max_size=5, unique=True).map(sorted),
        # Any run: repeats and descents inside it break the rule.
        st.lists(st.integers(0, ENTRIES - 1), min_size=1, max_size=5),
    ),
    max_size=8,
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(runs=runs)
@example(runs=[])
@example(runs=[[3]])
@example(runs=[[5], [2], [2], [0, 1]])  # descents and a repeat, all on boundaries
@example(runs=[[1, 4], [0, 4, 4]])  # a repeat inside a run
@example(runs=[[0, 2, 1]])  # a descent off every boundary
def test_the_walk_keeps_the_set_rule(runs):
    keys = table(runs)
    if set_rule(keys.positions, keys.starts):
        keys.check(ENTRIES)
    else:
        with pytest.raises(ValueError, match="not ascending"):
            keys.check(ENTRIES)


def test_checking_a_large_table_allocates_almost_nothing():
    """10^5 positions in 2×10^4 runs of five, half of them starting
    below where the run before ended: the traced peak of ``check`` stays
    under 100 KB (the set expression alone traced ~4 MB)."""
    runs = [
        [base + step * 7 for step in range(5)]
        for base in (i % 2 * 50_000 + i // 2 for i in range(20_000))
    ]
    keys = table(runs, entries=100_000)
    assert len(keys.positions) == 100_000 and len(keys.keys) > 100_000
    tracemalloc.start()
    try:
        keys.check(100_000)
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000, peak


def test_a_key_that_is_not_ascii_is_refused():
    keys = table([[0], [1]])
    blob = bytearray(keys.keys)
    blob[-1] = 0xE9
    with pytest.raises(ValueError, match="not ASCII"):
        KeyTable(keys.offsets, memoryview(blob), keys.starts, keys.positions).check(ENTRIES)
