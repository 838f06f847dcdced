"""The one integer width: every integer column is 4-byte signed.

The permutation run tables (:mod:`repro.rdf.backend`), the term table
(:mod:`repro.rdf.dictionary`), the label index
(:mod:`repro.linking.index`) and the in-line path arrays of a snapshot's
paraphrase records all hold their ids, offsets and run starts in this
width.  This module is the only place it is spelled: a column is built
by :func:`owned_column`, cast over a mapping by :func:`borrowed_column`
and checked at open by the rules here.  A value past
:data:`COLUMN_LIMIT` is a :class:`~repro.exceptions.ColumnOverflowError`
when a column is built, never an ``OverflowError``.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_left
from itertools import islice
from operator import lt
from typing import Iterable

from repro.exceptions import ColumnOverflowError

#: A 4-byte signed integer column: an owned ``array('i')`` or a borrowed
#: ``memoryview`` (format ``'i'``) over a snapshot mapping.  Both support
#: ``len``, indexing, slicing, iteration, and ``tobytes()`` — everything
#: the bisect seeks and the snapshot writer need.
IntColumn = array | memoryview

#: The item format of every integer column, and its unsigned reading.
_SIGNED, _UNSIGNED = "i", "I"
#: The bytes an item of an integer column takes.
WIDTH = 4
#: The top bit of an item: :func:`runs_ascend` reads it as "this value
#: did not fall".
_GUARD = 1 << (8 * WIDTH - 1)
#: The rows :func:`runs_ascend` reads in one pass (its integers stay 8 KB).
_PASS_ROWS = 2048
#: The largest value an integer column holds.  Every integer column a
#: snapshot ships is 4-byte signed: term ids, offsets and run starts.
COLUMN_LIMIT = 2**31 - 1


def owned_column(values: Iterable[int] = ()) -> array:
    """``values`` as an owned 4-byte column; :class:`ColumnOverflowError`
    (never ``OverflowError``) if one of them does not fit."""
    try:
        return array(_SIGNED, values)
    except OverflowError:
        raise ColumnOverflowError(
            f"a value does not fit a 4-byte integer column: the limit is "
            f"2^31 - 1 = {COLUMN_LIMIT}"
        ) from None


def borrowed_column(buffer) -> memoryview:
    """The bytes of ``buffer`` read as a 4-byte column in place, no copy;
    ``ValueError`` if their length is not a multiple of 4."""
    view = memoryview(buffer).cast("B")
    if len(view) % WIDTH:
        raise ValueError(f"an integer column's length is not a multiple of {WIDTH}")
    return view.cast(_SIGNED)


def strictly_ascending(column: IntColumn) -> bool:
    """Whether every value of ``column`` exceeds the one before it (what a
    reader checks of a snapshot column it is about to bisect)."""
    return all(map(lt, column, islice(column, 1, None)))


def ids_below(column: IntColumn, bound: int) -> bool:
    """Whether every value of ``column`` lies in ``[0, bound)``: one
    ``max`` over its bytes read as unsigned, where a negative value reads
    as one past every bound a column can hold."""
    return not column or max(memoryview(column).cast("B").cast(_UNSIGNED)) < bound


def run_starts_rise(starts: IntColumn, rows: int) -> bool:
    """Whether ``starts`` begins at 0, rises strictly and ends at
    ``rows``: the starts of runs that are none of them empty and together
    cover ``rows`` rows (what a reader checks of a run table)."""
    return len(starts) > 0 and starts[0] == 0 and starts[-1] == rows and strictly_ascending(starts)


def runs_ascend(
    columns: tuple[IntColumn, ...], starts: IntColumn, strictly: bool = False
) -> bool:
    """Whether every run of the rows ``columns`` make side by side — rows
    ``starts[i]:starts[i + 1]`` for ``starts`` that rise — ascends in
    lexicographic order (the first column first), strictly or with ties:
    wherever a row falls (or, ``strictly``, does not rise) a run must
    start.  So a row of ``(second, third)`` passes where ``second`` rose,
    or where it is equal and ``third`` rose (rose strictly, ``strictly``).
    Every value must lie in ``[0, 2^31)``: check that first
    (:func:`ids_below`).

    Each column is read :data:`_PASS_ROWS` rows at a time as one integer
    whose 4-byte lanes are its values, so no Python step is taken per
    row.  Each lane of ``rows + 2^31 - previous rows`` lies in
    ``(0, 2^32)`` and so borrows nothing from the lane above: its top bit
    is set exactly where the value did not fall, and, one subtracted from
    every lane, exactly where it rose.  A row is accepted where a run
    starts (a mask beside it, one Python step per run) or where a column
    rose after every column before it stayed equal (or, not ``strictly``,
    where every column stayed equal).
    """
    order = sys.byteorder
    data = [memoryview(column).cast("B") for column in columns]
    last = len(data) - 1
    rows = len(data[0]) // WIDTH
    lanes = 0
    for low in range(1, rows, _PASS_ROWS):  # row 0 has no row before it
        high = min(low + _PASS_ROWS, rows)
        if high - low != lanes:
            lanes = high - low
            guards = int.from_bytes(_GUARD.to_bytes(WIDTH, order) * lanes, order)
            ones = int.from_bytes((1).to_bytes(WIDTH, order) * lanes, order)
        mask = bytearray(lanes * WIDTH)
        starting = memoryview(mask).cast(_UNSIGNED)
        for start in starts[bisect_left(starts, low):bisect_left(starts, high)]:
            starting[start - low] = _GUARD
        accepted = int.from_bytes(mask, order)
        equal = guards  # the lanes whose earlier columns all stayed equal
        for position, column in enumerate(data):
            held = (
                int.from_bytes(column[low * WIDTH:high * WIDTH], order)
                + guards
                - int.from_bytes(column[(low - 1) * WIDTH:(high - 1) * WIDTH], order)
            )
            rose = (held - ones) & guards
            if position == last:
                accepted |= equal & (rose if strictly else held)
            else:
                accepted |= equal & rose
                equal &= (held & guards) ^ rose
        if accepted & guards != guards:
            return False
    return True
