"""tf-idf scoring of predicate paths (Definition 4).

For a relation phrase ``rel`` with path sets ``PS(rel) = ⋃_j Path(v_j, v'_j)``:

* ``tf(L, PS(rel))``  — the number of supporting pairs whose path set
  contains L (how characteristic L is for this phrase);
* ``idf(L, T)``       — ``log(|T| / (|{rel : L ∈ PS(rel)}| + 1))`` over the
  whole phrase dictionary (how discriminative L is globally);
* ``tf-idf = tf × idf`` — Equation (1)'s confidence before normalization.

The idf term is what kills generic noise paths: (hasGender, hasGender)
connects the entity pair of nearly every person-person phrase, so its idf
approaches ``log(|T|/|T|) = 0``.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping

Path = tuple[int, ...]
#: path sets per supporting pair: one set of paths per pair.
PairPathSets = list[set[Path]]


def tf_value(path: Path, pair_path_sets: PairPathSets) -> int:
    """Number of supporting pairs whose path set contains ``path``."""
    return sum(1 for path_set in pair_path_sets if path in path_set)


def document_frequencies(
    all_phrase_paths: Mapping[str, Iterable[Path]],
) -> dict[Path, int]:
    """``path → |{rel : path ∈ PS(rel)}|`` in one pass over the dictionary.

    The idf denominator for every candidate path at once: scoring a whole
    mining run needs the count for each (phrase, path) combination, and
    recomputing it per lookup is quadratic in the dictionary size.
    """
    counts: dict[Path, int] = {}
    for paths in all_phrase_paths.values():
        for path in set(paths):
            counts[path] = counts.get(path, 0) + 1
    return counts


def smoothed_idf_from_count(containing: int, total: int) -> float:
    """idf with add-one smoothing on |T|: ``log((|T|+1) / (count+1))``,
    from a precomputed document frequency ``count`` of a path over the
    ``total`` = |T| phrases.

    Definition 4's idf is ``log(|T|/(count+1))``, which is ≤ 0 whenever a
    path is unique to one phrase in a *small* dictionary (|T| = 2 →
    log(2/2) = 0).  At the paper's scale (350 k–1.6 M phrases) the two
    formulas are indistinguishable; the smoothed form keeps the intended
    ordering — unique paths positive, ubiquitous paths at zero — at any
    corpus size, so the miner uses it.
    """
    if total == 0:
        return 0.0
    return math.log((total + 1) / (containing + 1))


def idf_value(path: Path, all_phrase_paths: Mapping[str, Iterable[Path]]) -> float:
    """idf of ``path`` over the phrase dictionary T (Definition 4)."""
    total = len(all_phrase_paths)
    if total == 0:
        return 0.0
    containing = sum(
        1 for paths in all_phrase_paths.values() if path in set(paths)
    )
    return math.log(total / (containing + 1))


def tf_idf_value(
    path: Path,
    pair_path_sets: PairPathSets,
    all_phrase_paths: Mapping[str, Iterable[Path]],
) -> float:
    """tf-idf of ``path`` for one phrase against the whole dictionary."""
    return tf_value(path, pair_path_sets) * idf_value(path, all_phrase_paths)
