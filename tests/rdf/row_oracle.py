"""The reference kernel rows: one sort and one scan of every triple.

This is how kernel rows were built before they became store reads, kept
as the oracle the reads are held to.  Each non-structural triple, in
sorted SPO order, appends a forward step to its subject's row and a
backward step to its object's row (a self-loop contributes the pair
adjacently), so a node's row accumulates in ascending *source subject*
order.  It shares nothing with :mod:`repro.rdf.kernel` but the store's
full scan.
"""

from collections import defaultdict


def oracle_rows(store, structural):
    """node → ``(steps, neighbors)`` for every node with a row."""
    rows = defaultdict(lambda: ([], []))
    for s, p, o in sorted(store.triples_ids()):
        if p in structural:
            continue
        forward = rows[s]
        forward[0].append(p + 1)
        forward[1].append(o)
        backward = rows[o]
        backward[0].append(-(p + 1))
        backward[1].append(s)
    return {node: (tuple(steps), tuple(nbrs)) for node, (steps, nbrs) in sorted(rows.items())}


def oracle_directory(rows):
    """signed step → the nodes whose oracle row carries it."""
    carriers = defaultdict(set)
    for node, (steps, _neighbors) in rows.items():
        for step in steps:
            carriers[step].add(node)
    return dict(carriers)
