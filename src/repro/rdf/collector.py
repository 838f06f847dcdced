"""A scoped pause of the cycle collector for the bulk builders.

Loading a dump, freezing a store, mining and encoding a snapshot each
allocate hundreds of thousands of containers that reference only ints,
strings and one another, acyclically.
Reference counts free whatever dies; the cycle collector can only walk
the growing heap again and again and find nothing (12 full collections
and 2.4 s of a 9 s build at 2×10^5 triples — ``docs/performance.md``,
§ Offline build).  The builders therefore run inside
:func:`collector_paused`, and the first collection after the pause sees
whatever is left.
"""

from __future__ import annotations

import contextlib
import gc
from typing import Iterator


@contextlib.contextmanager
def collector_paused() -> Iterator[None]:
    """Run the body with automatic cycle collection off; turn it back on
    afterwards — also when the body raises — only if it was on before.

    The switch is process-wide.  While a server folds an ``/ingest``
    batch (~0.05 ms) or compacts in line (tens of ms), no thread of the
    process triggers a collection; garbage in cycles waits until the
    pause ends.  Two overlapping pauses cannot leave the collector off:
    whoever saw it enabled re-enables it, and the other then merely runs
    the rest of its body unpaused.  A host application that runs with
    the collector disabled is left that way.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
