"""Observability: spans, counters, histograms, trace export.

The instrument-first substrate every perf PR measures itself against.
Two implementations share one interface:

* :class:`Tracer` — records a tree of :class:`Span` objects (wall time via
  an injected monotonic clock, nested by with-block structure, arbitrary
  attributes) plus a :class:`Metrics` registry of counters and histograms.
* :class:`NoopTracer` — the zero-overhead default.  ``span()`` still
  measures its own duration (the pipeline's coarse stage timings read it),
  but records nothing: no span objects, no attributes, no metric values.

Components resolve their tracer lazily at the entry point of their main
method: an explicitly injected tracer wins, otherwise the process-wide
default (:func:`get_tracer`, a no-op unless :func:`set_tracer` /
:func:`use_tracer` installed a recording one).  See docs/observability.md
for the span-name and counter glossary and the JSON schema.

Single-threaded by design, like the rest of the reproduction: the span
stack is plain instance state.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.obs.metrics import Metrics, NoopMetrics
from repro.obs.tracer import NoopTracer, Span, Tracer

#: The process-wide zero-overhead default.
NOOP = NoopTracer()

_default: Tracer | NoopTracer = NOOP


def get_tracer() -> Tracer | NoopTracer:
    """The process-wide default tracer (a no-op unless one was installed)."""
    return _default


def set_tracer(tracer: Tracer | NoopTracer | None) -> Tracer | NoopTracer:
    """Install ``tracer`` as the process-wide default; returns the previous
    one so callers can restore it.  ``None`` reinstalls the no-op."""
    global _default
    previous = _default
    _default = tracer if tracer is not None else NOOP
    return previous


@contextmanager
def use_tracer(tracer: Tracer | NoopTracer):
    """Scoped :func:`set_tracer`: install for the with-block, then restore."""
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)


__all__ = [
    "Metrics",
    "NOOP",
    "NoopMetrics",
    "NoopTracer",
    "Span",
    "Tracer",
    "get_tracer",
    "set_tracer",
    "use_tracer",
]
