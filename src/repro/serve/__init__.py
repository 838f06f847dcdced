"""Resident serving layer over the GAnswer pipeline.

The paper splits work into an offline phase (paraphrase-dictionary
mining) and an online phase that must answer interactively (Section 1,
Table 11).  This package is the online phase as a *service*: one warm
:class:`QAEngine` holding the knowledge graph, dictionary, linker index
and adjacency kernel, answering each question on the thread that asked
it under a bounded number of answering slots, admission control and
per-request deadlines, with answer/link caches that outlive the writes
they did not read, and a stdlib-only JSON HTTP transport (:mod:`repro.serve.server`).

Entry points: ``repro serve`` (CLI), :func:`QAEngine.ask` (in-process);
measured by the ``http_*`` workloads of ``bench/run.py``.
"""

import importlib

from repro.serve.admission import AdmissionController, AdmissionRejected
from repro.serve.cache import CachingLinker, LRUCache
from repro.serve.engine import EngineConfig, QAEngine

#: The transport's exports, by the module that defines them.  They are
#: imported on first access: an in-process engine never loads the HTTP
#: stack (``http.server``, ``http.client``, ``ssl``, ``email``, …).
_TRANSPORT = {
    "PreforkServer": "repro.serve.prefork",
    "supports_reuseport": "repro.serve.prefork",
    "QAServer": "repro.serve.server",
    "build_server": "repro.serve.server",
}


def __getattr__(name: str):
    module = _TRANSPORT.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


__all__ = [
    "AdmissionController",
    "AdmissionRejected",
    "CachingLinker",
    "EngineConfig",
    "LRUCache",
    "PreforkServer",
    "QAEngine",
    "QAServer",
    "build_server",
    "supports_reuseport",
]
