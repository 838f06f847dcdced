"""Serving-layer caches: the LRU answer cache and entity-link cache.

**The contract: an entry is served only if recomputing it now would give
the same value.**  A key names *what was asked* — the question exactly as
received, or the mention phrase — and nothing about the store; what the
entry depends on travels with the value, as a :class:`Stamped` triple
``(value, version, scope)``:

* ``version`` is the engine's published store version, read *before* the
  value was computed;
* ``scope`` is the :class:`~repro.match.candidates.ReadScope` the
  computation reported — the predicate ids and label-index posting keys
  its graph reads are confined to (a link list's scope is words only).

The writer keeps the other half.  ``QAEngine.ingest``, once its batch is
applied and the graph refreshed, files the batch's *final* version in
:class:`ReadStamps` under every predicate of the batch (adds and removes
alike) and under every posting key of every subject and object, and only
then publishes that version.  A lookup serves an entry iff no stamp in its
scope is newer than its version — a handful of integer compares.  An
entry that fails is dropped and counted as a miss (``{name}.stale``); the
recomputation files its successor under the same key, so no dead
generation is ever resident and nothing needs sweeping.  A read that
overlapped a conflicting batch can never be served: it took its version
before the batch published, and the stamp carries the batch's last.

Why predicates and words suffice — every graph read of one answer, once
phrase mapping has fixed C_v and C_e (Definition 3, Section 4.2):

==============================================  ==========================
read                                            confined to
==============================================  ==========================
``kernel.walk_path(node, path)``                predicates of C_e paths
``kernel.incident_steps(node)`` ∩ first steps   predicates of C_e paths
``kernel.nodes_with_step(step)`` (all-wildcard) predicates of C_e paths
``kg.instances_of`` / ``kg.has_type``           ``rdf:type``, ``rdfs:subClassOf``
``kg.degree(node)`` in the linker               nodes filed under a posting
                                                key of the mention
``kg.term_of`` / ``store.is_literal_id``        nothing: ids are stable
==============================================  ==========================

The label index, the linker's ``max_degree`` and the paraphrase
dictionary are fixed for an engine's lifetime and are read freely.

What (predicates, words) cannot say stays bound to its version, exactly
as when the version was part of the key:

* an answer post-processed by ``--aggregation`` (it picks predicates by
  local name) and a candidate path that can start with a structural
  predicate (an all-wildcard search then seeds from every node) carry
  ``scope=None`` and die with the next published version;
* a batch that changes the structural vocabulary, and any store version
  the engine did not publish itself (a direct store mutation followed by
  ``QAEngine.refresh``), raise a *floor* below which every entry is dead.

Staleness is the only expiry: an entry the contract still serves is
exact, however old, so nothing expires by age.  Counters
(``serve.cache.{hit,miss,stale,evict}``, and the same under
``serve.link_cache.*``) live only in the :class:`repro.obs.Metrics`
registry the owner passes in; ``LRUCache.stats`` reads them back from it.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable, Hashable, Iterable, NamedTuple

from repro.contracts import guarded_by
from repro.linking.index import lookup_words
from repro.match.candidates import ReadScope
from repro.obs.metrics import Metrics


@guarded_by("_lock", "_entries")
class LRUCache:
    """Thread-safe LRU cache.

    ``maxsize=0`` disables the cache entirely (every ``get`` misses, ``put``
    is a no-op) — the serving engine's cache-off switch.  Hits, misses and
    evictions are counted in ``metrics`` (a registry of its own when none
    is given) and nowhere else.
    """

    def __init__(
        self,
        maxsize: int = 1024,
        metrics: Metrics | None = None,
        name: str = "serve.cache",
    ):
        if maxsize < 0:
            raise ValueError("maxsize must be >= 0")
        self.maxsize = maxsize
        self.metrics = metrics if metrics is not None else Metrics()
        self.name = name
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        self._lock = threading.Lock()

    def get(
        self, key: Hashable, fresh: Callable[[Any], bool] | None = None
    ) -> Any | None:
        """The cached value, or None on a miss (refreshes LRU order).

        An entry ``fresh`` (when given) says no to is dropped and the
        lookup is a miss like any other, also counted as ``{name}.stale``.
        """
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                if fresh is None or fresh(value):
                    self._entries.move_to_end(key)
                    self.metrics.incr(f"{self.name}.hit")
                    return value
                self.metrics.incr(f"{self.name}.stale")
                del self._entries[key]
            self.metrics.incr(f"{self.name}.miss")
            return None

    def put(self, key: Hashable, value: Any) -> None:
        with self._lock:
            if self.maxsize == 0:
                return
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = value
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self.metrics.incr(f"{self.name}.evict")

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict:
        """Counters + occupancy, the shape ``GET /stats`` reports."""
        counter = self.metrics.counter
        hits, misses = counter(f"{self.name}.hit"), counter(f"{self.name}.miss")
        lookups = hits + misses
        return {
            "size": len(self),
            "maxsize": self.maxsize,
            "hits": hits,
            "misses": misses,
            "evictions": counter(f"{self.name}.evict"),
            "hit_rate": round(hits / lookups, 4) if lookups else 0.0,
        }


class Stamped(NamedTuple):
    """A cached value with what decides whether it may still be served."""

    value: Any
    #: The published store version read before ``value`` was computed.
    version: int
    #: What the computation read; ``None`` binds the value to ``version``.
    scope: ReadScope | None


@guarded_by("_lock", "_published", "_floor", "_predicates", "_words")
class ReadStamps:
    """Which store version last touched each predicate and posting key.

    The writer's half of the cache contract (module docstring), owned by
    the engine — not by the store backend: a compaction swaps the backend
    and an entry older than a conflicting write must stay dead across it.
    One writer at a time (the engine's ingest lock); any number of
    readers.  Bounded by the predicate and label vocabularies.
    """

    def __init__(self, version: int):
        self._lock = threading.Lock()
        self._published = version
        self._floor = version
        self._predicates: dict[int, int] = {}
        self._words: dict[str, int] = {}

    def version(self) -> int:
        """The published version — read it *before* computing a value."""
        with self._lock:
            return self._published

    def fresh(self, entry: Stamped) -> bool:
        """Whether recomputing ``entry`` now would give the same value."""
        version, scope = entry.version, entry.scope
        with self._lock:
            if version == self._published:
                return True
            if scope is None or version < self._floor:
                return False
            predicates, words = self._predicates, self._words
            return not any(
                predicates[pid] > version for pid in scope.predicates & predicates.keys()
            ) and not any(
                words[word] > version for word in scope.words & words.keys()
            )

    def publish(
        self, version: int, predicates: Iterable[int], words: Iterable[str]
    ) -> None:
        """File a finished write: ``version`` is the store's after its last
        mutation, ``predicates`` and ``words`` are everything it touched."""
        with self._lock:
            self._predicates.update(dict.fromkeys(predicates, version))
            self._words.update(dict.fromkeys(words, version))
            self._published = version

    def publish_all(self, version: int) -> None:
        """File a change no scope describes: every older entry is dead.
        (The stamps go too — none is newer than an entry that survives.)"""
        with self._lock:
            self._floor = self._published = version
            self._predicates.clear()
            self._words.clear()

    def stats(self) -> dict:
        """The ``ingest`` block of ``GET /stats``."""
        with self._lock:
            return {
                "predicates_stamped": len(self._predicates),
                "words_stamped": len(self._words),
                "floor_version": self._floor,
            }


class CachingLinker:
    """An :class:`EntityLinker` wrapper sharing link candidates via an LRU cache.

    Entity linking is the one per-question stage whose inputs repeat across
    *different* questions (the same argument phrase shows up everywhere),
    so the serving engine shares one candidate cache across all requests.
    A link list's scope is the posting keys of its phrase; everything else
    delegates to the wrapped linker, including the ``index`` attribute the
    phrase mapper's longest-match probe reads.
    """

    def __init__(self, linker, cache: LRUCache, stamps: ReadStamps):
        self._linker = linker
        self._cache = cache
        self._stamps = stamps

    def link(self, phrase: str, tracer=None) -> list:
        cached = self._cache.get(phrase, self._stamps.fresh)
        if cached is not None:
            return list(cached.value)
        version = self._stamps.version()
        candidates = self._linker.link(phrase, tracer=tracer)
        # Store a tuple: cached values are shared between threads and must
        # never alias the mutable list a caller might sort or trim.
        self._cache.put(
            phrase,
            Stamped(tuple(candidates), version, ReadScope(words=lookup_words(phrase))),
        )
        return candidates

    def __getattr__(self, name: str):
        return getattr(self._linker, name)
