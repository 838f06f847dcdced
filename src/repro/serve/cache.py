"""Serving-layer caches: LRU+TTL answer cache and entity-link cache.

Keys carry the **store version** (:attr:`TripleStore.version`) and a
**config fingerprint** alongside the normalized question text, so a cached
entry can never be served across a store mutation or an engine
reconfiguration: after ``KnowledgeGraph.refresh()`` follows a mutation,
every lookup computes a different key and misses.  The versioned keys
are what make a stale read structurally impossible; nothing else is
relied on for correctness.

What the keys do not do is give the memory back: after a write every
resident entry is unreachable, and left to the LRU tail a server under
steady ingest carries a full cache of dead entries (1 024 answers and
4 096 link lists, ~9 MB of RSS in a 450-write soak).  So the publisher of
a new version — ``QAEngine.ingest`` — calls
:meth:`TTLCache.drop_versions_before` on both caches.  That is purely a
memory measure: a reader that started before the write and finishes
after it may still file its one entry under the old version, and the
next write sweeps it out.

Counters (``serve.cache.{hit,miss,evict,expired,stale_dropped}``, and the
same under ``serve.link_cache.*``) are reported into whatever
:class:`repro.obs.Metrics` registry the owner passes in; the registry
itself is thread-safe.
"""

from __future__ import annotations

import re
import threading
import time
from collections import OrderedDict
from typing import Any, Callable, Hashable

from repro.contracts import guarded_by
from repro.obs.metrics import MetricsLike, NoopMetrics

_WHITESPACE_RE = re.compile(r"\s+")


def normalize_question(question: str) -> str:
    """Canonical cache form of a question: case, spacing, end punctuation.

    "Who is the mayor of Berlin?", "who is the  mayor of berlin" and
    "WHO IS THE MAYOR OF BERLIN ?" all map to one key.  Internal
    punctuation stays — it can be meaningful ("U.S.", "Benedict XVI").
    """
    collapsed = _WHITESPACE_RE.sub(" ", question).strip()
    return collapsed.rstrip(" ?!.").casefold()


@guarded_by("_lock", "_entries", "_hits", "_misses", "_evictions")
class TTLCache:
    """Thread-safe LRU cache whose entries also expire after ``ttl`` seconds.

    ``maxsize=0`` disables the cache entirely (every ``get`` misses, ``put``
    is a no-op) — the serving engine's cache-off switch.  ``clock`` is
    injectable for deterministic TTL tests.
    """

    def __init__(
        self,
        maxsize: int = 1024,
        ttl: float = 300.0,
        clock: Callable[[], float] = time.monotonic,
        metrics: MetricsLike | None = None,
        name: str = "serve.cache",
    ):
        if maxsize < 0:
            raise ValueError("maxsize must be >= 0")
        if ttl <= 0:
            raise ValueError("ttl must be positive")
        self.maxsize = maxsize
        self.ttl = ttl
        self.clock = clock
        self.metrics = metrics if metrics is not None else NoopMetrics()
        self.name = name
        self._entries: OrderedDict[Hashable, tuple[float, Any]] = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def get(self, key: Hashable) -> Any | None:
        """The cached value, or None on miss/expiry (refreshes LRU order)."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                stored_at, value = entry
                if self.clock() - stored_at < self.ttl:
                    self._entries.move_to_end(key)
                    self._hits += 1
                    self.metrics.incr(f"{self.name}.hit")
                    return value
                del self._entries[key]
                self.metrics.incr(f"{self.name}.expired")
            self._misses += 1
            self.metrics.incr(f"{self.name}.miss")
            return None

    def put(self, key: Hashable, value: Any) -> None:
        with self._lock:
            if self.maxsize == 0:
                return
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = (self.clock(), value)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self._evictions += 1
                self.metrics.incr(f"{self.name}.evict")

    def drop_versions_before(self, version: int) -> int:
        """Drop every entry filed under a store version older than
        ``version``; returns how many went.

        Both key shapes of this module (:func:`answer_cache_key`,
        :class:`CachingLinker`) carry the store version second.  Such
        entries can no longer be looked up, so this frees memory and
        changes no answer; it is not an eviction and is counted apart
        (``{name}.stale_dropped``).
        """
        with self._lock:
            stale = [
                key for key in self._entries
                if key[1] < version  # type: ignore[index]
            ]
            for key in stale:
                del self._entries[key]
        if stale:
            self.metrics.incr(f"{self.name}.stale_dropped", len(stale))
        return len(stale)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict:
        """Counters + occupancy, the shape ``GET /stats`` reports."""
        with self._lock:
            lookups = self._hits + self._misses
            return {
                "size": len(self._entries),
                "maxsize": self.maxsize,
                "ttl_s": self.ttl,
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "hit_rate": round(self._hits / lookups, 4) if lookups else 0.0,
            }


def answer_cache_key(
    question: str, store_version: int, fingerprint: str
) -> tuple[str, int, str]:
    """Cache key of one answered question under one engine configuration."""
    return (normalize_question(question), store_version, fingerprint)


class CachingLinker:
    """An :class:`EntityLinker` wrapper sharing link candidates via a TTL cache.

    Entity linking is the one per-question stage whose inputs repeat across
    *different* questions (the same argument phrase shows up everywhere),
    so the serving engine shares one candidate cache across all requests.
    Keys include the store version; everything else delegates to the
    wrapped linker, including the ``index`` attribute the phrase mapper's
    longest-match probe reads.
    """

    def __init__(self, linker, cache: TTLCache, store):
        self._linker = linker
        self._cache = cache
        self._store = store

    def link(self, phrase: str, tracer=None) -> list:
        key = (phrase, self._store.version)
        cached = self._cache.get(key)
        if cached is not None:
            return list(cached)
        candidates = self._linker.link(phrase, tracer=tracer)
        # Store a tuple: cached values are shared between threads and must
        # never alias the mutable list a caller might sort or trim.
        self._cache.put(key, tuple(candidates))
        return candidates

    def __getattr__(self, name: str):
        return getattr(self._linker, name)
