"""Cache semantics: normalization, LRU+TTL, versioned keys, linker cache."""

import pytest

from repro.obs.metrics import Metrics
from repro.rdf import IRI, Literal, Triple, TripleStore
from repro.serve.cache import (
    CachingLinker,
    TTLCache,
    answer_cache_key,
    normalize_question,
)


class FakeClock:
    def __init__(self):
        self.now = 1000.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestNormalizeQuestion:
    def test_case_whitespace_and_end_punctuation_collapse(self):
        variants = [
            "Who is the mayor of Berlin?",
            "who is the  mayor of berlin",
            "  WHO IS THE MAYOR OF BERLIN ?! ",
            "Who is the\tmayor of Berlin.",
        ]
        normalized = {normalize_question(v) for v in variants}
        assert normalized == {"who is the mayor of berlin"}

    def test_internal_punctuation_is_preserved(self):
        # Trailing end punctuation goes, the *internal* dots stay.
        assert "u.s" in normalize_question("Which rivers flow through the U.S.?")
        assert "benedict xvi" in normalize_question("When was Benedict XVI born?")

    def test_different_questions_stay_different(self):
        assert normalize_question("Who is the mayor of Berlin?") != normalize_question(
            "Who is the mayor of Paris?"
        )


class TestTTLCache:
    def test_hit_after_put(self):
        cache = TTLCache(maxsize=4, ttl=60.0)
        cache.put("k", "v")
        assert cache.get("k") == "v"

    def test_miss_on_absent_key(self):
        assert TTLCache().get("nope") is None

    def test_entries_expire_after_ttl(self):
        clock = FakeClock()
        cache = TTLCache(maxsize=4, ttl=30.0, clock=clock)
        cache.put("k", "v")
        clock.advance(29.9)
        assert cache.get("k") == "v"
        clock.advance(0.2)
        assert cache.get("k") is None
        assert len(cache) == 0  # the expired entry was dropped

    def test_lru_eviction_keeps_recently_used(self):
        cache = TTLCache(maxsize=2, ttl=60.0)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh a's recency
        cache.put("c", 3)           # evicts b, the least recently used
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3

    def test_maxsize_zero_disables(self):
        cache = TTLCache(maxsize=0)
        cache.put("k", "v")
        assert cache.get("k") is None
        assert len(cache) == 0

    def test_counters_reported_to_metrics(self):
        metrics = Metrics()
        clock = FakeClock()
        cache = TTLCache(maxsize=1, ttl=10.0, clock=clock, metrics=metrics, name="t")
        cache.get("missing")
        cache.put("a", 1)
        cache.get("a")
        cache.put("b", 2)  # evicts a
        clock.advance(11)
        cache.get("b")     # expired
        counters = metrics.snapshot()["counters"]
        assert counters["t.miss"] == 2
        assert counters["t.hit"] == 1
        assert counters["t.evict"] == 1
        assert counters["t.expired"] == 1

    def test_stats_shape_and_hit_rate(self):
        cache = TTLCache(maxsize=8, ttl=60.0)
        cache.put("a", 1)
        cache.get("a")
        cache.get("b")
        stats = cache.stats()
        assert stats["size"] == 1
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["hit_rate"] == 0.5

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            TTLCache(maxsize=-1)
        with pytest.raises(ValueError):
            TTLCache(ttl=0)


class TestDropVersionsBefore:
    """Dead-version purge: memory only — what stays is still served."""

    def test_drops_older_versions_of_both_key_shapes(self):
        metrics = Metrics()
        cache = TTLCache(maxsize=16, ttl=60.0, metrics=metrics, name="c")
        cache.put(answer_cache_key("Who is X?", 3, "k=10"), "old answer")
        cache.put(answer_cache_key("Who is X?", 4, "k=10"), "answer")
        cache.put(("berlin", 2), ("old link",))
        cache.put(("berlin", 4), ("link",))
        assert cache.drop_versions_before(4) == 2
        assert len(cache) == 2
        assert cache.get(answer_cache_key("Who is X?", 4, "k=10")) == "answer"
        assert cache.get(("berlin", 4)) == ("link",)
        assert cache.get(("berlin", 2)) is None
        assert metrics.counter("c.stale_dropped") == 2
        # Not an eviction: the LRU's own counter does not move.
        assert cache.stats()["evictions"] == 0

    def test_nothing_to_drop(self):
        cache = TTLCache(maxsize=4, ttl=60.0)
        cache.put(("q", 7, "k=10"), "v")
        assert cache.drop_versions_before(7) == 0
        assert cache.drop_versions_before(3) == 0
        assert cache.get(("q", 7, "k=10")) == "v"
        assert TTLCache(maxsize=0).drop_versions_before(1) == 0


class TestAnswerCacheKey:
    def test_equivalent_questions_share_a_key(self):
        assert answer_cache_key("Who is X?", 3, "k=10") == answer_cache_key(
            " who is x ", 3, "k=10"
        )

    def test_store_version_partitions_keys(self):
        assert answer_cache_key("Who is X?", 3, "k=10") != answer_cache_key(
            "Who is X?", 4, "k=10"
        )

    def test_config_fingerprint_partitions_keys(self):
        assert answer_cache_key("Who is X?", 3, "k=10") != answer_cache_key(
            "Who is X?", 3, "k=3"
        )


class _CountingLinker:
    """A linker stub recording how many times link() actually computes."""

    def __init__(self):
        self.calls = 0
        self.index = "the-index"

    def link(self, phrase, tracer=None):
        self.calls += 1
        return [f"cand:{phrase}"]


class TestCachingLinker:
    def _store(self):
        store = TripleStore()
        store.add(Triple(IRI("a"), IRI("p"), Literal("x")))
        return store

    def test_second_lookup_is_cached(self):
        inner = _CountingLinker()
        linker = CachingLinker(inner, TTLCache(), self._store())
        first = linker.link("Berlin")
        second = linker.link("Berlin")
        assert first == second == ["cand:Berlin"]
        assert inner.calls == 1

    def test_returned_lists_are_independent_copies(self):
        linker = CachingLinker(_CountingLinker(), TTLCache(), self._store())
        first = linker.link("Berlin")
        first.append("mutated")
        assert linker.link("Berlin") == ["cand:Berlin"]

    def test_store_mutation_invalidates(self):
        inner = _CountingLinker()
        store = self._store()
        linker = CachingLinker(inner, TTLCache(), store)
        linker.link("Berlin")
        store.add(Triple(IRI("b"), IRI("p"), Literal("y")))  # bumps version
        linker.link("Berlin")
        assert inner.calls == 2

    def test_delegates_other_attributes(self):
        linker = CachingLinker(_CountingLinker(), TTLCache(), self._store())
        assert linker.index == "the-index"
