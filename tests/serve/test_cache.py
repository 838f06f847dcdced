"""Cache semantics: LRU, read-scope stamps, linker cache."""

import pytest

from repro.linking.index import lookup_words
from repro.match.candidates import ReadScope
from repro.obs.metrics import Metrics
from repro.serve.cache import CachingLinker, LRUCache, ReadStamps, Stamped


class TestTTLCache:
    """:class:`LRUCache`, the answer and link caches' store (named
    ``TTLCache`` while its entries also expired by age)."""

    def test_hit_after_put(self):
        cache = LRUCache(maxsize=4)
        cache.put("k", "v")
        assert cache.get("k") == "v"

    def test_miss_on_absent_key(self):
        assert LRUCache().get("nope") is None

    def test_lru_eviction_keeps_recently_used(self):
        cache = LRUCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh a's recency
        cache.put("c", 3)           # evicts b, the least recently used
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3

    def test_maxsize_zero_disables(self):
        cache = LRUCache(maxsize=0)
        cache.put("k", "v")
        assert cache.get("k") is None
        assert len(cache) == 0

    def test_counters_reported_to_metrics(self):
        metrics = Metrics()
        cache = LRUCache(maxsize=1, metrics=metrics, name="t")
        cache.get("missing")
        cache.put("a", 1)
        cache.get("a")
        cache.put("b", 2)  # evicts a
        cache.get("a")
        counters = metrics.snapshot()["counters"]
        assert counters == {"t.miss": 2, "t.hit": 1, "t.evict": 1}

    def test_stats_shape_and_hit_rate(self):
        cache = LRUCache(maxsize=8)
        cache.put("a", 1)
        cache.get("a")
        cache.get("b")
        assert cache.stats() == {
            "size": 1, "maxsize": 8, "hits": 1, "misses": 1, "evictions": 0, "hit_rate": 0.5,
        }

    def test_stats_are_read_from_the_registry(self):
        """The registry is the only tally: ``stats()`` holds no count of
        its own, and two caches in one registry keep apart by name."""
        metrics = Metrics()
        cache = LRUCache(maxsize=1, metrics=metrics, name="t")
        other = LRUCache(maxsize=1, metrics=metrics, name="u")
        cache.put("a", 1)
        cache.get("a")
        cache.put("b", 2)
        cache.get("a")
        other.get("a")
        stats = cache.stats()
        assert (stats["hits"], stats["misses"], stats["evictions"]) == (1, 1, 1)
        metrics.incr("t.hit", 2)
        assert cache.stats()["hits"] == 3
        assert cache.stats()["hit_rate"] == 0.75
        assert (other.stats()["hits"], other.stats()["misses"]) == (0, 1)
        assert isinstance(LRUCache().metrics, Metrics)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            LRUCache(maxsize=-1)
        with pytest.raises(TypeError):
            LRUCache(ttl=60.0)  # entries do not expire by age


class TestFreshness:
    """``get(key, fresh)``: an entry the predicate rejects is a miss."""

    def test_rejected_entry_is_a_counted_miss_and_is_dropped(self):
        metrics = Metrics()
        cache = LRUCache(maxsize=4, metrics=metrics, name="c")
        cache.put("q", "old")
        assert cache.get("q", lambda value: value != "old") is None
        assert len(cache) == 0
        stats = cache.stats()
        assert (stats["hits"], stats["misses"], stats["hit_rate"]) == (0, 1, 0.0)
        assert metrics.counter("c.stale") == 1
        assert metrics.counter("c.miss") == 1
        # Not an eviction: its counter does not move.
        assert stats["evictions"] == 0

    def test_accepted_entry_is_a_hit(self):
        cache = LRUCache(maxsize=4)
        cache.put("q", "v")
        assert cache.get("q", lambda value: True) == "v"
        assert cache.stats()["hits"] == 1

    def test_recomputation_replaces_the_entry(self):
        cache = LRUCache(maxsize=4)
        for generation in range(50):
            cache.get("q", lambda value: False)
            cache.put("q", generation)
            assert len(cache) == 1


class TestReadStamps:
    SCOPE = ReadScope(frozenset({3, 7}), frozenset({"berlin"}))

    def entry(self, version, scope=SCOPE):
        return Stamped("value", version, scope)

    def test_nothing_published_everything_fresh(self):
        stamps = ReadStamps(5)
        assert stamps.version() == 5
        assert stamps.fresh(self.entry(5))
        assert stamps.fresh(self.entry(5, None))

    def test_a_write_outside_the_scope_leaves_the_entry_fresh(self):
        stamps = ReadStamps(5)
        stamps.publish(9, predicates=[4, 8], words=["paris"])
        assert stamps.version() == 9
        assert stamps.fresh(self.entry(5))

    @pytest.mark.parametrize(
        "predicates, words", [([7], []), ([], ["berlin"]), ([4, 3], ["paris"])]
    )
    def test_a_write_inside_the_scope_kills_older_entries_only(self, predicates, words):
        stamps = ReadStamps(5)
        stamps.publish(9, predicates, words)
        assert not stamps.fresh(self.entry(5))
        assert not stamps.fresh(self.entry(8))
        assert stamps.fresh(self.entry(9))   # computed after the write
        stamps.publish(12, [99], [])
        assert stamps.fresh(self.entry(9))
        assert not stamps.fresh(self.entry(5))

    def test_unscoped_entry_is_bound_to_its_version(self):
        stamps = ReadStamps(5)
        entry = self.entry(5, None)
        stamps.publish(6, [99], [])
        assert not stamps.fresh(entry)

    def test_publish_all_raises_the_floor(self):
        stamps = ReadStamps(5)
        stamps.publish(9, [99], ["paris"])
        stamps.publish_all(11)
        assert not stamps.fresh(self.entry(9))
        assert not stamps.fresh(Stamped("v", 10, ReadScope()))
        assert stamps.fresh(self.entry(11))
        assert stamps.stats() == {
            "predicates_stamped": 0, "words_stamped": 0, "floor_version": 11,
        }

    def test_stats_count_the_vocabulary_not_the_writes(self):
        stamps = ReadStamps(0)
        for version in range(1, 50):
            stamps.publish(version, [version % 3], ["a", "b"])
        assert stamps.stats() == {
            "predicates_stamped": 3, "words_stamped": 2, "floor_version": 0,
        }


class _CountingLinker:
    """A linker stub recording how many times link() actually computes."""

    def __init__(self):
        self.calls = 0
        self.index = "the-index"

    def link(self, phrase, tracer=None):
        self.calls += 1
        return [f"cand:{phrase}"]


class TestCachingLinker:
    def test_second_lookup_is_cached(self):
        inner = _CountingLinker()
        linker = CachingLinker(inner, LRUCache(), ReadStamps(0))
        first = linker.link("Berlin")
        second = linker.link("Berlin")
        assert first == second == ["cand:Berlin"]
        assert inner.calls == 1

    def test_returned_lists_are_independent_copies(self):
        linker = CachingLinker(_CountingLinker(), LRUCache(), ReadStamps(0))
        first = linker.link("Berlin")
        first.append("mutated")
        assert linker.link("Berlin") == ["cand:Berlin"]

    def test_store_mutation_invalidates(self):
        """… when it touched a node filed under a word of the phrase, and
        only then."""
        inner = _CountingLinker()
        stamps = ReadStamps(0)
        linker = CachingLinker(inner, LRUCache(), stamps)
        linker.link("Berlin Walls")
        stamps.publish(1, predicates=[5], words=["paris"])
        linker.link("Berlin Walls")
        assert inner.calls == 1
        # The singular form the index files "walls" under counts.
        assert "wall" in lookup_words("Berlin Walls")
        stamps.publish(2, predicates=[], words=["wall"])
        linker.link("Berlin Walls")
        assert inner.calls == 2
        linker.link("Berlin Walls")
        assert inner.calls == 2

    def test_delegates_other_attributes(self):
        linker = CachingLinker(_CountingLinker(), LRUCache(), ReadStamps(0))
        assert linker.index == "the-index"
