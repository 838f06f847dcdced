"""Runtime behavior of the contract decorator (the static check's anchor)."""

import pytest

from repro.contracts import GUARDED_FIELDS_ATTR, guarded_by


class TestGuardedBy:
    def test_records_field_to_lock_mapping(self):
        @guarded_by("_lock", "_a", "_b")
        class Guarded:
            pass

        assert getattr(Guarded, GUARDED_FIELDS_ATTR) == {"_a": "_lock", "_b": "_lock"}

    def test_stacking_merges_across_locks(self):
        @guarded_by("_other", "_c")
        @guarded_by("_lock", "_a")
        class Guarded:
            pass

        assert getattr(Guarded, GUARDED_FIELDS_ATTR) == {
            "_a": "_lock",
            "_c": "_other",
        }

    def test_subclass_does_not_mutate_parent(self):
        @guarded_by("_lock", "_a")
        class Parent:
            pass

        @guarded_by("_lock", "_b")
        class Child(Parent):
            pass

        assert getattr(Parent, GUARDED_FIELDS_ATTR) == {"_a": "_lock"}
        assert getattr(Child, GUARDED_FIELDS_ATTR) == {"_a": "_lock", "_b": "_lock"}

    def test_requires_at_least_one_field(self):
        with pytest.raises(ValueError):
            guarded_by("_lock")

    def test_compatible_with_slots(self):
        @guarded_by("_lock", "_a")
        class Slotted:
            __slots__ = ("_lock", "_a")

        assert getattr(Slotted, GUARDED_FIELDS_ATTR) == {"_a": "_lock"}


class TestRealClassesCarryContracts:
    def test_ttl_cache_and_metrics_declare_their_locks(self):
        from repro.obs.metrics import Metrics
        from repro.serve.cache import LRUCache

        assert getattr(LRUCache, GUARDED_FIELDS_ATTR)["_entries"] == "_lock"
        assert getattr(Metrics, GUARDED_FIELDS_ATTR)["counters"] == "_lock"
