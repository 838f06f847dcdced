"""Firing / non-firing fixture pairs for every lint rule."""


class TestLockDiscipline:
    RULE = "lock-discipline"

    def test_fires_on_unguarded_read(self, lint_source):
        findings = lint_source(
            """
            import threading
            from repro.contracts import guarded_by

            @guarded_by("_lock", "_count")
            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._count = 0

                def peek(self):
                    return self._count
            """,
            rule=self.RULE,
        )
        assert len(findings) == 1
        assert "Counter._count" in findings[0].message
        assert "read of" in findings[0].message

    def test_fires_on_unguarded_write(self, lint_source):
        findings = lint_source(
            """
            import threading
            from repro.contracts import guarded_by

            @guarded_by("_lock", "_count")
            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._count = 0

                def bump(self):
                    self._count += 1
            """,
            rule=self.RULE,
        )
        assert len(findings) == 1
        assert "write to" in findings[0].message

    def test_quiet_when_access_is_under_the_lock(self, lint_source):
        findings = lint_source(
            """
            import threading
            from repro.contracts import guarded_by

            @guarded_by("_lock", "_count")
            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._count = 0

                def bump(self):
                    with self._lock:
                        self._count += 1
                        return self._count
            """,
            rule=self.RULE,
        )
        assert findings == []

    def test_quiet_under_wrong_lock_fires(self, lint_source):
        findings = lint_source(
            """
            import threading
            from repro.contracts import guarded_by

            @guarded_by("_lock", "_count")
            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._other = threading.Lock()
                    self._count = 0

                def bump(self):
                    with self._other:
                        self._count += 1
            """,
            rule=self.RULE,
        )
        assert len(findings) == 1

    def test_init_is_exempt(self, lint_source):
        findings = lint_source(
            """
            import threading
            from repro.contracts import guarded_by

            @guarded_by("_lock", "_count")
            class Counter:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._count = 0
            """,
            rule=self.RULE,
        )
        assert findings == []

    def test_pragma_suppresses_double_checked_read(self, lint_source):
        findings = lint_source(
            """
            import threading
            from repro.contracts import guarded_by

            @guarded_by("_lock", "_cached")
            class Lazy:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._cached = None

                def value(self):
                    cached = self._cached  # lint: ignore[lock-discipline]
                    if cached is None:
                        with self._lock:
                            cached = self._cached
                            if cached is None:
                                cached = self._cached = object()
                    return cached
            """,
            rule=self.RULE,
        )
        assert findings == []

    def test_nested_class_self_is_not_the_outer_self(self, lint_source):
        findings = lint_source(
            """
            import threading
            from repro.contracts import guarded_by

            @guarded_by("_lock", "_count")
            class Outer:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._count = 0

                def helper(self):
                    class Inner:
                        def touch(self):
                            return self._count
                    return Inner()
            """,
            rule=self.RULE,
        )
        assert findings == []


class TestFrozenStore:
    RULE = "frozen-store"

    def test_fires_on_add_to_compacted_local(self, lint_source):
        findings = lint_source(
            """
            def build(store, triple):
                frozen = store.compacted()
                frozen.add(triple)
            """,
            rule=self.RULE,
        )
        assert len(findings) == 1
        assert ".add()" in findings[0].message

    def test_fires_on_snapshot_loaded_self_attribute(self, lint_source):
        findings = lint_source(
            """
            from repro.rdf.snapshot import load_snapshot

            class Holder:
                def __init__(self, path, triple):
                    self.store = load_snapshot(path)
                    self.store.remove(triple)
            """,
            rule=self.RULE,
        )
        assert len(findings) == 1

    def test_fires_on_add_to_a_loaded_dump(self, lint_source):
        findings = lint_source(
            """
            from repro.rdf.io import load_store

            def grow(p, t):
                load_store(p).add(t)
            """,
            rule=self.RULE,
        )
        assert len(findings) == 1
        assert ".add()" in findings[0].message

    def test_fires_on_annotated_compact_backend_parameter(self, lint_source):
        findings = lint_source(
            """
            def corrupt(backend: "CompactBackend", triple):
                backend.add_all([triple])
            """,
            rule=self.RULE,
        )
        assert len(findings) == 1

    def test_quiet_on_mutable_store(self, lint_source):
        findings = lint_source(
            """
            def build(store, triple):
                store.add(triple)
                compact = store.compacted()
                return compact.triples()
            """,
            rule=self.RULE,
        )
        assert findings == []

    def test_fires_on_add_to_sharded_local(self, lint_source):
        findings = lint_source(
            """
            def build(store, triple):
                frozen = store.sharded(8)
                frozen.add(triple)
            """,
            rule=self.RULE,
        )
        assert len(findings) == 1
        assert ".add()" in findings[0].message

    def test_fires_on_overlay_receiver_mutation(self, lint_source):
        # Calling .overlay() certifies the receiver frozen; mutating it
        # afterwards would silently desynchronize the overlay's merge.
        findings = lint_source(
            """
            def build(store, triple):
                base = store.compacted()
                live = base.overlay()
                base.add(triple)
                return live
            """,
            rule=self.RULE,
        )
        assert len(findings) == 1
        assert "frozen" in findings[0].message

    def test_fires_on_overlay_backend_captured_base(self, lint_source):
        findings = lint_source(
            """
            from repro.rdf.overlay import OverlayBackend

            def build(backend, triple):
                overlay = OverlayBackend(backend)
                backend.add_all_ids([triple])
                return overlay
            """,
            rule=self.RULE,
        )
        assert len(findings) == 1
        assert ".add_all_ids()" in findings[0].message

    def test_quiet_on_mutating_the_overlay_itself(self, lint_source):
        # The overlay is the writable side — only its base is frozen.
        findings = lint_source(
            """
            from repro.rdf.overlay import OverlayBackend

            def build(backend, triple):
                overlay = OverlayBackend(backend)
                overlay.add_all_ids([triple])
                return overlay
            """,
            rule=self.RULE,
        )
        assert findings == []

    def test_fires_on_add_all_ids_to_compacted(self, lint_source):
        findings = lint_source(
            """
            def build(store, triples):
                frozen = store.compacted()
                frozen.add_all_ids(triples)
            """,
            rule=self.RULE,
        )
        assert len(findings) == 1

    def test_fires_on_sharded_backend_constructor(self, lint_source):
        findings = lint_source(
            """
            from repro.rdf.shard import ShardedBackend

            def build(segments, triple):
                backend = ShardedBackend(segments)
                backend.add_all([triple])
            """,
            rule=self.RULE,
        )
        assert len(findings) == 1

    def test_fires_on_annotated_sharded_backend_parameter(self, lint_source):
        findings = lint_source(
            """
            def corrupt(backend: "ShardedBackend", triple):
                backend.add(triple)
            """,
            rule=self.RULE,
        )
        assert len(findings) == 1

    def test_quiet_on_sharded_reads(self, lint_source):
        findings = lint_source(
            """
            def query(store, sid):
                frozen = store.sharded(4)
                return list(frozen.triples_ids(s=sid))
            """,
            rule=self.RULE,
        )
        assert findings == []


class TestMonotonicTime:
    RULE = "monotonic-time"

    def test_fires_on_time_time(self, lint_source):
        findings = lint_source(
            """
            import time

            def deadline(budget):
                return time.time() + budget
            """,
            rule=self.RULE,
        )
        assert len(findings) == 1
        assert "time.monotonic()" in findings[0].message

    def test_fires_on_bare_imported_time(self, lint_source):
        findings = lint_source(
            """
            from time import time

            def deadline(budget):
                return time() + budget
            """,
            rule=self.RULE,
        )
        assert len(findings) == 1

    def test_quiet_on_monotonic(self, lint_source):
        findings = lint_source(
            """
            import time

            def deadline(budget):
                return time.monotonic() + budget
            """,
            rule=self.RULE,
        )
        assert findings == []

    def test_exempt_module_prefix(self, lint_source):
        findings = lint_source(
            """
            import time

            def wall_clock_stamp():
                return time.time()
            """,
            module="repro.experiments.harness",
            rule=self.RULE,
        )
        assert findings == []


class TestLayering:
    RULE = "layering"

    def test_fires_when_rdf_imports_serve(self, lint_source):
        findings = lint_source(
            """
            from repro.serve.engine import QAEngine
            """,
            module="repro.rdf.store",
            rule=self.RULE,
        )
        assert len(findings) == 1
        assert "layer boundary" in findings[0].message

    def test_fires_on_relative_import_crossing_layers(self, lint_source):
        # `from .. import serve`-style reaches resolve against the package.
        findings = lint_source(
            """
            import repro.cli
            """,
            module="repro.nlp.parser",
            rule=self.RULE,
        )
        assert len(findings) == 1

    def test_quiet_when_serve_imports_rdf(self, lint_source):
        findings = lint_source(
            """
            from repro.rdf.graph import KnowledgeGraph
            from repro.obs.metrics import Metrics
            """,
            module="repro.serve.engine",
            rule=self.RULE,
        )
        assert findings == []

    def test_fires_on_foreign_private_access(self, lint_source):
        findings = lint_source(
            """
            def peek(engine):
                return engine._pool
            """,
            module="repro.rdf.helper",
            rule=self.RULE,
        )
        assert len(findings) == 1
        assert "_pool" in findings[0].message

    def test_quiet_on_self_module_and_stdlib_privates(self, lint_source):
        findings = lint_source(
            """
            import os

            class Worker:
                def __init__(self):
                    self._token = 1

                def read(self):
                    return self._token

                def hard_exit(self):
                    os._exit(1)

            def clone(worker):
                return worker._token
            """,
            module="repro.rdf.helper",
            rule=self.RULE,
        )
        assert findings == []


class TestExceptionDiscipline:
    RULE = "exception-discipline"

    def test_fires_on_bare_exception_and_runtime_error(self, lint_source):
        findings = lint_source(
            """
            def entry(flag):
                if flag:
                    raise Exception("boom")
                raise RuntimeError("boom")
            """,
            rule=self.RULE,
        )
        assert len(findings) == 2

    def test_quiet_on_repro_error_subclass_and_value_error(self, lint_source):
        findings = lint_source(
            """
            from repro.exceptions import LintError

            def entry(flag):
                if flag:
                    raise ValueError("bad input")
                raise LintError("bad lint input")
            """,
            rule=self.RULE,
        )
        assert findings == []

    def test_bare_reraise_is_fine(self, lint_source):
        findings = lint_source(
            """
            def entry():
                try:
                    work()
                except KeyError:
                    raise
            """,
            rule=self.RULE,
        )
        assert findings == []


class TestInstanceCycle:
    RULE = "instance-cycle"

    def test_fires_on_each_wrapper_of_a_bound_method(self, lint_source):
        findings = lint_source(
            """
            import functools
            from functools import lru_cache, partial

            class Kernel:
                def __init__(self, store):
                    self.store = store
                    self.walk = lru_cache(maxsize=64)(self._walk)
                    self.degree = functools.cache(self._degree)
                    self.step: object = partial(self._walk, 0)

                def _walk(self, start, path):
                    return start

                def _degree(self, node):
                    return node
            """,
            rule=self.RULE,
        )
        assert [finding.line for finding in findings] == [8, 9, 10]
        assert "self._walk" in findings[0].message
        assert "self._degree" in findings[1].message

    def test_quiet_on_near_misses(self, lint_source):
        findings = lint_source(
            """
            from functools import lru_cache, partial

            @lru_cache(maxsize=64)
            def degree(node):
                return node

            def walk(store, start, path):
                return start

            class Kernel:
                def __init__(self, store, other):
                    self.walk = lru_cache(maxsize=64)(partial(walk, store))
                    self.echo = partial(other.walk, 0)
                    self.plain = self._walk
                    local = partial(self._walk, 0)

                def _walk(self, start, path):
                    return start
            """,
            rule=self.RULE,
        )
        assert findings == []
