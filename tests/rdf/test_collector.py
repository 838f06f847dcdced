"""The scoped collector pause, and the five bulk builders that run in it."""

import gc
import sys
import threading

import pytest

from repro.datasets.synthetic import SyntheticConfig, build_synthetic_kg
from repro.paraphrase import ParaphraseMiner
from repro.paraphrase.miner import RelationPhraseDataset
from repro.rdf import KnowledgeGraph
from repro.rdf.collector import collector_paused
from repro.rdf.io import load_store, save_store
from repro.rdf.snapshot import compile_snapshot, load_snapshot


@pytest.fixture(autouse=True)
def collector_enabled():
    """Every test starts and ends with the collector in its default state."""
    gc.enable()
    yield
    gc.enable()


class TestPause:
    def test_enabled_before_enabled_after(self):
        with collector_paused():
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_enabled_again_when_the_body_raises(self):
        with pytest.raises(LookupError):
            with collector_paused():
                assert not gc.isenabled()
                raise LookupError("body failed")
        assert gc.isenabled()

    def test_a_disabled_collector_is_left_disabled(self):
        gc.disable()
        with collector_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()
        with pytest.raises(LookupError):
            with collector_paused():
                raise LookupError("body failed")
        assert not gc.isenabled()

    def test_nested_pauses_end_enabled(self):
        with collector_paused():
            with collector_paused():
                assert not gc.isenabled()
            # The inner pause found it off and leaves it off: the outer
            # body keeps its pause.
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_overlapping_pauses_of_two_threads_end_enabled(self):
        first_inside, second_inside, first_left = (threading.Event() for _ in range(3))
        seen = {}

        def first():
            with collector_paused():
                first_inside.set()
                assert second_inside.wait(5)
            first_left.set()

        def second():
            assert first_inside.wait(5)
            with collector_paused():
                second_inside.set()
                assert first_left.wait(5)
                # The first thread saw it enabled and re-enabled it; this
                # body lost the optimisation, nothing else.
                seen["inside_second_after_first_left"] = gc.isenabled()

        threads = [threading.Thread(target=first), threading.Thread(target=second)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10)
        assert not any(thread.is_alive() for thread in threads)
        assert seen == {"inside_second_after_first_left": True}
        assert gc.isenabled()

    def test_racing_pauses_never_leave_the_collector_off(self):
        def worker():
            for _ in range(3000):
                with collector_paused():
                    pass

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert gc.isenabled()


class _FullCollections:
    """``gc.callbacks`` probe: generation-2 passes that *start* while a
    named stretch of the test is running."""

    def __init__(self):
        self.inside = None
        self.started = []

    def __call__(self, phase, info):
        if phase == "start" and info["generation"] == 2:
            self.started.append(self.inside)

    def during(self, name, call):
        self.inside = name
        try:
            return call()
        finally:
            self.inside = None


def test_no_full_collection_starts_inside_a_bulk_builder(tmp_path):
    """The smoke-sized offline build: dump → store → compact → sharded →
    kernel → mined dictionary → both snapshot forms."""
    source = build_synthetic_kg(SyntheticConfig.with_total_triples(10_000))
    dump = tmp_path / "dump.nt"
    save_store(source.store, dump)
    dataset = RelationPhraseDataset()
    edges = [
        (t.subject, t.object)
        for t in source.store.triples()
        if t.predicate.value in ("syn:pred0", "syn:pred1")
    ]
    dataset.add("pred zero of", edges[:40])
    dataset.add("pred one of", edges[-40:])
    del source, edges

    probe = _FullCollections()
    gc.callbacks.append(probe)
    try:
        gc.collect()
        assert probe.started == [None]  # the probe sees a full pass
        del probe.started[:]
        store = probe.during("load_store", lambda: load_store(dump))
        compact = probe.during("compacted", store.compacted)
        probe.during("sharded", lambda: store.sharded(2))
        kg = KnowledgeGraph(compact)
        probe.during("kernel", lambda: kg.kernel)
        dictionary = probe.during(
            "mine", lambda: ParaphraseMiner(kg, max_path_length=4).mine(dataset)
        )
        probe.during(
            "compile_snapshot", lambda: compile_snapshot(tmp_path / "s.snap", kg, dictionary)
        )
        probe.during(
            "compile_snapshot",
            lambda: compile_snapshot(tmp_path / "m.snap", kg, dictionary, shards=2),
        )
    finally:
        gc.callbacks.remove(probe)
    assert [name for name in probe.started if name is not None] == []
    assert gc.isenabled()
    assert len(store) == len(compact) == len(load_snapshot(tmp_path / "m.snap").kg.store)
    assert len(dictionary) == 2
