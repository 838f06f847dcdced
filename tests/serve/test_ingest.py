"""Live ingest: engine batch writes, HTTP auth, compaction, cache freshness.

The serving-side contract for the overlay store: authenticated ``/ingest``
batches land atomically under write admission, the kernel is patched (not
rebuilt), the answer cache can never serve a stale answer, and
``/compact`` folds the delta into a fresh frozen base under live readers.
"""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.cli import main
from repro.datasets import build_dbpedia_mini
from repro.exceptions import EngineClosedError
from repro.serve.admission import AdmissionRejected
from repro.rdf import IRI, Literal, Triple
from repro.rdf.graph import KnowledgeGraph
from repro.rdf.overlay import OverlayBackend
from repro.serve import EngineConfig, QAEngine, build_server
from repro.serve import engine as engine_module

BERLIN_Q = "Who is the mayor of Berlin?"
TOKEN = "test-ingest-token"


def fresh_engine(kg, dictionary, **config):
    """An engine over a *private compacted copy* of the session store.

    Ingest tests mutate; the session kg must stay pristine for everyone
    else, and a frozen base is what makes the overlay wrap observable.
    """
    private = KnowledgeGraph(kg.store.compacted())
    defaults = dict(pool_size=2, queue_limit=4)
    defaults.update(config)
    return QAEngine(private, dictionary, EngineConfig(**defaults))


def wire(s, p, o):
    return [s, p, o]


@pytest.fixture()
def engine_rw(kg, dictionary):
    engine = fresh_engine(kg, dictionary)
    yield engine
    engine.close()


class TestEngineIngest:
    def test_wraps_frozen_store_in_overlay_on_first_write(self, engine_rw):
        assert not engine_rw.kg.store.writable
        result = engine_rw.ingest([Triple(IRI("t:s"), IRI("t:p"), IRI("t:o"))])
        assert result["added"] == 1
        backend = engine_rw.kg.store.backend
        assert isinstance(backend, OverlayBackend)
        assert backend.delta_statistics()["delta_adds"] == 1

    def test_batch_applies_adds_and_removes(self, engine_rw):
        v0 = engine_rw.store_version
        adds = [
            Triple(IRI("t:a"), IRI("t:p"), IRI("t:b")),
            Triple(IRI("t:a"), IRI("t:p"), Literal("label", language="en")),
        ]
        result = engine_rw.ingest(adds)
        assert (result["added"], result["removed"]) == (2, 0)
        assert result["store_version"] == v0 + 2
        result = engine_rw.ingest(
            [], removes=[adds[0], Triple(IRI("t:no"), IRI("t:p"), IRI("t:x"))]
        )
        assert (result["added"], result["removed"]) == (0, 1)
        assert result["store_version"] == v0 + 3
        assert result["delta"]["delta_adds"] == 1

    def test_kernel_patched_not_stale(self, engine_rw):
        engine_rw.ingest(
            [Triple(IRI("res:Berlin"), IRI("ont:mayor"), IRI("t:NewMayor"))]
        )
        kernel = engine_rw.kg.kernel
        assert kernel.store_version == engine_rw.store_version

    def test_cached_answer_invalidated_by_ingest(self, engine_rw):
        """The stale-cache regression: mutate under a live engine and the
        previously cached answer must miss (it read the stamped
        predicate), never be served against the new store state."""
        before = engine_rw.ask(BERLIN_Q)
        assert before["answers"] == ["res:Klaus_Wowereit"]
        cached = engine_rw.ask(BERLIN_Q)
        assert cached["cached"] is True
        engine_rw.ingest(
            [Triple(IRI("res:Berlin"), IRI("ont:mayor"), IRI("t:NewMayor"))]
        )
        after = engine_rw.ask(BERLIN_Q)
        assert after["cached"] is False
        assert "t:NewMayor" in after["answers"]
        assert "res:Klaus_Wowereit" in after["answers"]

    def test_foreign_batch_leaves_cached_answers_served(self, engine_rw):
        """A batch that carries none of the predicates an answer read and
        touches no node its linking could reach does not cost the entry."""
        assert engine_rw.ask(BERLIN_Q)["cached"] is False
        result = engine_rw.ingest([Triple(IRI("t:s"), IRI("t:p"), IRI("t:o"))])
        after = engine_rw.ask(BERLIN_Q)
        assert after["cached"] is True
        assert after["store_version"] == result["store_version"]
        assert engine_rw.stats()["ingest"] == {
            "predicates_stamped": 1, "words_stamped": 0,
            "floor_version": result["store_version"] - 1,
        }
        assert engine_rw.metrics.counter("serve.cache.stale") == 0

    def test_caches_hold_one_entry_per_question_across_writes(self, engine_rw):
        """The 450-write soak.  When the version was part of the key every
        write stranded a generation of entries and a sweep had to collect
        them; now a stale entry is replaced by its recomputation under the
        same key, so residency never passes the distinct questions asked —
        with no sweep."""
        questions = [BERLIN_Q, "What is the capital of Germany?", "Who created Wikipedia?"]
        phrases = set()
        for write in range(450):
            if write % 10 == 0:
                # Read by the first question: predicate and linked node.
                batch = [Triple(IRI("res:Berlin"), IRI("ont:mayor"), IRI(f"t:Mayor{write}"))]
            else:
                batch = [Triple(IRI(f"t:s{write}"), IRI("t:p"), IRI("t:o"))]
            engine_rw.ingest(batch)
            for question in questions:
                engine_rw.ask(question)
            assert len(engine_rw.answer_cache) == len(questions)
            phrases.update(engine_rw.link_cache._entries)
            assert len(engine_rw.link_cache) == len(phrases)
        assert len(phrases) <= 2 * len(questions)
        stats = engine_rw.answer_cache.stats()
        # One recomputation per conflicting write (the first is the cold miss).
        assert stats["misses"] == len(questions) + 44
        assert engine_rw.metrics.counter("serve.cache.stale") == 44
        assert stats["evictions"] == 0
        # A batch that changes nothing publishes no version and stamps nothing.
        before = engine_rw.stats()["ingest"]
        engine_rw.ingest([Triple(IRI("t:s1"), IRI("t:p"), IRI("t:o"))])
        assert engine_rw.stats()["ingest"] == before

    def test_reader_across_a_write_leaves_at_most_its_own_entry(self, engine_rw):
        """A question whose pipeline overlapped a conflicting write files
        its entry under the version it read *before* computing; the stamp
        carries the batch's last version, so the entry is never served and
        the next ask replaces it."""
        in_pipeline = threading.Event()
        written = threading.Event()
        system = engine_rw._system
        original = system.answer

        def slow_answer(question, tracer=None, deadline=None):
            answer = original(question, tracer=tracer, deadline=deadline)
            in_pipeline.set()
            assert written.wait(timeout=10)
            return answer

        system.answer = slow_answer
        try:
            reader = threading.Thread(target=engine_rw.ask, args=(BERLIN_Q,))
            reader.start()
            assert in_pipeline.wait(timeout=10)
            stale_version = engine_rw.store_version
            engine_rw.ingest(
                [Triple(IRI("res:Berlin"), IRI("ont:mayor"), IRI("t:NewMayor"))]
            )
            written.set()
            reader.join(timeout=10)
            assert not reader.is_alive()
        finally:
            written.set()
            system.answer = original
        assert [e.version for e in engine_rw.answer_cache._entries.values()] == [
            stale_version
        ]
        after = engine_rw.ask(BERLIN_Q)
        assert after["cached"] is False
        assert "t:NewMayor" in after["answers"]
        assert [e.version for e in engine_rw.answer_cache._entries.values()] == [
            engine_rw.store_version
        ]
        assert engine_rw.ask(BERLIN_Q)["cached"] is True

    def test_batch_that_fails_half_way_fails_closed(self, engine_rw):
        """Removes land before adds; if the adds then raise, the engine
        cannot say what the batch touched — every cached entry dies."""
        other = "What is the capital of Germany?"
        assert engine_rw.ask(BERLIN_Q)["answers"] == ["res:Klaus_Wowereit"]
        engine_rw.ask(other)
        mayor = Triple(IRI("res:Berlin"), IRI("ont:mayor"), IRI("res:Klaus_Wowereit"))
        with pytest.raises(AttributeError):
            engine_rw.ingest(["not a triple"], removes=[mayor])
        assert mayor not in engine_rw.kg.store
        after = engine_rw.ask(BERLIN_Q)
        assert (after["cached"], after["answers"]) == (False, [])
        assert engine_rw.ask(other)["cached"] is False
        assert engine_rw.stats()["ingest"]["floor_version"] == engine_rw.store_version
        assert engine_rw.kg.kernel.store_version == engine_rw.store_version

    def test_write_admission_rejects_burst(self, kg, dictionary, monkeypatch):
        monkeypatch.setattr(engine_module, "_INGEST_CAPACITY", 1)
        engine = fresh_engine(kg, dictionary)
        try:
            release = threading.Event()
            entered = threading.Event()

            original = engine.kg.refresh

            def slow_refresh(incremental=False):
                entered.set()
                release.wait(timeout=10)
                original(incremental=incremental)

            engine.kg.refresh = slow_refresh
            first = threading.Thread(
                target=engine.ingest,
                args=([Triple(IRI("t:s1"), IRI("t:p"), IRI("t:o1"))],),
            )
            first.start()
            assert entered.wait(timeout=10)
            with pytest.raises(AdmissionRejected):
                engine.ingest([Triple(IRI("t:s2"), IRI("t:p"), IRI("t:o2"))])
            release.set()
            first.join(timeout=10)
            assert engine.metrics.counter("serve.ingest.rejected") == 1
        finally:
            release.set()
            engine.kg.refresh = original
            engine.close()


class TestIngestOverABuiltGraph:
    def test_a_held_view_is_never_edited_under_its_reader(self, dictionary):
        """An engine over a builder's graph (what ``repro serve`` runs
        without ``--snapshot``) writes through an overlay: a row view a
        reader already holds, and an iteration over it, see no write."""
        kg = build_dbpedia_mini()
        engine = QAEngine(kg, dictionary, EngineConfig(pool_size=1))
        try:
            store = kg.store
            lookup = store.dictionary.lookup
            s, p = lookup(IRI("res:Berlin")), lookup(IRI("ont:mayor"))
            held = store.objects_ids(s, p)
            before = set(held)
            walk = iter(held)
            first = next(walk)
            engine.ingest([
                Triple(IRI("res:Berlin"), IRI("ont:mayor"), IRI(f"t:mayor{i}")) for i in range(3)
            ])
            assert set(held) == before
            assert {first, *walk} == before
            assert len(store.objects_ids(s, p)) == len(before) + 3
        finally:
            engine.close()


class TestEngineCompact:
    def test_compact_folds_delta_and_preserves_answers(self, engine_rw):
        engine_rw.ingest(
            [Triple(IRI("res:Berlin"), IRI("ont:mayor"), IRI("t:NewMayor"))]
        )
        engine_rw.ingest(
            [], removes=[
                Triple(IRI("res:Berlin"), IRI("ont:mayor"), IRI("res:Klaus_Wowereit"))
            ]
        )
        version = engine_rw.store_version
        size = len(engine_rw.kg.store)
        result = engine_rw.compact()
        assert result["store_version"] == version
        assert result["triples"] == size
        backend = engine_rw.kg.store.backend
        assert isinstance(backend, OverlayBackend)
        assert backend.delta_statistics() == {
            "base_triples": size, "delta_adds": 0, "tombstones": 0,
        }
        answer = engine_rw.ask(BERLIN_Q, use_cache=False)
        assert answer["answers"] == ["t:NewMayor"]
        assert engine_rw.metrics.counter("serve.compactions") == 1

    def test_compact_writes_snapshot(self, engine_rw, tmp_path):
        from repro.rdf.snapshot import load_snapshot

        engine_rw.ingest([Triple(IRI("t:s"), IRI("t:p"), IRI("t:o"))])
        path = tmp_path / "compacted.snap"
        engine_rw.compact(snapshot_path=str(path))
        state = load_snapshot(path)
        assert len(state.kg.store) == len(engine_rw.kg.store)
        assert state.kg.store.version == engine_rw.store_version


class TestAClosedEngineTakesNoWrites:
    def test_writes_after_close_are_refused_unapplied(self, kg, dictionary):
        """Regression: a closed engine acked a batch, moved the store
        version and compacted."""
        engine = fresh_engine(kg, dictionary)
        engine.ingest([Triple(IRI("t:s"), IRI("t:p"), IRI("t:o"))])
        engine.close()
        version, size = engine.store_version, len(engine.kg.store)
        with pytest.raises(EngineClosedError):
            engine.ingest([Triple(IRI("t:s2"), IRI("t:p"), IRI("t:o2"))])
        with pytest.raises(EngineClosedError):
            engine.ingest([], removes=[Triple(IRI("t:s"), IRI("t:p"), IRI("t:o"))])
        with pytest.raises(EngineClosedError):
            engine.compact()
        with pytest.raises(EngineClosedError):
            engine.refresh()
        assert (engine.store_version, len(engine.kg.store)) == (version, size)
        assert engine.kg.store.backend.delta_statistics()["delta_adds"] == 1  # not compacted
        assert engine.metrics.counter("serve.ingest.requests") == 1

    def test_close_returns_after_the_batch_past_the_check_is_acked(
        self, kg, dictionary, monkeypatch
    ):
        """A batch that passed the check before ``close`` is applied and
        acked before ``close`` returns; the next one is refused."""
        engine = fresh_engine(kg, dictionary)
        applied, release = threading.Event(), threading.Event()
        publish = engine._publish

        def held_publish(*args):  # between the batch's apply and its ack
            applied.set()
            assert release.wait(10)
            publish(*args)

        monkeypatch.setattr(engine, "_publish", held_publish)
        acked = []
        writer = threading.Thread(
            target=lambda: acked.append(
                engine.ingest([Triple(IRI("t:s"), IRI("t:p"), IRI("t:o"))])
            )
        )
        writer.start()
        closer = threading.Thread(target=engine.close)
        try:
            assert applied.wait(10)
            closer.start()
            closer.join(timeout=0.3)
            assert closer.is_alive() and not acked  # close() waits on the batch
        finally:
            release.set()
            writer.join(timeout=10)
        closer.join(timeout=10)
        assert not closer.is_alive() and acked[0]["added"] == 1
        version = engine.store_version
        with pytest.raises(EngineClosedError):
            engine.ingest([Triple(IRI("t:s2"), IRI("t:p"), IRI("t:o2"))])
        assert engine.store_version == version


@pytest.fixture(scope="module")
def served_rw(kg, dictionary):
    """A live ingest-enabled server over a private compacted store."""
    engine = fresh_engine(kg, dictionary)
    engine.warm()
    server = build_server(engine, port=0, ingest_token=TOKEN)
    port = server.server_address[1]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{port}", engine
    server.shutdown()
    server.server_close()
    engine.close()


def _post(url, payload, headers=None):
    data = json.dumps(payload).encode()
    request = urllib.request.Request(
        url, data=data, headers={"Content-Type": "application/json", **(headers or {})}
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        body = error.read()
        return error.code, json.loads(body) if body else {}


class TestHttpAuth:
    def test_missing_token_is_401(self, served_rw):
        base, _ = served_rw
        status, body = _post(f"{base}/ingest", {"add": [wire("t:a", "t:p", "t:b")]})
        assert status == 401
        assert "token" in body["error"]

    def test_wrong_token_is_401_and_counted(self, served_rw):
        base, engine = served_rw
        before = engine.metrics.counter("serve.ingest.unauthorized")
        status, _ = _post(
            f"{base}/compact", {}, headers={"X-Ingest-Token": "wrong"}
        )
        assert status == 401
        assert engine.metrics.counter("serve.ingest.unauthorized") == before + 1

    def test_bearer_header_accepted(self, served_rw):
        base, _ = served_rw
        status, body = _post(
            f"{base}/ingest",
            {"add": [wire("t:auth", "t:p", "t:bearer")]},
            headers={"Authorization": f"Bearer {TOKEN}"},
        )
        assert status == 200
        assert body["added"] == 1

    def test_writes_disabled_entirely_is_403(self, kg, dictionary):
        engine = fresh_engine(kg, dictionary)
        server = build_server(engine, port=0)  # no token configured
        port = server.server_address[1]
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            status, body = _post(
                f"http://127.0.0.1:{port}/ingest",
                {"add": [wire("t:a", "t:p", "t:b")]},
                headers={"X-Ingest-Token": "anything"},
            )
            assert status == 403
            assert "disabled" in body["error"]
        finally:
            server.shutdown()
            server.server_close()
            engine.close()


class TestHttpIngest:
    def _post_ingest(self, base, payload):
        return _post(
            f"{base}/ingest", payload, headers={"X-Ingest-Token": TOKEN}
        )

    def test_batch_roundtrip_with_literals(self, served_rw):
        base, engine = served_rw
        status, body = self._post_ingest(
            base,
            {
                "add": [
                    wire("t:http/s", "t:p", "t:http/o"),
                    ["t:http/s", "t:p", {"literal": "3", "datatype": "xsd:integer"}],
                ],
                "remove": [wire("t:http/s", "t:p", "t:absent")],
            },
        )
        assert status == 200
        assert (body["added"], body["removed"]) == (2, 0)
        assert body["delta"]["delta_adds"] >= 2
        assert body["store_version"] == engine.store_version

    def test_empty_batch_is_400(self, served_rw):
        base, _ = served_rw
        assert self._post_ingest(base, {})[0] == 400
        assert self._post_ingest(base, {"add": [], "remove": []})[0] == 400

    def test_malformed_triples_are_400(self, served_rw):
        base, _ = served_rw
        for bad in (
            [["t:s", "t:p"]],                                 # arity
            [["t:s", "t:p", 7]],                              # object type
            "not a list",
            [["t:s", {"literal": "x"}, "t:o"]],               # predicate type
            [["t:s", "t:p", {"literal": "x", "language": "en",
                             "datatype": "xsd:string"}]],     # both tags
        ):
            status, body = self._post_ingest(base, {"add": bad})
            assert status == 400, bad
            assert "error" in body

    def test_answer_flips_and_compaction_persists_it(self, served_rw):
        base, _ = served_rw
        ask = lambda: _post(f"{base}/ask", {"question": BERLIN_Q, "no_cache": True})
        status, before = ask()
        assert status == 200
        status, body = self._post_ingest(
            base, {"add": [wire("res:Berlin", "ont:mayor", "t:FlipMayor")]}
        )
        assert status == 200
        status, after = ask()
        assert "t:FlipMayor" in after["answers"]
        status, body = _post(
            f"{base}/compact", {}, headers={"X-Ingest-Token": TOKEN}
        )
        assert status == 200
        status, compacted = ask()
        assert "t:FlipMayor" in compacted["answers"]
        # roll back so sibling tests see the canonical answer set
        status, _ = self._post_ingest(
            base, {"remove": [wire("res:Berlin", "ont:mayor", "t:FlipMayor")]}
        )
        assert status == 200

    def test_stats_reports_overlay_delta(self, served_rw):
        base, _ = served_rw
        self._post_ingest(base, {"add": [wire("t:stat", "t:p", "t:o")]})
        with urllib.request.urlopen(f"{base}/stats", timeout=30) as response:
            stats = json.loads(response.read())
        assert "overlay" in stats["store"]
        assert stats["store"]["overlay"]["delta_adds"] >= 1

    def test_compact_validates_params(self, served_rw):
        base, _ = served_rw
        headers = {"X-Ingest-Token": TOKEN}
        assert _post(
            f"{base}/compact", {"snapshot_path": 7}, headers=headers
        )[0] == 400

    def test_compact_into_a_missing_directory_is_400(self, served_rw, tmp_path):
        base, engine = served_rw
        internal = engine.metrics.counter("serve.internal_errors")
        target = tmp_path / "missing" / "x.snap"
        status, body = _post(
            f"{base}/compact", {"snapshot_path": str(target)},
            headers={"X-Ingest-Token": TOKEN},
        )
        assert status == 400
        assert body["error"].startswith(f"cannot write snapshot {target}: ")
        assert engine.metrics.counter("serve.internal_errors") == internal
        assert _post(f"{base}/ask", {"question": BERLIN_Q})[0] == 200

    def test_compact_onto_a_directory_is_400(self, served_rw, tmp_path):
        base, engine = served_rw
        internal = engine.metrics.counter("serve.internal_errors")
        target = tmp_path / "dir"
        target.mkdir()
        status, body = _post(
            f"{base}/compact", {"snapshot_path": str(target)},
            headers={"X-Ingest-Token": TOKEN},
        )
        assert status == 400
        assert body["error"].startswith(f"cannot write snapshot {target}: ")
        assert engine.metrics.counter("serve.internal_errors") == internal
        assert list(tmp_path.iterdir()) == [target] and list(target.iterdir()) == []
        assert _post(f"{base}/ask", {"question": BERLIN_Q})[0] == 200


class TestPreforkGuard:
    def test_ingest_token_with_workers_refused(self):
        with pytest.raises(SystemExit, match="workers 1"):
            main(["serve", "--workers", "2", "--ingest-token", "x"])
