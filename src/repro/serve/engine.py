"""The warm QA engine: one long-lived pipeline amortized across requests.

The paper's online phase (Section 4.2, Table 11) answers in sub-second
time *because* everything expensive — the paraphrase dictionary, the
linker's label index, the adjacency kernel — was built offline.  The
one-shot CLI pays that setup on every invocation; :class:`QAEngine` pays
it once at startup and then serves questions from a bounded thread pool:

* **warm state** — knowledge graph, mined dictionary, entity-linker index
  and adjacency kernel are constructed (and exercised) in :meth:`warm`;
* **caching** — answers and entity-link candidates are cached under keys
  that include the store version and a config fingerprint
  (:mod:`repro.serve.cache`), so `KnowledgeGraph.refresh()` after a store
  mutation invalidates by construction;
* **admission control** — at most ``pool_size + queue_limit`` requests in
  flight; beyond that :class:`AdmissionRejected` (HTTP 429 upstream);
* **deadlines** — a per-request budget threaded into the top-k search,
  which stops cooperatively and returns partial top-k with
  ``terminated_by="deadline"``;
* **degradation** — past a pressure threshold requests are answered by a
  degraded pipeline (smaller k, trimmed candidate lists) and marked
  ``degraded: true``.

Each request runs under its own tracer (or the no-op), never the
process-wide default: the recording :class:`~repro.obs.Tracer` keeps a
span *stack* and is single-threaded by design.
"""

from __future__ import annotations

import itertools
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field

from repro import obs
from repro.contracts import fork_shared, guarded_by, single_threaded
from repro.core.pipeline import Answer, GAnswer
from repro.exceptions import EngineClosedError
from repro.linking.linker import EntityLinker
from repro.obs.metrics import Metrics
from repro.paraphrase.dictionary import ParaphraseDictionary
from repro.rdf.graph import KnowledgeGraph
from repro.rdf.terms import Triple
from repro.serve.admission import AdmissionController, AdmissionRejected
from repro.serve.cache import CachingLinker, TTLCache, answer_cache_key

__all__ = ["EngineConfig", "QAEngine", "ServedSystem", "AdmissionRejected"]


@dataclass(frozen=True, slots=True)
class EngineConfig:
    """Tunables of one serving engine (all surfaced as CLI flags)."""

    k: int = 10                       # top-k matches per question
    pool_size: int = 4                # worker threads answering questions
    queue_limit: int = 12             # extra requests allowed to wait
    deadline_s: float | None = 10.0   # default per-request budget (None = off)
    cache_size: int = 1024            # answer cache entries (0 disables)
    cache_ttl_s: float = 300.0        # answer cache TTL
    link_cache_size: int = 4096       # entity-link candidate cache entries
    link_cache_ttl_s: float = 600.0   # link cache TTL
    degrade_pressure: float = 0.75    # admission occupancy that triggers degradation
    degraded_k: int = 3               # top-k under degradation
    degraded_candidate_limit: int = 3  # candidate-list width under degradation
    enable_aggregation: bool = False  # superlative post-processing extension
    ingest_capacity: int = 2          # ingest batches in flight (excess → 429)

    def __post_init__(self) -> None:
        if self.pool_size < 1:
            raise ValueError("pool_size must be at least 1")
        if self.queue_limit < 0:
            raise ValueError("queue_limit must be >= 0")
        if not 0.0 <= self.degrade_pressure <= 1.0:
            raise ValueError("degrade_pressure must be in [0, 1]")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError("deadline_s must be positive when set")
        if self.ingest_capacity < 1:
            raise ValueError("ingest_capacity must be at least 1")

    def fingerprint(self) -> str:
        """Stable digest of every knob that changes *answers* (cache key part)."""
        return (
            f"k={self.k};agg={int(self.enable_aggregation)};"
            f"dk={self.degraded_k};dcl={self.degraded_candidate_limit}"
        )


@dataclass(slots=True)
class EngineResult:
    """What the engine computed for one question (the cacheable part)."""

    answer: Answer
    degraded: bool = False
    #: Monotonic timestamp of computation — informational only; freshness
    #: is enforced by the answer cache's own TTL clock.  Only meaningful
    #: within the process that computed it: monotonic anchors do not
    #: travel across a fork, which is why :meth:`QAEngine.reset_after_fork`
    #: drops inherited cache entries instead of trusting their stamps.
    computed_at: float = field(default_factory=time.monotonic)


@guarded_by("_state_lock", "_ready", "_closed")
@fork_shared("config", "kg", "dictionary", "linker", "_system", "_degraded_system")
class QAEngine:
    """A resident :class:`GAnswer` wrapper serving many questions.

    Parameters
    ----------
    kg, dictionary:
        The warm offline state: knowledge graph and mined paraphrase
        dictionary (share them with the offline miner / evaluation).
    config:
        An :class:`EngineConfig`; defaults serve interactive workloads.
    """

    def __init__(
        self,
        kg: KnowledgeGraph,
        dictionary: ParaphraseDictionary,
        config: EngineConfig | None = None,
        base_linker: EntityLinker | None = None,
    ):
        self.config = config if config is not None else EngineConfig()
        self.kg = kg
        self.dictionary = dictionary
        self.metrics = Metrics()
        self.answer_cache = TTLCache(
            maxsize=self.config.cache_size,
            ttl=self.config.cache_ttl_s,
            metrics=self.metrics,
            name="serve.cache",
        )
        self.link_cache = TTLCache(
            maxsize=self.config.link_cache_size,
            ttl=self.config.link_cache_ttl_s,
            metrics=self.metrics,
            name="serve.link_cache",
        )
        if base_linker is None:
            base_linker = EntityLinker(kg)
        self.linker = CachingLinker(base_linker, self.link_cache, kg.store)
        self._system = GAnswer(
            kg,
            dictionary,
            k=self.config.k,
            enable_aggregation=self.config.enable_aggregation,
            linker=self.linker,
        )
        self._degraded_system = GAnswer(
            kg,
            dictionary,
            k=self.config.degraded_k,
            enable_aggregation=self.config.enable_aggregation,
            linker=self.linker,
            candidate_limit=self.config.degraded_candidate_limit,
        )
        self.admission = AdmissionController(
            capacity=self.config.pool_size + self.config.queue_limit,
            metrics=self.metrics,
        )
        self.write_admission = AdmissionController(
            capacity=self.config.ingest_capacity,
            metrics=self.metrics,
            prefix="serve.ingest",
        )
        self._pool = ThreadPoolExecutor(
            max_workers=self.config.pool_size, thread_name_prefix="qa-engine"
        )
        self._trace_ids = itertools.count(1)
        self._started_at = time.monotonic()
        self._ready = False
        self._closed = False
        self._warm_lock = threading.Lock()
        self._state_lock = threading.Lock()
        self._ingest_lock = threading.Lock()

    @classmethod
    def from_snapshot(
        cls, path, config: EngineConfig | None = None
    ) -> "QAEngine":
        """An engine booted from a compiled snapshot (``repro compile``).

        The snapshot restores the frozen store, the prebuilt kernel and
        graph caches, the id-level paraphrase dictionary, and the
        compiled linker index — :meth:`warm` then finds everything
        already built, so cold start is dominated by file decode instead
        of parsing, re-indexing, and label scanning.
        """
        from repro.rdf.snapshot import load_snapshot

        state = load_snapshot(path)
        return cls(
            state.kg,
            state.dictionary,
            config,
            base_linker=state.build_linker(),
        )

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def warm(self) -> dict:
        """Build every lazy structure the first request would otherwise pay.

        Touches the adjacency kernel, the class set, the label index, and
        the linker's label index; returns the kernel statistics so callers
        (the CLI, /healthz diagnostics) can report the warmed footprint.
        Idempotent and safe to call concurrently.
        """
        with self._warm_lock:
            with self.metrics_span("serve.warmup"):
                kernel = self.kg.kernel
                _ = self.kg.class_ids
                _ = self.kg.label_index
                _ = self.linker.index  # builds the wrapped linker's LabelIndex
                stats = kernel.statistics()
            with self._state_lock:
                self._ready = True
            return stats

    def metrics_span(self, name: str):
        """A duration observation recorded as ``{name}_ms`` on exit."""
        engine = self

        class _Timed:
            def __enter__(self):
                self._started = time.monotonic()
                return self

            def __exit__(self, exc_type, exc, tb):
                engine.metrics.observe(
                    f"{name}_ms", (time.monotonic() - self._started) * 1000.0
                )
                return False

        return _Timed()

    @property
    def ready(self) -> bool:
        with self._state_lock:
            return self._ready and not self._closed

    @property
    def store_version(self) -> int:
        return self.kg.store_version

    def uptime_s(self) -> float:
        return time.monotonic() - self._started_at

    def refresh(self) -> None:
        """Re-derive graph caches after a store mutation.

        The answer/link caches need no flush: their keys carry the store
        version, so entries computed before the mutation can no longer be
        looked up.
        """
        self.kg.refresh()

    @single_threaded
    def reset_after_fork(self) -> "QAEngine":
        """Re-anchor every per-process structure in a forked worker.

        ``os.fork()`` copies the engine's Python state but not its
        threads, and monotonic clock anchors taken in the parent are not
        meaningful in the child (``CLOCK_MONOTONIC`` happens to be
        system-wide on Linux, but nothing guarantees it elsewhere, and a
        cache entry stamped before the fork describes the parent's
        traffic either way).  Call this in the child — while it is still
        single-threaded, before serving — to rebuild:

        * the worker pool (the parent's pool threads do not exist here);
        * the admission controller (fresh in-flight/peak accounting);
        * the answer/link caches (entries + stats dropped; TTL anchors
          restart on this process's clock; their *locks* are replaced —
          a parent thread holding one at fork time leaves the copied
          lock locked forever in the child);
        * the metrics registry (same lock-replacement reasoning),
          trace-id counter, uptime anchor, and the engine's own locks.

        The expensive shared state — knowledge graph, kernel rows,
        dictionary, linker index, and any mmap-backed triple columns —
        is untouched: that is exactly what the fork is sharing.
        Returns ``self``; call :meth:`warm` afterwards to flip ready.
        """
        self._pool = ThreadPoolExecutor(
            max_workers=self.config.pool_size, thread_name_prefix="qa-engine"
        )
        self.metrics.reset_after_fork()
        self.admission = AdmissionController(
            capacity=self.config.pool_size + self.config.queue_limit,
            metrics=self.metrics,
        )
        self.write_admission = AdmissionController(
            capacity=self.config.ingest_capacity,
            metrics=self.metrics,
            prefix="serve.ingest",
        )
        self.answer_cache.reset_after_fork()
        self.link_cache.reset_after_fork()
        self._warm_lock = threading.Lock()
        self._state_lock = threading.Lock()
        self._ingest_lock = threading.Lock()
        self._trace_ids = itertools.count(1)
        self._started_at = time.monotonic()
        self._ready = False
        self._closed = False
        return self

    def close(self) -> None:
        with self._state_lock:
            self._closed = True
        self._pool.shutdown(wait=True)

    def __enter__(self) -> "QAEngine":
        self.warm()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    # ------------------------------------------------------------------ #
    # Serving
    # ------------------------------------------------------------------ #

    def ask(
        self,
        question: str,
        deadline_s: float | None = None,
        trace: bool = False,
        use_cache: bool = True,
    ) -> dict:
        """Answer one question through admission control and the pool.

        Returns the JSON-ready response dict (see :meth:`_render`).
        Raises :class:`AdmissionRejected` when the request budget is full.
        ``use_cache=False`` bypasses the answer cache in both directions
        (no lookup, no store) — cache-miss benchmark passes use it to
        measure the engine instead of the cache.
        """
        with self.admission.admit():
            future = self._submit(question, deadline_s, trace, use_cache)
            result, tracer, from_cache = future.result()
        return self._render(result, tracer, from_cache)

    def batch(
        self,
        questions: list[str],
        deadline_s: float | None = None,
        use_cache: bool = True,
    ) -> list[dict]:
        """Fan a list of questions out over the pool; one response per
        question, in order.  Questions the admission budget rejects come
        back as ``{"error": "busy"}`` entries instead of failing the batch.
        """
        # Every admitted slot is released on every exit path: a question
        # that raises (or a closed engine mid-loop) must not leak the
        # slots of the questions around it.
        tokens: list = []
        pending: list[tuple[Future, object] | None] = []
        try:
            for question in questions:
                try:
                    token = self.admission.admit()
                except AdmissionRejected:
                    pending.append(None)
                    continue
                tokens.append(token)
                pending.append(
                    (self._submit(question, deadline_s, False, use_cache), token)
                )
            responses: list[dict] = []
            for entry in pending:
                if entry is None:
                    responses.append({"error": "busy", "status": 429})
                    continue
                future, token = entry
                result, tracer, from_cache = future.result()
                responses.append(self._render(result, tracer, from_cache))
                token.release()
            return responses
        finally:
            for token in tokens:
                token.release()

    def ask_answer(self, question: str, deadline_s: float | None = None) -> Answer:
        """The raw pipeline :class:`Answer` through the warm path.

        The interactive shell and the served evaluation adapter use this:
        same admission, pool, cache, and degradation behavior as
        :meth:`ask`, but the caller gets term objects instead of strings.
        Treat the result as read-only — cached answers are shared.
        """
        with self.admission.admit():
            result, _tracer, _cached = self._submit(
                question, deadline_s, False, True
            ).result()
        return result.answer

    def as_system(self) -> "ServedSystem":
        """An ``evaluate_system``-compatible adapter over this engine."""
        return ServedSystem(self)

    # ------------------------------------------------------------------ #
    # Live ingest
    # ------------------------------------------------------------------ #

    def _ensure_writable(self) -> None:
        """Wrap a frozen store in a writable overlay, once, in place.

        Caller holds ``_ingest_lock``.  The swap keeps length and version
        (the overlay starts with an empty delta), so readers and the
        kernel are unaffected; only the facade's backend pointer changes.
        """
        store = self.kg.store
        if not store.writable:
            store.swap_backend(store.overlay().backend)

    def ingest(
        self,
        adds: list[Triple],
        removes: list[Triple] | None = None,
        tracer: "obs.Tracer | None" = None,
    ) -> dict:
        """Apply one batch of triple adds/removes to the live store.

        Writers serialize on the ingest lock; at most
        ``config.ingest_capacity`` batches may be in flight (running or
        waiting on the lock) before :class:`AdmissionRejected` — writes
        get their own admission budget so a write burst turns into 429s
        instead of starving question answering.

        After the batch lands the graph is refreshed with *incremental*
        kernel patching: only adjacency rows of touched nodes are
        rebuilt, the rest are reused by reference.  Readers never block —
        the overlay publishes rows copy-on-write and the version bump per
        mutation invalidates answer-cache entries by construction.
        """
        removes = removes if removes is not None else []
        span = tracer.span if tracer is not None else obs.NOOP.span
        with self.write_admission.admit():
            with self._ingest_lock:
                with self.metrics_span("serve.ingest"):
                    self._ensure_writable()
                    store = self.kg.store
                    with span("ingest.apply", adds=len(adds), removes=len(removes)):
                        removed = sum(1 for triple in removes if store.remove(triple))
                        added = store.add_all(adds)
                    if added or removed:
                        with span("ingest.refresh"):
                            self.kg.refresh(incremental=True)
        self.metrics.incr("serve.ingest.requests")
        self.metrics.incr("serve.ingest.added_triples", added)
        self.metrics.incr("serve.ingest.removed_triples", removed)
        backend = self.kg.store.backend
        delta = getattr(backend, "delta_statistics", None)
        return {
            "added": added,
            "removed": removed,
            "store_version": self.store_version,
            "triples": len(self.kg.store),
            "delta": delta() if delta is not None else None,
        }

    def compact(
        self,
        shards: int | None = None,
        snapshot_path: str | None = None,
    ) -> dict:
        """Re-compact base + delta into a fresh frozen base and swap it in.

        Runs under the ingest lock (writers pause; readers keep going
        against the old backend) and swaps atomically: the new backend is
        a fresh overlay with an empty delta over a rebuilt frozen base
        holding identical content at the same version, so the kernel and
        every version-keyed cache stay valid with no refresh.  In-flight
        iterators drain against the old backend, whose mmap (if any) is
        released when the last reference drops.

        ``shards=K`` rebuilds into a sharded base; ``snapshot_path``
        additionally persists a compiled snapshot of the compacted state
        (single-file, or sharded when ``shards`` is set).
        """
        with self._ingest_lock:
            with self.metrics_span("serve.compact"):
                store = self.kg.store
                if shards is not None and shards > 1:
                    frozen = store.sharded(shards)
                else:
                    frozen = store.compacted()
                store.swap_backend(frozen.overlay().backend)
                if snapshot_path is not None:
                    from repro.rdf.snapshot import compile_snapshot

                    compile_snapshot(
                        snapshot_path, self.kg, self.dictionary, shards=shards
                    )
        self.metrics.incr("serve.compactions")
        return {
            "triples": len(self.kg.store),
            "store_version": self.store_version,
            "shards": shards,
            "snapshot": snapshot_path,
        }

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _submit(
        self, question: str, deadline_s: float | None, trace: bool,
        use_cache: bool = True,
    ) -> Future:
        with self._state_lock:
            if self._closed:
                raise EngineClosedError("engine is closed")
        return self._pool.submit(
            self._process, question, deadline_s, trace, use_cache
        )

    def _process(
        self, question: str, deadline_s: float | None, trace: bool,
        use_cache: bool = True,
    ) -> tuple[EngineResult, "obs.Tracer | None", bool]:
        started = time.monotonic()
        self.metrics.incr("serve.requests")
        key = answer_cache_key(
            question, self.store_version, self.config.fingerprint()
        )
        if use_cache:
            cached = self.answer_cache.get(key)
            if cached is not None:
                self.metrics.observe(
                    "serve.latency_ms", (time.monotonic() - started) * 1000.0
                )
                return cached, None, True
        else:
            self.metrics.incr("serve.cache_bypass")

        degraded = self.admission.pressure() >= self.config.degrade_pressure
        system = self._degraded_system if degraded else self._system
        if degraded:
            self.metrics.incr("serve.degraded")

        budget = deadline_s if deadline_s is not None else self.config.deadline_s
        deadline = None if budget is None else started + budget
        tracer = obs.Tracer() if trace else obs.NOOP
        answer = system.answer(question, tracer=tracer, deadline=deadline)

        result = EngineResult(answer=answer, degraded=degraded)
        if answer.terminated_by == "deadline":
            self.metrics.incr("serve.deadline_expired")
        elif not degraded and use_cache:
            # Partial (deadline-cut) and degraded answers are never cached:
            # a later uncontended request should get the full-quality one.
            # Bypassed requests don't store either — a cache-miss
            # measurement pass must not warm the cache it is avoiding.
            self.answer_cache.put(key, result)
        self.metrics.observe(
            "serve.latency_ms", (time.monotonic() - started) * 1000.0
        )
        return result, (tracer if trace else None), False

    def _render(self, result: EngineResult, tracer, from_cache: bool = False) -> dict:
        """The JSON response body for one computed (or cached) result."""
        answer = result.answer
        response = {
            "trace_id": f"req-{next(self._trace_ids)}",
            "question": answer.question,
            "answers": [str(term) for term in answer.answers],
            "boolean": answer.boolean,
            "processed": answer.processed,
            "failure": answer.failure,
            "terminated_by": answer.terminated_by,
            "sparql": answer.sparql_queries[0] if answer.sparql_queries else None,
            "degraded": result.degraded,
            "cached": from_cache,
            "store_version": self.store_version,
            "timings_ms": {
                "understanding": round(answer.understanding_time * 1000.0, 3),
                "evaluation": round(answer.evaluation_time * 1000.0, 3),
                "total": round(answer.total_time * 1000.0, 3),
            },
        }
        if tracer is not None and tracer.enabled:
            response["trace"] = tracer.summary()
        return response

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def stats(self) -> dict:
        """The ``GET /stats`` body: caches, admission, kernel, store."""
        backend = self.kg.store.backend
        store_stats: dict = {"backend": type(backend).__name__}
        delta = getattr(backend, "delta_statistics", None)
        if delta is not None:
            # Overlay store: base/delta/tombstone sizes tell operators
            # when an online compaction is worth triggering.
            store_stats["overlay"] = delta()
        shards = getattr(backend, "shards", None)
        if shards is not None:
            # Sharded store: report residency so operators can see lazy
            # segment loading (and eviction) at work.
            store_stats["shards"] = shards
            store_stats["loaded_segments"] = backend.loaded_segments()
        return {
            "store_version": self.store_version,
            "uptime_s": round(self.uptime_s(), 3),
            "ready": self.ready,
            "store": store_stats,
            "config": {
                "k": self.config.k,
                "pool_size": self.config.pool_size,
                "queue_limit": self.config.queue_limit,
                "deadline_s": self.config.deadline_s,
                "degrade_pressure": self.config.degrade_pressure,
                "degraded_k": self.config.degraded_k,
            },
            "answer_cache": self.answer_cache.stats(),
            "link_cache": self.link_cache.stats(),
            "admission": self.admission.stats(),
            "kernel": self.kg.kernel.statistics(),
        }


class ServedSystem:
    """Adapter: the engine as an ``evaluate_system``-compatible system.

    Each ``answer()`` goes through the engine's full serving path —
    admission, pool, answer cache, degradation — so an evaluation run
    through it exercises exactly what production requests exercise.
    """

    def __init__(self, engine: QAEngine):
        self.engine = engine

    def answer(self, question: str) -> Answer:
        return self.engine.ask_answer(question)
