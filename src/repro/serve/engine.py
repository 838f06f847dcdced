"""The warm QA engine: one long-lived pipeline amortized across requests.

The paper's online phase (Section 4.2, Table 11) answers in sub-second
time *because* everything expensive — the paraphrase dictionary, the
linker's label index, the permutation-indexed store the adjacency kernel
reads — was built offline.  The
one-shot CLI pays that setup on every invocation; :class:`QAEngine` pays
it once at startup and then answers each question on the thread that
asked it — the engine owns no threads of its own:

* **warm state** — knowledge graph, mined dictionary, entity-linker index
  and adjacency kernel are constructed (and exercised) in :meth:`warm`;
* **caching** — answers and entity-link candidates are cached with the
  predicates and label words they read (:mod:`repro.serve.cache`); a
  write stamps what it touched, so a cached value is served only while
  recomputing it would give the same value, and survives every batch
  that touches none of what it read;
* **admission control** — at most ``pool_size`` pipelines interleave
  (a semaphore the request thread holds while it answers), at most
  ``queue_limit`` more wait for a slot; beyond that
  :class:`AdmissionRejected` (HTTP 429 upstream);
* **deadlines** — a per-request budget, counted from admission, threaded
  into the top-k search, which stops cooperatively and returns partial
  top-k with ``terminated_by="deadline"``.

Each request runs under its own tracer (or the no-op), never the
process-wide default: the recording :class:`~repro.obs.Tracer` keeps a
span *stack* and is single-threaded by design.

An engine is never carried across ``os.fork()``: a pre-fork deployment
builds the heavy immutable state once (:meth:`QAEngine.factory`) and each
worker builds its own engine over it *after* the fork, so every lock,
cache, counter and clock anchor is born in the process that uses it.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import threading
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from repro import obs
from repro.contracts import guarded_by
from repro.core.pipeline import Answer, GAnswer
from repro.exceptions import EngineClosedError, EngineConfigError
from repro.linking.linker import EntityLinker
from repro.obs.metrics import Metrics
from repro.paraphrase.dictionary import ParaphraseDictionary
from repro.rdf.graph import KnowledgeGraph
from repro.rdf.terms import Term, Triple
from repro.serve.admission import AdmissionController, AdmissionRejected
from repro.serve.cache import CachingLinker, LRUCache, ReadStamps, Stamped

__all__ = ["EngineConfig", "QAEngine", "AdmissionRejected"]

#: Entity-link candidate cache entries.  A constant, not an
#: :class:`EngineConfig` field — no deployment has needed another value.
_LINK_CACHE_SIZE = 4096
#: Ingest batches in flight (running or waiting) before a write is a 429.
_INGEST_CAPACITY = 2


@dataclass(frozen=True, slots=True)
class EngineConfig:
    """Tunables of one serving engine.

    Every field is a CLI flag: the global ``--k`` and ``--aggregation``,
    and ``repro serve``'s ``--pool-size``, ``--queue-limit``,
    ``--deadline`` and ``--cache-size``.  The link-cache size and the
    ingest admission budget are not tunables at all: module constants
    above.
    """

    k: int = 10                       # top-k matches per question
    pool_size: int = 4                # concurrent answering slots
    queue_limit: int = 12             # extra requests allowed to wait
    deadline_s: float | None = 10.0   # default per-request budget (None = off)
    cache_size: int = 1024            # answer cache entries (0 disables)
    enable_aggregation: bool = False  # superlative post-processing extension

    def __post_init__(self) -> None:
        if self.pool_size < 1:
            raise EngineConfigError("pool_size must be at least 1")
        if self.queue_limit < 0:
            raise EngineConfigError("queue_limit must be >= 0")
        if self.cache_size < 0:
            raise EngineConfigError(f"cache_size must be >= 0: {self.cache_size}")
        # NaN fails both comparisons; a deadline at NaN or inf never comes due.
        if self.deadline_s is not None and not 0 < self.deadline_s < math.inf:
            raise EngineConfigError(f"deadline_s must be positive and finite: {self.deadline_s}")


def _warm_shared(kg: KnowledgeGraph, linker: "EntityLinker | CachingLinker") -> dict:
    """Build the lazy structures every engine over ``kg`` shares.

    Touches the adjacency kernel and the linker's label index; returns the
    kernel statistics, with the linker's under ``linker`` and the term
    table's under ``store``.  Over an opened snapshot it boxes no kernel
    row and decodes no term.
    """
    kernel = kg.kernel
    _ = linker.index
    return {
        **kernel.statistics(),
        "linker": linker.statistics(),
        "store": kg.store.dictionary.statistics(),
    }


def _process_memory() -> dict[str, float] | None:
    """This process's resident size now and at its peak, in MB, from
    ``/proc/self/status`` (``VmRSS``, ``VmHWM``); ``None`` where that file
    does not exist."""
    try:
        with open("/proc/self/status", encoding="utf-8") as status:
            fields = dict(line.split(":", 1) for line in status if ":" in line)
        return {
            name: round(int(fields[key].split()[0]) / 1024.0, 2)
            for name, key in (("rss_mb", "VmRSS"), ("peak_rss_mb", "VmHWM"))
        }
    except (OSError, KeyError, ValueError):
        return None


@guarded_by("_state_lock", "_ready", "_closed")
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
        self.answer_cache = LRUCache(self.config.cache_size, self.metrics, "serve.cache")
        self.link_cache = LRUCache(_LINK_CACHE_SIZE, self.metrics, "serve.link_cache")
        if base_linker is None:
            base_linker = EntityLinker(kg)
        #: What each write touched; both caches validate against it.
        self.stamps = ReadStamps(kg.store_version)
        self.linker = CachingLinker(base_linker, self.link_cache, self.stamps)
        self._system = GAnswer(
            kg,
            dictionary,
            k=self.config.k,
            enable_aggregation=self.config.enable_aggregation,
            linker=self.linker,
        )
        self.admission = AdmissionController(
            capacity=self.config.pool_size + self.config.queue_limit,
            metrics=self.metrics,
        )
        self.write_admission = AdmissionController(
            capacity=_INGEST_CAPACITY,
            metrics=self.metrics,
            prefix="serve.ingest",
        )
        #: Terms encoded from here on are the ones :meth:`compact` may
        #: reclaim (over a snapshot: the ids past its frozen base).
        self._term_floor = len(kg.store.dictionary)
        #: ``(epoch, ids)`` a compaction retired, oldest first; reclaimed
        #: once every request admitted up to that epoch has finished.
        #: Touched under ``_ingest_lock`` only.
        self._retired: list[tuple[int, list[int]]] = []
        self._slots = threading.BoundedSemaphore(self.config.pool_size)
        self._trace_ids = itertools.count(1)
        self._started_at = time.monotonic()
        self._ready = False
        self._closed = False
        self._lifecycle_lock = threading.Lock()
        self._state_lock = threading.Lock()
        self._ingest_lock = threading.Lock()

    @classmethod
    def from_snapshot(
        cls, path, config: EngineConfig | None = None
    ) -> "QAEngine":
        """An engine booted from a compiled snapshot (``repro compile``).

        The snapshot restores the frozen store (whose permutation runs
        the kernel reads its rows from), the id-level paraphrase
        dictionary, and the compiled linker index — :meth:`warm` then
        finds everything already built, so cold start is dominated by
        file decode instead of parsing, re-indexing, and label scanning.
        """
        from repro.rdf.snapshot import load_snapshot

        state = load_snapshot(path)
        return cls(
            state.kg,
            state.dictionary,
            config,
            base_linker=state.build_linker(),
        )

    @classmethod
    def factory(
        cls,
        kg: KnowledgeGraph,
        dictionary: ParaphraseDictionary,
        config: EngineConfig | None = None,
        base_linker: EntityLinker | None = None,
    ) -> Callable[[], "QAEngine"]:
        """Build the shared state now; return a maker of engines over it.

        The split a pre-fork deployment needs: the supervisor calls this
        once — the kernel and the linker index are built
        here, in the caller's process — and every worker calls the
        returned zero-argument factory *after* ``os.fork()``, so the heavy
        state is shared copy-on-write while every per-process structure
        (locks, caches, admission, metrics, clock anchors) is created by
        ``__init__`` in the process that uses it.
        """
        if base_linker is None:
            base_linker = EntityLinker(kg)
        _warm_shared(kg, base_linker)
        return functools.partial(cls, kg, dictionary, config, base_linker)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def warm(self) -> dict:
        """Build every lazy structure the first request would otherwise pay.

        Touches the adjacency kernel and the linker's label index;
        returns the kernel statistics (the
        linker's under ``linker``, the term table's under ``store``) so
        callers (the CLI, /healthz diagnostics) can report the warmed
        footprint.
        Idempotent and safe to call concurrently.
        """
        with self._lifecycle_lock:
            with self.metrics_span("serve.warmup"):
                stats = _warm_shared(self.kg, self.linker)
            with self._state_lock:
                self._ready = True
            return stats

    @contextlib.contextmanager
    def metrics_span(self, name: str) -> Iterator[None]:
        """A duration observation recorded as ``{name}_ms`` on exit."""
        started = time.monotonic()
        try:
            yield
        finally:
            self.metrics.observe(
                f"{name}_ms", (time.monotonic() - started) * 1000.0
            )

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
        """Re-derive graph caches after a store mutation made behind the
        engine's back (anything but :meth:`ingest`).

        The engine cannot know what such a mutation touched, so the store
        version it finds is published as one that touched everything:
        every answer and link list cached before this call is dead.
        Waits for a running :meth:`ingest` or :meth:`compact`; raises
        :class:`EngineClosedError` after :meth:`close`.
        """
        with self._ingest_lock:
            self._refuse_if_closed()
            self.kg.refresh()
            self.stamps.publish_all(self.store_version)

    def close(self) -> None:
        """Refuse new work and return once in-flight answers and writes
        have finished.

        A write (:meth:`ingest`, :meth:`compact`, :meth:`refresh`) checks
        the flag under the ingest lock, and ``close`` takes that lock
        after setting it: a batch already past the check is applied and
        acked before ``close`` returns, and none is acked after it.
        Holding every slot means no pipeline is running; handing them back
        wakes the asks still waiting for one, which then see the flag and
        raise :class:`EngineClosedError`.  One closer drains at a time: two
        would each take some of the slots and wait for the rest forever.
        """
        with self._state_lock:
            self._closed = True
        with self._ingest_lock:
            pass  # a batch already past the check is acked first
        with self._lifecycle_lock:
            for _ in range(self.config.pool_size):
                self._slots.acquire()
            for _ in range(self.config.pool_size):
                self._slots.release()

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
        """Answer one question on the calling thread, under admission control.

        Returns the JSON-ready response dict (see :meth:`_render`).
        Raises :class:`AdmissionRejected` when the request budget is full.
        ``use_cache=False`` bypasses the answer cache in both directions
        (no lookup, no store) — cache-miss benchmark passes use it to
        measure the engine instead of the cache.
        """
        return self._render(*self._process(question, deadline_s, trace, use_cache))

    def batch(
        self,
        questions: list[str],
        deadline_s: float | None = None,
        use_cache: bool = True,
    ) -> list[dict]:
        """Answer a list of questions in turn; one response per question,
        in order.  Questions the admission budget rejects come back as
        ``{"error": "busy"}`` entries instead of failing the batch.
        """
        responses: list[dict] = []
        for question in questions:
            try:
                responses.append(self.ask(question, deadline_s, use_cache=use_cache))
            except AdmissionRejected:
                responses.append({"error": "busy", "status": 429})
        return responses

    def answer(self, question: str, deadline_s: float | None = None) -> Answer:
        """The raw pipeline :class:`Answer` through the warm path.

        What makes the engine an ``evaluate_system``-compatible system;
        the interactive shell uses it too.  Same admission and cache
        behavior as :meth:`ask`, but the caller gets term
        objects instead of strings.  Treat the result as read-only —
        cached answers are shared.
        """
        return self._process(question, deadline_s, False)[0]

    # ------------------------------------------------------------------ #
    # Live ingest
    # ------------------------------------------------------------------ #

    def _refuse_if_closed(self) -> None:
        """Raise :class:`EngineClosedError` once :meth:`close` was called.
        Caller holds ``_ingest_lock``."""
        with self._state_lock:
            if self._closed:
                raise EngineClosedError("engine is closed")

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
        ``_INGEST_CAPACITY`` batches may be in flight (running or
        waiting on the lock) before :class:`AdmissionRejected` — writes
        get their own admission budget so a write burst turns into 429s
        instead of starving question answering.

        After the batch lands the graph is refreshed *incrementally*: the
        new kernel carries the old one's rows of untouched nodes by
        reference and reads the touched ones from the store when first
        asked for.  Then — still under
        the ingest lock — the batch is *published*: the store's version
        after its last mutation is stamped on every predicate of the
        batch and on every label word its subjects and objects are filed
        under (:class:`~repro.serve.cache.ReadStamps`).  Readers never
        block: the overlay publishes the batch's removals, then its adds,
        each as one new state, so a store read never sees a half-applied
        step, and a cached
        answer or link list is served across the write exactly when it
        read none of what was stamped.  A batch that changes nothing
        publishes nothing; one that fails part-way publishes a version
        that touched everything and re-raises.  After :meth:`close` a
        batch is refused with :class:`EngineClosedError`, unapplied.
        """
        removes = removes if removes is not None else []
        span = tracer.span if tracer is not None else obs.NOOP.span
        with self.write_admission.admit():
            with self._ingest_lock:
                self._refuse_if_closed()
                with self.metrics_span("serve.ingest"):
                    self._ensure_writable()
                    store = self.kg.store
                    structural = self.kg.structural_predicate_ids
                    try:
                        with span("ingest.apply", adds=len(adds), removes=len(removes)):
                            removed = store.remove_all(removes)
                            added = store.add_all(adds)
                        if added or removed:
                            with span("ingest.refresh"):
                                self.kg.refresh(incremental=True)
                            self._publish([*adds, *removes], structural)
                    except BaseException:
                        # Part of the batch may have landed and nothing says
                        # which: fail closed, as after any unaccounted write.
                        self.kg.refresh()
                        self.stamps.publish_all(self.store_version)
                        raise
                    self._reclaim_finished()
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

    def _publish(
        self, batch: list[Triple], structural_before: frozenset[int]
    ) -> None:
        """Stamp what ``batch`` touched and publish the store's version.

        Caller holds ``_ingest_lock``; the batch is applied and the graph
        refreshed.  Publishing comes last: a reader that sees the new
        version finds the linker's degrees and the stamps already there.
        """
        version = self.store_version
        if self.kg.structural_predicate_ids != structural_before:
            # A structural predicate got its id in this batch: no scope
            # computed before can hold it, so no stamp could reach them.
            self.stamps.publish_all(version)
            return
        lookup = self.kg.store.dictionary.lookup_or_none

        def ids(terms: Iterable[Term]) -> set[int]:
            # A removal may name a term the store has never seen.
            return {tid for term in terms if (tid := lookup(term)) is not None}

        predicates = ids(triple.predicate for triple in batch)
        nodes = ids(
            term for triple in batch for term in (triple.subject, triple.object)
        )
        words_of = self.linker.index.words_of
        words = {word for node in nodes for word in words_of(node)}
        self.linker.carry_prominence(nodes)
        self.stamps.publish(version, predicates, words)

    def compact(self, snapshot_path: str | None = None) -> dict:
        """Re-compact base + delta into a fresh frozen base and swap it in.

        Runs under the ingest lock (writers pause; readers keep going
        against the old backend) and swaps atomically: the new backend is
        a fresh overlay with an empty delta over a rebuilt frozen base
        holding identical content at the same version, so the kernel and
        both caches stay valid with no refresh (the write stamps live in
        the engine, not in the backend that is swapped out).  In-flight
        iterators drain against the old backend, whose mmap (if any) is
        released when the last reference drops.

        Compaction is also where terms are reclaimed.  Every term encoded
        since the engine opened that no triple of the compacted store
        names is retired at once — encoding it again assigns a fresh id,
        ids are never reused — and reclaimed (decoding its id raises
        :class:`~repro.exceptions.TermNotFoundError`) as soon as every
        request admitted before this compaction has finished: here if none
        is running, otherwise by the first batch or compaction after they
        have.

        ``snapshot_path`` additionally persists a single-file compiled
        snapshot of the compacted state.  After :meth:`close` nothing is
        compacted: :class:`EngineClosedError`.
        """
        with self._ingest_lock:
            self._refuse_if_closed()
            with self.metrics_span("serve.compact"):
                store = self.kg.store
                store.swap_backend(store.compacted().overlay().backend)
                retired = store.retire_unnamed(store.dictionary.ids_since(self._term_floor))
                if retired:
                    self._retired.append((self.admission.next_epoch(), retired))
                self._reclaim_finished()
                if snapshot_path is not None:
                    from repro.rdf.snapshot import compile_snapshot

                    compile_snapshot(snapshot_path, self.kg, self.dictionary)
        self.metrics.incr("serve.compactions")
        return {
            "triples": len(self.kg.store),
            "store_version": self.store_version,
            "snapshot": snapshot_path,
        }

    def _reclaim_finished(self) -> None:
        """Reclaim the terms of every compaction whose earlier requests
        have all finished.  Caller holds ``_ingest_lock``."""
        retired, finished = self._retired, self.admission.finished
        while retired and finished(retired[0][0]):
            _epoch, ids = retired.pop(0)
            self.kg.store.dictionary.reclaim(ids)
            self.metrics.incr("serve.compact.terms_reclaimed", len(ids))

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _process(
        self, question: str, deadline_s: float | None, trace: bool,
        use_cache: bool = True,
    ) -> tuple[Answer, "obs.Tracer | None", bool]:
        with self.admission.admit():
            # The client's budget starts at admission: time spent waiting
            # for a slot is time the client has already waited.
            budget = deadline_s if deadline_s is not None else self.config.deadline_s
            deadline = None if budget is None else time.monotonic() + budget
            with self._slots:
                with self._state_lock:
                    if self._closed:
                        raise EngineClosedError("engine is closed")
                return self._answer_in_slot(question, deadline, trace, use_cache)

    def _answer_in_slot(
        self, question: str, deadline: float | None, trace: bool, use_cache: bool
    ) -> tuple[Answer, "obs.Tracer | None", bool]:
        started = time.monotonic()
        self.metrics.incr("serve.requests")
        # The question as asked is the key: the tagger reads case, so two
        # spellings can be two answers.  The config is fixed for the
        # engine's lifetime.
        if use_cache:
            cached = self.answer_cache.get(question, self.stamps.fresh)
            if cached is not None:
                self.metrics.observe(
                    "serve.latency_ms", (time.monotonic() - started) * 1000.0
                )
                return cached.value, None, True
        else:
            self.metrics.incr("serve.cache_bypass")
        # Before computing: a batch published while the pipeline runs must
        # find this answer older than its stamps.
        version = self.stamps.version()
        tracer = obs.Tracer() if trace else obs.NOOP
        answer = self._system.answer(question, tracer=tracer, deadline=deadline)
        if answer.terminated_by == "deadline":
            self.metrics.incr("serve.deadline_expired")
        elif use_cache:
            # Partial (deadline-cut) answers are never cached: a later
            # request with time to finish should get the whole one.
            # Bypassed requests don't store either — a cache-miss
            # measurement pass must not warm the cache it is avoiding.
            self.answer_cache.put(question, Stamped(answer, version, answer.scope))
        self.metrics.observe(
            "serve.latency_ms", (time.monotonic() - started) * 1000.0
        )
        return answer, (tracer if trace else None), False

    def _render(self, answer: Answer, tracer, from_cache: bool = False) -> dict:
        """The JSON response body for one computed (or cached) answer."""
        response = {
            "trace_id": f"req-{next(self._trace_ids)}",
            "question": answer.question,
            "answers": [str(term) for term in answer.answers],
            "boolean": answer.boolean,
            "processed": answer.processed,
            "failure": answer.failure,
            "terminated_by": answer.terminated_by,
            "sparql": answer.sparql_queries[0] if answer.sparql_queries else None,
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
        """The ``GET /stats`` body: caches, admission, kernel, linker, store
        and, where ``/proc`` has it, the process's resident size."""
        backend = self.kg.store.backend
        # How much of the term table exists as objects, and the size of
        # the snapshot mapping the rest is served from (0: no snapshot).
        store_stats: dict = {
            "backend": type(backend).__name__,
            **self.kg.store.dictionary.statistics(),
        }
        delta = getattr(backend, "delta_statistics", None)
        if delta is not None:
            # Overlay store: base/delta/tombstone sizes tell operators
            # when an online compaction is worth triggering.
            store_stats["overlay"] = delta()
        shards = getattr(backend, "shards", None)
        if shards is not None:
            store_stats["shards"] = shards
        process = _process_memory()
        return {
            "store_version": self.store_version,
            "uptime_s": round(self.uptime_s(), 3),
            "ready": self.ready,
            **({"process": process} if process is not None else {}),
            "store": store_stats,
            "config": {
                "k": self.config.k,
                "pool_size": self.config.pool_size,
                "queue_limit": self.config.queue_limit,
                "deadline_s": self.config.deadline_s,
            },
            "answer_cache": self.answer_cache.stats(),
            "link_cache": self.link_cache.stats(),
            "ingest": self.stamps.stats(),
            "admission": self.admission.stats(),
            "kernel": self.kg.kernel.statistics(),
            "linker": self.linker.statistics(),
        }

