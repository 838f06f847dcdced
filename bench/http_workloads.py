"""The three workloads that go through the socket.

All are closed loop: each of the (at most two) client threads sends its
next request when the previous reply has arrived.  The server is one
``repro serve --workers 1`` process over a snapshot compiled by the
``repro compile`` CLI from the built-in mini-DBpedia with 25 label clones
per entity (6.5k triples).
"""

from __future__ import annotations

import itertools
import os
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

from bench import inputs
from bench.common import (
    ROOT, Outcome, Params, check_score, gate, proc_status_mb, qald, render, undisturbed,
)
from bench.httpload import Client, Sample, Server, closed_loop
from bench.spans import median, percentile

DISTRACTORS = 25
PROBE_QUESTION = "Who is the mayor of Berlin?"
PROBE_ANSWER = ["res:Klaus_Wowereit"]

FLIP_QUESTION = "Who was the successor of John F. Kennedy?"
WRITE_EVERY = 10          # each client's every tenth request is a write
LIVE_BATCHES = 40         # a client's batch is removed 40 of its writes later
SLICE_S = 1.0


# --------------------------------------------------------------------- #
# Set-up: compile + serve, repeated; then the scoring pass
# --------------------------------------------------------------------- #

def _compile_snapshot(params: Params) -> float:
    """``repro --distractors 25 compile`` through the CLI; seconds taken."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    started = time.perf_counter()
    subprocess.run(
        [
            sys.executable, "-m", "repro", "--distractors", str(DISTRACTORS),
            "compile", str(params.work / "graph.snap"),
        ],
        check=True, env=env, stdout=subprocess.DEVNULL,
    )
    return time.perf_counter() - started


def start_server(
    params: Params, outcome: Outcome, cache_size: int | None = None,
    ingest_token: str | None = None,
) -> Server:
    """Compile and start the server ``setup_cycles`` times; keep the last.

    ``setup_s`` is the median of (compile + spawn-to-ready); the time from
    spawn to the first correct answer is the cycle's cold start.
    """
    setups, cold_starts = [], []
    server = None
    for _cycle in range(params.setup_cycles):
        if server is not None:
            server.stop()
        compile_s = _compile_snapshot(params)
        server = Server(
            params.work / "graph.snap", params.work / "serve.log",
            cache_size=cache_size, ingest_token=ingest_token,
        )
        try:
            first = Client(server).ask(PROBE_QUESTION, no_cache=True)
            cold_starts.append(time.perf_counter() - server.spawned)
            outcome.count(first.ok)
            gate(
                first.ok and first.payload.get("answers") == PROBE_ANSWER,
                f"first question after start answered {first.status} {first.payload}",
            )
        except BaseException:
            server.stop()
            raise
        setups.append(compile_s + server.ready_s)
    outcome.e2e["setup_s"] = median(setups)
    outcome.layers["cold_start_s"] = median(cold_starts)
    outcome.attempted += 2 * params.setup_cycles  # compile + spawn, both raise on failure
    return server


def reference_digest(params: Params) -> str:
    """The answer digest of an in-process ``GAnswer`` over the same snapshot
    — what the HTTP path must reproduce byte for byte."""
    from repro import obs
    from repro.core import GAnswer
    from repro.rdf.snapshot import load_snapshot

    state = load_snapshot(params.work / "graph.snap")
    system = GAnswer(state.kg, state.dictionary, linker=state.build_linker())
    return inputs.digest(
        {q.text: render(system.answer(q.text, tracer=obs.NOOP)) for q in qald()}
    )


def scoring_pass(
    params: Params, outcome: Outcome, server: Server, keepalive: bool, no_cache: bool
) -> dict[str, list]:
    """The untimed warm-up: every QALD question once, split over the
    clients, through the workload's own path.  Scores it and gates on
    ``qald_right`` and the digest; returns question → [answers, boolean]."""
    questions = [q.text for q in qald()]

    def ask_share(client: int) -> list[Sample]:
        http = Client(server, keepalive)
        asked = []
        for question in questions[client::params.clients]:
            asked.append(http.ask(question, no_cache=no_cache))
        http.close()
        return asked

    with ThreadPoolExecutor(max_workers=params.clients) as pool:
        samples = [s for share in pool.map(ask_share, range(params.clients)) for s in share]
    for sample in samples:
        outcome.count(sample.ok)
    gate(all(s.ok for s in samples), "a scoring-pass request failed")
    answers = {
        s.payload["question"]: [s.payload["answers"], s.payload["boolean"]]
        for s in samples
    }
    right, sha = check_score(params.workload, answers, reference_digest(params))
    outcome.layers["qald_right"] = right
    outcome.notes["answers_sha256"] = sha
    return answers


# --------------------------------------------------------------------- #
# The measured window and what the server says about it
# --------------------------------------------------------------------- #

def _observe(server: Server) -> dict:
    client = Client(server)
    return {
        "stats": client.get("/stats").payload,
        "metrics": client.get("/metrics").payload,
        "rss_mb": proc_status_mb(server.pid, "VmRSS"),
    }


def _histogram_delta_mean(before: dict, after: dict, name: str) -> float:
    old = before["metrics"].get("histograms", {}).get(name, {"count": 0, "total": 0.0})
    new = after["metrics"].get("histograms", {}).get(name, {"count": 0, "total": 0.0})
    count = new["count"] - old["count"]
    return (new["total"] - old["total"]) / count if count else 0.0


def _counter_delta(before: dict, after: dict, name: str) -> float:
    return (
        after["metrics"].get("counters", {}).get(name, 0)
        - before["metrics"].get("counters", {}).get(name, 0)
    )


def _cache_delta(before: dict, after: dict, cache: str) -> tuple[float, float]:
    old, new = before["stats"][cache], after["stats"][cache]
    hits = new["hits"] - old["hits"]
    lookups = hits + new["misses"] - old["misses"]
    return (hits / lookups if lookups else 0.0), new["evictions"] - old["evictions"]


def _p50(values: list[float]) -> float:
    return median(values) if values else 0.0


def measure_window(params: Params, outcome: Outcome, server: Server, step, expected) -> list[Sample]:
    """Run the closed loop for ``params.seconds`` and fill in every metric
    that all HTTP workloads share.  ``expected(question, payload)`` says
    whether an answer is the right one for that question."""
    before = _observe(server)
    samples, origin, wall = closed_loop(params.clients, params.seconds, step)
    after = _observe(server)
    scrape = Client(server).get("/metrics")
    gate(scrape.ok, "GET /metrics failed after the window")

    asks = [s for s in samples if s.kind == "ask"]
    for sample in samples:
        good = sample.ok
        if good and sample.kind == "ask":
            good = expected(sample.payload["question"], sample.payload)
        outcome.count(good)
    # One-second slices by start time; only the undisturbed ones count.
    slices: list[list[Sample]] = [[] for _ in range(max(1, int(params.seconds / SLICE_S)))]
    for sample in asks:
        index = int((sample.started - origin) / SLICE_S)
        if sample.ok and index < len(slices):
            slices[index].append(sample)
    kept = undisturbed([[s.total_ms for s in chunk] for chunk in slices])
    answered = [sample for index in kept for sample in slices[index]]
    outcome.e2e["throughput_qps"] = len(answered) / (len(kept) * SLICE_S)
    outcome.latency([s.total_ms for s in answered])
    outcome.e2e["peak_rss_mb"] = proc_status_mb(server.pid, "VmHWM")
    outcome.notes["window_wall_s"] = wall
    outcome.notes["window_requests"] = len(samples)

    layers = outcome.layers
    layers["bench.window_kept_share"] = len(kept) / len(slices)
    computed = [s for s in answered if not s.payload.get("cached")]
    cached = [s for s in answered if s.payload.get("cached")]
    layers["serve.server.connect_p50_ms"] = _p50([s.connect_ms for s in answered if s.connect_ms])
    layers["serve.server.first_byte_p50_ms"] = _p50([s.first_byte_ms for s in answered])
    layers["serve.server.body_gap_p50_ms"] = _p50([s.body_gap_ms for s in answered])
    layers["serve.server.overhead_p50_ms"] = _p50(
        [s.total_ms - s.payload["timings_ms"]["total"] for s in computed]
    )
    layers["serve.cache.hit_p50_ms"] = _p50([s.total_ms for s in cached])
    layers["serve.cache.miss_p50_ms"] = _p50([s.total_ms for s in computed])
    for stage in ("understanding", "evaluation"):
        values = [s.payload["timings_ms"][stage] for s in computed]
        layers[f"core.{stage}_mean_ms"] = sum(values) / len(values) if values else 0.0
    layers["serve.engine.mean_ms"] = _histogram_delta_mean(before, after, "serve.latency_ms")
    layers["serve.engine.degraded"] = _counter_delta(before, after, "serve.degraded")
    layers["serve.engine.deadline_expired"] = _counter_delta(before, after, "serve.deadline_expired")
    layers["serve.admission.peak_in_flight"] = after["stats"]["admission"]["peak_in_flight"]
    layers["serve.admission.rejected"] = (
        after["stats"]["admission"]["rejected"] - before["stats"]["admission"]["rejected"]
    )
    layers["serve.cache.hit_rate"], layers["serve.cache.evictions"] = _cache_delta(
        before, after, "answer_cache"
    )
    layers["serve.link_cache.hit_rate"], _ = _cache_delta(before, after, "link_cache")
    layers["serve.ingest.mean_ms"] = _histogram_delta_mean(before, after, "serve.ingest_ms")
    layers["serve.server.rss_growth_mb"] = after["rss_mb"] - before["rss_mb"]
    layers["obs.metrics.scrape_ms"] = scrape.total_ms
    layers["obs.metrics.scrape_bytes"] = scrape.size

    if params.trace:
        for number, sample in enumerate(samples):
            _record_exchange(outcome, sample, f"http-{number}")
    return samples


def _record_exchange(outcome: Outcome, sample: Sample, request: str) -> None:
    """One exchange as a root span with the three caller-visible parts."""
    add = outcome.recorder.add
    start = sample.started
    end = start + sample.total_ms / 1000.0
    root = add(f"http.{sample.kind}", start, end, request=request)
    connected = start + sample.connect_ms / 1000.0
    first_byte = start + sample.first_byte_ms / 1000.0
    if sample.connect_ms:
        add("serve.server.connect", start, connected, root, request)
    add("serve.server.first_byte", connected, first_byte, root, request)
    add("serve.server.body_gap", first_byte, end, root, request)


def _asker(clients: list[Client], streams: list, no_cache: bool):
    """A closed-loop step that asks each client's next question."""

    def step(client: int, _elapsed: float) -> list[Sample]:
        return [clients[client].ask(next(streams[client]), no_cache=no_cache)]

    return step


def _streams(params: Params, outcome: Outcome, make, questions: list[str]) -> list:
    """One question stream per client; the digest of each stream's first
    200 draws goes into ``inputs.json``."""
    outcome.inputs[make.__name__] = inputs.digest(
        [list(itertools.islice(make(questions, params.seed, c), 200)) for c in range(params.clients)]
    )
    return [make(questions, params.seed, c) for c in range(params.clients)]


def _same_answers(answers: dict[str, list]):
    def expected(question: str, payload: dict) -> bool:
        return [payload["answers"], payload["boolean"]] == answers[question]

    return expected


# --------------------------------------------------------------------- #
# Workloads
# --------------------------------------------------------------------- #

def http_keepalive_miss(params: Params) -> Outcome:
    """Two persistent HTTP/1.1 connections, cache bypassed: every request
    runs the whole pipeline, and every byte waits on ``repro.serve.server``."""
    outcome = Outcome()
    server = start_server(params, outcome)
    try:
        answers = scoring_pass(params, outcome, server, keepalive=True, no_cache=True)
        questions = sorted(answers)
        streams = _streams(params, outcome, inputs.shuffled_passes, questions)
        clients = [Client(server, keepalive=True) for _ in range(params.clients)]
        measure_window(
            params, outcome, server, _asker(clients, streams, no_cache=True),
            _same_answers(answers),
        )
        for client in clients:
            client.close()
    finally:
        server.stop()
    if params.trace:
        _pipeline_stages(params, outcome)
    return outcome


def _pipeline_stages(params: Params, outcome: Outcome) -> None:
    """The traced in-process pass on this workload's own graph: where the
    ~1 % of the request that is pipeline goes, stage by stage."""
    from repro.rdf.snapshot import load_snapshot

    from bench.staged import run_staged

    state = load_snapshot(params.work / "graph.snap")
    layers, _totals = run_staged(
        outcome.recorder,
        {"compact": (state.kg, state.dictionary, state.build_linker())},
        [q.text for q in qald()],
        budget_s=0.2 if params.smoke else 1.0,
    )
    outcome.layers.update(layers)


def http_fresh_zipf(params: Params) -> Outcome:
    """A new TCP connection per request, answer cache of 32 entries under
    Zipf(1.1) popularity over 99 questions: accept/thread-per-connection
    and ``repro.serve.cache`` do the work, the pipeline runs on misses."""
    outcome = Outcome()
    server = start_server(params, outcome, cache_size=32)
    try:
        answers = scoring_pass(params, outcome, server, keepalive=False, no_cache=False)
        questions = sorted(answers)
        streams = _streams(params, outcome, inputs.zipf_stream, questions)
        clients = [Client(server) for _ in range(params.clients)]
        measure_window(
            params, outcome, server, _asker(clients, streams, no_cache=False),
            _same_answers(answers),
        )
        gate(
            params.smoke or outcome.layers["serve.cache.evictions"] > 0,
            "the working set never overflowed the 32-entry cache",
        )
    finally:
        server.stop()
    return outcome


def http_ingest_mixed(params: Params) -> Outcome:
    """Writes beside reads: each client's every tenth request is an
    ``/ingest`` that adds 10 triples and removes the 10 it added 40 writes
    earlier (a sliding window: tombstones exist, the store keeps its size),
    client 0 compacts three times in line, and one seeded triple flips a
    QALD answer mid-run."""
    outcome = Outcome()
    token = f"bench-token-{params.seed}"
    server = start_server(params, outcome, ingest_token=token)
    try:
        answers = scoring_pass(params, outcome, server, keepalive=False, no_cache=False)
        questions = sorted(answers)
        state = _MixedState(params, server, questions)
        outcome.inputs["update_stream"] = inputs.digest(
            [next(inputs.update_batches(params.seed, c)) for c in range(params.clients)]
        )

        def expected(question: str, payload: dict) -> bool:
            got = [a for a in payload["answers"] if a != state.flip_entity]
            return [got, payload["boolean"]] == answers[question]

        samples = measure_window(params, outcome, server, state.step, expected)
        state.finish(outcome, samples)
    finally:
        server.stop()
    if params.trace:
        _write_path_probes(params, outcome)
    return outcome


class _MixedState:
    """Per-client streams and client 0's in-line duties for the mixed run."""

    def __init__(self, params: Params, server: Server, questions: list[str]):
        self.params = params
        self.clients = [Client(server) for _ in range(params.clients)]
        self.reads = [inputs.uniform_stream(questions, params.seed, c) for c in range(params.clients)]
        self.updates = [inputs.update_batches(params.seed, c) for c in range(params.clients)]
        # Seeded offsets: which of every ten requests is the write.
        offsets = inputs.rng_for(params.seed, "write-offsets")
        self.requests = [offsets.randrange(WRITE_EVERY) for _ in range(params.clients)]
        # The sliding window of batches is filled before the measured window
        # starts, so the store has its steady size from the first slice on.
        self.live_batches: list[list] = [[] for _ in range(params.clients)]
        for client in range(params.clients):
            for _ in range(LIVE_BATCHES):
                batch = next(self.updates[client])
                gate(self.clients[client].ingest(batch).ok, "a warm-up /ingest failed")
                self.live_batches[client].append(batch)
        self.compact_period = params.seconds / 4.0
        self.next_compact = self.compact_period
        self.flip_at = 0.4 * params.seconds
        self.flip_entity = f"bench:flip/s{params.seed}"
        self.flip_seen_after_ack: bool | None = None
        self.flip_seen_after_compact: bool | None = None
        self.delta_at_compact: list[int] = []
        self.tombstones_at_compact: list[int] = []
        self.compacted_at: list[float] = []

    def _flip_visible(self, client: Client) -> tuple[bool, Sample]:
        sample = client.ask(FLIP_QUESTION)
        return sample.ok and self.flip_entity in sample.payload.get("answers", []), sample

    def step(self, client: int, elapsed: float) -> list[Sample]:
        http = self.clients[client]
        samples: list[Sample] = []
        if client == 0 and elapsed >= self.next_compact and len(self.compacted_at) < 3:
            self.next_compact += self.compact_period
            overlay = http.get("/stats").payload.get("store", {}).get("overlay") or {}
            self.delta_at_compact.append(overlay.get("delta_adds", 0))
            self.tombstones_at_compact.append(overlay.get("tombstones", 0))
            samples.append(http.compact())
            self.compacted_at.append(time.perf_counter())
            if self.flip_seen_after_ack and self.flip_seen_after_compact is None:
                self.flip_seen_after_compact, sample = self._flip_visible(http)
                samples.append(sample)
        if client == 0 and elapsed >= self.flip_at and self.flip_seen_after_ack is None:
            ack = http.ingest([["res:John_F._Kennedy", "ont:successor", self.flip_entity]])
            samples.append(ack)
            self.flip_seen_after_ack, sample = self._flip_visible(http)
            samples.append(sample)
        self.requests[client] += 1
        if self.requests[client] % WRITE_EVERY == 0:
            batch = next(self.updates[client])
            remove = self.live_batches[client].pop(0)
            self.live_batches[client].append(batch)
            sample = http.ingest(batch, remove)
            sample.payload["triples"] = len(batch) + len(remove)
            samples.append(sample)
        else:
            samples.append(http.ask(next(self.reads[client])))
        return samples

    def finish(self, outcome: Outcome, samples: list[Sample]) -> None:
        layers = outcome.layers
        smoke = self.params.smoke
        gate(self.flip_seen_after_ack is True, "the ingested answer flip was not visible after the ack")
        gate(len(self.compacted_at) == 3, f"{len(self.compacted_at)} compactions ran, expected 3")
        gate(
            self.flip_seen_after_compact is True,
            "the answer flip did not survive the next compaction",
        )
        gate(
            smoke or max(self.tombstones_at_compact) > 0,
            "no removal ever reached the frozen base (no tombstones)",
        )
        writes = [s for s in samples if s.kind == "ingest" and s.ok]
        compacts = [s for s in samples if s.kind == "compact" and s.ok]
        reads = [s for s in samples if s.kind == "ask" and s.ok]
        wall = outcome.notes["window_wall_s"]
        write_ms = [s.total_ms for s in writes]
        layers["write_p50_ms"] = median(write_ms)
        layers["write_p95_ms"] = percentile(write_ms, 95.0)
        layers["ingest_triples_per_s"] = sum(s.payload.get("triples", 1) for s in writes) / wall
        layers["rdf.overlay.compactions"] = len(compacts)
        layers["rdf.overlay.compact_p50_ms"] = median([s.total_ms for s in compacts])
        layers["rdf.overlay.delta_at_compact"] = sum(self.delta_at_compact) / 3.0
        layers["rdf.overlay.tombstones_at_compact"] = sum(self.tombstones_at_compact) / 3.0
        after, rest = [], []
        for read in reads:
            recent = any(0.0 <= read.started - done < 1.0 for done in self.compacted_at)
            (after if recent else rest).append(read.total_ms)
        layers["rdf.overlay.post_compact_read_p95_ms"] = percentile(after, 95.0) if after else 0.0
        layers["rdf.overlay.steady_read_p95_ms"] = percentile(rest, 95.0) if rest else 0.0
        outcome.notes["writes"] = len(writes)


def _write_path_probes(params: Params, outcome: Outcome) -> None:
    """What one 10-triple batch costs below the socket: the overlay add,
    the incremental kernel patch, and the graph refresh the engine runs."""
    from repro.rdf.kernel import AdjacencyKernel
    from repro.rdf.overlay import OverlayBackend
    from repro.rdf.snapshot import load_snapshot
    from repro.rdf.terms import IRI, Triple

    state = load_snapshot(params.work / "graph.snap")
    kg = state.kg
    kg.store.swap_backend(OverlayBackend(kg.store.backend))
    _ = kg.kernel
    span = outcome.recorder.span
    batches = inputs.update_batches(params.seed, 99)
    add_ms, patch_ms, refresh_ms = [], [], []
    for number in range(5 if params.smoke else 20):
        triples = [Triple(IRI(s), IRI(p), IRI(o)) for s, p, o in next(batches)]
        stale = kg.kernel
        with span("rdf.overlay.add_batch", request=f"batch-{number}") as row:
            kg.store.add_all(triples)
        add_ms.append((row[3] - row[2]) * 1000.0)
        with span("rdf.kernel.patch", request=f"batch-{number}") as row:
            AdjacencyKernel(kg.store, patch_from=stale)
        patch_ms.append((row[3] - row[2]) * 1000.0)
        with span("rdf.overlay.refresh", request=f"batch-{number}") as row:
            kg.refresh(incremental=True)
        refresh_ms.append((row[3] - row[2]) * 1000.0)
    outcome.layers["rdf.overlay.add_batch_ms"] = median(add_ms)
    outcome.layers["rdf.kernel.patch_ms"] = median(patch_ms)
    outcome.layers["rdf.overlay.refresh_ms"] = median(refresh_ms)
