"""The two workloads without a server: the candidate-explosion graph over
four store compositions, and the offline build of a 2×10^5-triple dump."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

from bench import inputs
from bench.common import (
    ROOT, Outcome, Params, check_score, gate, proc_status_mb, qald, render, undisturbed,
)
from bench.spans import median

EXPLOSION_DISTRACTORS = 100
OVERLAY_DELTA = 1000
SHARDS = 8

OFFLINE_TRIPLES = 200_000
OFFLINE_QUESTIONS = 240
MIN_COLD_STARTS = 5


# --------------------------------------------------------------------- #
# inproc_explosion_backends
# --------------------------------------------------------------------- #

def _build_compositions(params: Params) -> dict[str, tuple]:
    """The distractors=100 graph under each store composition, ready to
    answer: name → ``(kg, dictionary, linker)``."""
    from repro.datasets import build_dbpedia_mini, build_phrase_dataset
    from repro.linking.linker import EntityLinker
    from repro.paraphrase import ParaphraseMiner
    from repro.rdf.overlay import OverlayBackend
    from repro.rdf.snapshot import compile_snapshot, load_snapshot
    from repro.rdf.terms import IRI, Triple

    kg = build_dbpedia_mini(distractors_per_entity=EXPLOSION_DISTRACTORS)
    dictionary = ParaphraseMiner(kg, max_path_length=4, top_k=3).mine(build_phrase_dataset())
    single = params.work / "explosion.snap"
    manifest = params.work / "explosion-sharded.snap"
    compile_snapshot(single, kg, dictionary)
    compile_snapshot(manifest, kg, dictionary, shards=SHARDS)

    def loaded(path: Path):
        state = load_snapshot(path)
        return state.kg, state.dictionary, state.build_linker()

    overlay = loaded(single)
    store = overlay[0].store
    store.swap_backend(OverlayBackend(store.backend))
    rng = inputs.rng_for(params.seed, "overlay-delta")
    store.add_all(
        Triple(
            IRI(f"bench:delta/e{number}"),
            IRI(f"bench:p{rng.randrange(7)}"),
            IRI(f"bench:delta/e{rng.randrange(OVERLAY_DELTA)}"),
        )
        for number in range(OVERLAY_DELTA)
    )
    overlay[0].refresh(incremental=True)
    return {
        "dict": (kg, dictionary, EntityLinker(kg)),
        "compact": loaded(single),
        "sharded8": loaded(manifest),
        "overlay": overlay,
    }


def inproc_explosion_backends(params: Params) -> Outcome:
    """Single-thread ``GAnswer.answer`` on the candidate-explosion graph
    (24.8k triples) over dict / compact-mmap / sharded-8 / overlay stores,
    whole QALD passes interleaved round-robin so noise spreads evenly."""
    from repro import obs
    from repro.core import GAnswer

    outcome = Outcome()
    setups = []
    compositions = None
    for _cycle in range(params.setup_cycles):
        compositions = None  # release the previous cycle before rebuilding
        started = time.perf_counter()
        compositions = _build_compositions(params)
        setups.append(time.perf_counter() - started)
    outcome.e2e["setup_s"] = median(setups)
    outcome.attempted += params.setup_cycles
    gate(
        compositions["overlay"][0].store.backend.delta_statistics()["delta_adds"] == OVERLAY_DELTA,
        "the overlay composition does not hold its 1000-triple delta",
    )

    questions = [q.text for q in qald()]
    systems = {
        name: GAnswer(kg, dictionary, linker=linker)
        for name, (kg, dictionary, linker) in compositions.items()
    }
    reference = None
    for name, system in systems.items():
        answers = {q: render(system.answer(q, tracer=obs.NOOP)) for q in questions}
        right, reference = check_score(f"{params.workload}/{name}", answers, reference)
        outcome.attempted += len(questions)
    outcome.layers["qald_right"] = right
    outcome.notes["answers_sha256"] = reference
    if params.smoke:
        questions = questions[:25]

    if params.trace:
        _traced_rounds(params, outcome, compositions, questions)
        # End-to-end numbers come from untraced runs only; a short plain
        # window still fills them so a traced run is a complete record.
        window = params.seconds * 0.15
    else:
        window = params.seconds
    # One cell per (composition, question); every round samples each cell
    # once.  The host slows down for seconds at a stretch (README, *Noise*),
    # and only ever slows, so a cell's fastest round is its cost.
    cells: dict[tuple[str, str], float] = {}
    rounds, understanding, evaluation = 0, 0.0, 0.0
    started = time.perf_counter()
    while True:
        rounds += 1
        for name, system in systems.items():
            for question in questions:
                begun = time.perf_counter()
                answer = system.answer(question, tracer=obs.NOOP)
                taken = time.perf_counter() - begun
                cells[name, question] = min(taken, cells.get((name, question), taken))
                understanding += answer.understanding_time
                evaluation += answer.evaluation_time
        if time.perf_counter() - started >= window:
            break
    wall = time.perf_counter() - started
    asked = rounds * len(cells)
    outcome.attempted += asked
    outcome.e2e["throughput_qps"] = len(cells) / sum(cells.values())
    outcome.latency([seconds * 1000.0 for seconds in cells.values()])
    outcome.e2e["peak_rss_mb"] = proc_status_mb(os.getpid(), "VmHWM")
    outcome.layers["core.understanding_mean_ms"] = understanding / asked * 1000.0
    outcome.layers["core.evaluation_mean_ms"] = evaluation / asked * 1000.0
    outcome.notes["window_wall_s"] = wall
    outcome.notes["rounds"] = rounds
    return outcome


def _traced_rounds(params: Params, outcome: Outcome, compositions: dict, questions: list[str]) -> None:
    from bench.staged import run_staged

    layers, totals = run_staged(
        outcome.recorder, compositions, questions, budget_s=params.seconds * 0.5
    )
    outcome.layers.update(layers)
    for name, (count, seconds) in totals.items():
        outcome.layers[f"rdf.{name}.qa_per_s"] = count / seconds
    _store_probes(params, outcome, compositions, questions)
    _kernel_probes(params, outcome, compositions)


def _store_probes(params: Params, outcome: Outcome, compositions: dict, questions: list[str]) -> None:
    """Point reads, a full scan and reads-per-question on each composition;
    every composition must return the same rows."""
    from repro import obs
    from repro.core import GAnswer

    from bench.staged import CountingBackend

    span = outcome.recorder.span
    base_store = compositions["dict"][0].store
    rng = inputs.rng_for(params.seed, "store-probes")
    triples = list(base_store.triples())
    sample = rng.sample(triples, min(len(triples), 300 if params.smoke else 3000))
    rows_seen = {}
    for name, (kg, dictionary, linker) in compositions.items():
        store = kg.store
        ids = [
            tuple(store.dictionary.lookup(term) for term in (t.subject, t.predicate, t.object))
            for t in sample
        ]
        with span(f"rdf.{name}.subject_lookup") as row:
            by_subject = sum(
                len(objects) for s, _p, _o in ids for objects in store.out_index(s).values()
            )
        outcome.layers[f"rdf.{name}.subject_lookup_us"] = (row[3] - row[2]) / len(ids) * 1e6
        with span(f"rdf.{name}.po_lookup") as row:
            by_object = sum(len(store.subjects_ids(p, o)) for _s, p, o in ids)
        outcome.layers[f"rdf.{name}.po_lookup_us"] = (row[3] - row[2]) / len(ids) * 1e6
        with span(f"rdf.{name}.full_scan") as row:
            scanned = sum(1 for _ in store.triples_ids())
        outcome.layers[f"rdf.{name}.full_scan_triples_per_s"] = scanned / (row[3] - row[2])
        delta = OVERLAY_DELTA if name == "overlay" else 0
        rows_seen[name] = (by_subject, by_object, scanned - delta)

        counting = CountingBackend(store.backend)
        store.swap_backend(counting)
        try:
            system = GAnswer(kg, dictionary, linker=linker)
            for question in questions:
                system.answer(question, tracer=obs.NOOP)
        finally:
            store.swap_backend(counting.inner)
        outcome.layers[f"rdf.{name}.reads_per_question"] = counting.reads / len(questions)
    gate(
        len(set(rows_seen.values())) == 1,
        f"store probes returned different row counts per composition: {rows_seen}",
    )


def _kernel_probes(params: Params, outcome: Outcome, compositions: dict) -> None:
    from repro.linking.index import LabelIndex
    from repro.rdf.kernel import AdjacencyKernel

    span = outcome.recorder.span
    kg, dictionary, _linker = compositions["dict"]
    builds = []
    for _ in range(3):
        with span("rdf.kernel.build") as row:
            kernel = AdjacencyKernel(kg.store)
        builds.append((row[3] - row[2]) * 1000.0)
    outcome.layers["rdf.kernel.build_ms"] = median(builds)
    with span("linking.index_build") as row:
        LabelIndex(kg)
    outcome.layers["linking.index_build_ms"] = (row[3] - row[2]) * 1000.0

    rng = inputs.rng_for(params.seed, "kernel-probes")
    nodes = sorted(kernel.full_rows())
    picks = [rng.choice(nodes) for _ in range(2000 if params.smoke else 20000)]
    with span("rdf.kernel.row_access") as row:
        touched = sum(len(kernel.adjacency(node)[0]) for node in picks)
    gate(touched > 0, "kernel rows are empty")
    outcome.layers["rdf.kernel.row_access_us"] = (row[3] - row[2]) / len(picks) * 1e6
    paths = sorted({m.path for phrase in dictionary.phrases() for m in dictionary.lookup(phrase)})
    # Distinct (start, path) pairs: each call misses the kernel's walk cache.
    walks = list({(rng.choice(nodes), rng.choice(paths)) for _ in range(len(picks) // 4)})
    with span("rdf.kernel.walk_path") as row:
        for start, path in walks:
            kg.walk_path(start, path)
    outcome.layers["rdf.kernel.walk_path_us"] = (row[3] - row[2]) / len(walks) * 1e6


# --------------------------------------------------------------------- #
# offline_build_200k
# --------------------------------------------------------------------- #

def offline_build_200k(params: Params) -> Outcome:
    """Dump to serving process: N-Triples text → store → compact → sharded
    → kernel → mined dictionary → both snapshot forms on disk, then fresh
    interpreters to their first answer, then questions with known answers
    against the sharded product."""
    from repro.paraphrase import ParaphraseMiner
    from repro.paraphrase.miner import RelationPhraseDataset
    from repro.rdf.graph import KnowledgeGraph
    from repro.rdf.io import load_store
    from repro.rdf.ntriples import parse_ntriples
    from repro.rdf.snapshot import compile_snapshot
    from repro.rdf.store import TripleStore
    from repro.rdf.terms import IRI

    outcome = Outcome()
    layers = outcome.layers
    span = outcome.recorder.span

    # Input generation (untimed): the dump, the phrase dataset, the questions.
    generated = inputs.synthetic_inputs(
        params.seed, OFFLINE_TRIPLES // 20 if params.smoke else OFFLINE_TRIPLES
    )
    dump = params.work / "dump.nt"
    dump.write_text("\n".join(generated.ntriples_lines(params.seed)) + "\n", encoding="utf-8")
    dataset = RelationPhraseDataset()
    for phrase, pairs in generated.phrases.items():
        dataset.add(phrase, [(IRI(f"syn:entity{s}"), IRI(f"syn:entity{o}")) for s, o in pairs])
    asked = inputs.synthetic_questions(
        generated, params.seed, OFFLINE_QUESTIONS // 6 if params.smoke else OFFLINE_QUESTIONS
    )
    triples = generated.triples
    outcome.inputs.update(
        dump_sha256=inputs.file_digest(dump), dump_triples=triples,
        phrase_dataset=inputs.digest(generated.phrases), questions=inputs.digest(asked),
    )

    phases: dict[str, float] = {}

    def timed(name: str, call):
        with span(f"offline.{name}") as row:
            value = call()
        phases[name] = row[3] - row[2]
        outcome.attempted += 1
        return value

    window_started = time.perf_counter()
    if params.trace:
        # The same load, split at the parser/store boundary.
        parsed = timed("parse", lambda: list(parse_ntriples(dump.read_text(encoding="utf-8"))))
        store = TripleStore()
        timed("add_all", lambda: store.add_all(parsed))
        layers["rdf.ntriples.parse_triples_per_s"] = triples / phases["parse"]
        layers["rdf.store.add_all_triples_per_s"] = triples / phases["add_all"]
        del parsed
    else:
        store = timed("load_store", lambda: load_store(dump))
    gate(len(store) == triples, f"loaded {len(store)} triples from a {triples}-triple dump")
    compact = timed("compact", store.compacted)
    sharded = timed("shard", lambda: store.sharded(SHARDS))
    gate(len(compact) == triples and len(sharded) == triples, "a frozen copy lost triples")
    del sharded
    kg = KnowledgeGraph(compact)
    timed("kernel", lambda: kg.kernel)
    miner = ParaphraseMiner(kg, max_path_length=4)
    dictionary = timed("mine", lambda: miner.mine(dataset))
    gate(
        miner.last_report.pairs_located == miner.last_report.pairs_total,
        "the miner could not locate every generated support pair",
    )
    single = params.work / "offline.snap"
    manifest = params.work / "offline-sharded.snap"
    info = timed("compile", lambda: compile_snapshot(single, kg, dictionary))
    timed("compile_sharded", lambda: compile_snapshot(manifest, kg, dictionary, shards=SHARDS))
    build_s = sum(phases.values())
    del store, compact, kg

    layers["rdf.compact.build_triples_per_s"] = triples / phases["compact"]
    layers["rdf.shard.build_triples_per_s"] = triples / phases["shard"]
    layers["rdf.kernel.build_ms"] = phases["kernel"] * 1000.0
    layers["paraphrase.mine_s"] = phases["mine"]
    layers["paraphrase.mine_pairs_per_s"] = dataset.pair_count() / phases["mine"]
    layers["rdf.snapshot.compile_s"] = phases["compile"]
    layers["rdf.snapshot.compile_sharded_s"] = phases["compile_sharded"]
    layers["rdf.snapshot.bytes_per_triple"] = info.total_bytes / triples
    layers["offline_triples_per_s"] = triples / build_s
    layers["bench.offline_max_phase_share"] = max(phases.values()) / build_s
    outcome.notes["offline_phases_s"] = phases

    # Fresh interpreters to a first correct answer (until the window closes,
    # five at least), a chunk of the generated questions before each: the
    # question phase is short, so spreading it out is what lets some of it
    # escape a slow stretch of the host.
    question, expected = asked[0]
    spawns = []
    floor = 2 if params.smoke else MIN_COLD_STARTS
    with _ServedProduct(outcome, single, manifest) as product:
        chunks = [asked[start::floor + 1] for start in range(floor + 1)]
        while len(spawns) < floor or time.perf_counter() - window_started < params.seconds:
            if len(spawns) < floor:
                product.ask(chunks[len(spawns)])
            spawns.append(_cold_start(outcome, single, question, expected))
        product.ask(chunks[floor])
    cold_start_s = median([s["spawn_to_answer_s"] for s in spawns])
    layers["cold_start_s"] = cold_start_s
    outcome.e2e["setup_s"] = build_s + cold_start_s
    outcome.e2e["peak_rss_mb"] = median([s["peak_rss_mb"] for s in spawns])
    outcome.notes["cold_starts"] = len(spawns)
    return outcome


def _cold_start(outcome: Outcome, snapshot: Path, question: str, expected: list[str]) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with outcome.recorder.span("offline.cold_start") as row:
        child = subprocess.Popen(
            [sys.executable, str(ROOT / "bench" / "coldstart.py"), str(snapshot), question],
            stdout=subprocess.PIPE, env=env, text=True,
        )
        try:
            line = child.stdout.readline()
            answered = time.perf_counter()
        finally:
            child.stdout.close()
            child.wait()
    report = json.loads(line) if line.strip() else {}
    good = child.returncode == 0 and sorted(report.get("answers", [])) == expected
    outcome.count(good)
    gate(good, f"a fresh interpreter did not answer {question!r} with {expected}: {report}")
    report["spawn_to_answer_s"] = answered - row[2]
    return report


class _ServedProduct:
    """Both snapshots loaded in this process; the sharded one answers the
    generated questions.  Their answers are known from the generator's own
    triple list, so this is the build's correctness check as well."""

    def __init__(self, outcome: Outcome, single: Path, manifest: Path):
        from repro.rdf.snapshot import load_snapshot
        from repro.serve import QAEngine

        self.outcome = outcome
        layers = outcome.layers
        span = outcome.recorder.span
        with span("rdf.snapshot.load") as row:
            load_snapshot(single)
        layers["rdf.snapshot.load_ms"] = (row[3] - row[2]) * 1000.0
        with span("rdf.snapshot.load_sharded") as row:
            self.engine = QAEngine.from_snapshot(manifest)
        layers["rdf.snapshot.load_sharded_ms"] = (row[3] - row[2]) * 1000.0
        with span("serve.engine.warm") as row:
            self.engine.warm()
        layers["serve.engine.warm_ms"] = (row[3] - row[2]) * 1000.0
        #: One entry per chunk: (wall seconds, latencies in ms).
        self.chunks: list[tuple[float, list[float]]] = []
        self.understanding = self.evaluation = 0.0

    def __enter__(self) -> "_ServedProduct":
        return self

    def ask(self, chunk: list[tuple[str, list[str]]]) -> None:
        """Ask one chunk through ``QAEngine.ask(use_cache=False)``.  Every
        question names another entity, so none is served from the link cache."""
        latencies = []
        started = time.perf_counter()
        for question, expected in chunk:
            with self.outcome.recorder.span("serve.engine.ask", request=question) as row:
                response = self.engine.ask(question, use_cache=False)
            latencies.append((row[3] - row[2]) * 1000.0)
            self.understanding += response["timings_ms"]["understanding"]
            self.evaluation += response["timings_ms"]["evaluation"]
            self.outcome.count(sorted(response["answers"]) == expected)
        self.chunks.append((time.perf_counter() - started, latencies))

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.engine.close()
        if exc_type is not None:
            return False
        outcome, layers = self.outcome, self.outcome.layers
        gate(outcome.failed == 0, "the built snapshot answered a generated question wrongly")
        asked = sum(len(latencies) for _wall, latencies in self.chunks)
        layers["serve.engine.first_question_ms"] = self.chunks[0][1][0]
        layers["core.understanding_mean_ms"] = self.understanding / asked
        layers["core.evaluation_mean_ms"] = self.evaluation / asked
        kept = undisturbed([latencies for _wall, latencies in self.chunks])
        layers["bench.window_kept_share"] = len(kept) / len(self.chunks)
        latencies = [ms for index in kept for ms in self.chunks[index][1]]
        outcome.e2e["throughput_qps"] = len(latencies) / sum(self.chunks[i][0] for i in kept)
        outcome.latency(latencies)
        return False
