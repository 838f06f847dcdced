"""``GAnswer.answer`` re-enacted from outside, one benchmark span per stage.

The traced run cannot add spans inside ``src/``; instead it calls the same
public functions the pipeline calls, in the pipeline's order, and wraps
each call in a :class:`bench.spans.SpanRecorder` span.  The stage order
and the answer read-off mirror ``repro.core.pipeline`` — the run checks
that this path and ``GAnswer.answer`` produce the same answer digest, so a
pipeline change that this file has not followed fails loudly.

Span names are the per-layer metric stems (``nlp.parse`` → ``nlp.parse_ms``).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from repro import obs
from repro.core import GAnswer
from repro.core.demonyms import extract_demonym_relations
from repro.core.graph_builder import build_semantic_query_graph
from repro.core.pipeline import target_vertices
from repro.core.semantic_graph import SemanticRelation
from repro.core.sparql_generation import match_to_sparql
from repro.core.top_k import TopKSearch
from repro.exceptions import ParseError
from repro.match.pruning import neighborhood_prune
from repro.nlp.questions import analyze_question

from bench.common import gate, render
from bench.inputs import digest
from bench.spans import SpanRecorder

#: The stage spans directly under the ``answer`` root, in pipeline order.
STAGES = (
    "nlp.parse",
    "core.relation_extraction",
    "core.argument_finding",
    "core.qs_build",
    "core.phrase_mapping",
    "core.top_k",
    "core.sparql_generation",
)


class TimedLinker:
    """A timing proxy for the public ``linker=`` parameter: every ``link``
    call becomes a ``linking.link`` span and its candidate count is kept."""

    def __init__(self, linker, recorder: SpanRecorder):
        self._linker = linker
        self._recorder = recorder
        self.calls = 0
        self.candidates = 0

    def link(self, phrase: str, tracer=None) -> list:
        with self._recorder.span("linking.link"):
            found = self._linker.link(phrase, tracer=tracer)
        self.calls += 1
        self.candidates += len(found)
        return found

    def __getattr__(self, name: str):
        return getattr(self._linker, name)


class CountingBackend:
    """A delegating ``StoreBackend`` that counts the calls it forwards."""

    def __init__(self, inner):
        self.inner = inner
        self.reads = 0

    def __len__(self) -> int:
        return len(self.inner)

    def __getattr__(self, name: str):
        target = getattr(self.inner, name)
        if not callable(target):
            return target

        def counted(*args, **kwargs):
            self.reads += 1
            return target(*args, **kwargs)

        return counted


@dataclass(slots=True)
class StagedResult:
    answers: list[str] = field(default_factory=list)
    boolean: bool | None = None
    seeds_explored: int = 0
    candidates_pruned: int = 0
    terminated_by: str | None = None


class StagedPipeline:
    """One warm system answered stage by stage under a recorder."""

    def __init__(self, kg, dictionary, linker, recorder: SpanRecorder, k: int = 10):
        self.recorder = recorder
        self.linker = TimedLinker(linker, recorder)
        self.system = GAnswer(kg, dictionary, k=k, linker=self.linker)
        # Pruning is called here, under its own span, so the search itself
        # must not prune a second time.
        self.searcher = TopKSearch(kg, k=k, use_pruning=False)
        self.kg = kg
        self.k = k

    def answer(self, question: str, request: str) -> StagedResult:
        result = StagedResult()
        with self.recorder.span("answer", request=request):
            graph = self._understand(question)
            if graph is not None:
                self._evaluate(graph, result)
        return result

    def _understand(self, question: str):
        system = self.system
        span = self.recorder.span
        with span("nlp.parse"):
            analyze_question(question)
            try:
                tree = system.parser.parse(question)
            except ParseError:
                return None
        with span("core.relation_extraction"):
            embeddings = system.extractor.find_embeddings(tree)
        relations: list[SemanticRelation] = []
        with span("core.argument_finding"):
            for embedding in embeddings:
                arguments = system.argument_finder.find_arguments(tree, embedding)
                if arguments is not None:
                    relations.append(
                        SemanticRelation(
                            embedding.phrase_words, arguments.arg1, arguments.arg2,
                            embedding.nodes,
                        )
                    )
        with span("core.qs_build"):
            used = frozenset(i for e in embeddings for i in e.node_indexes())
            relations.extend(extract_demonym_relations(tree, used))
            if not relations:
                return None
            graph = build_semantic_query_graph(relations)
            if not graph.edges:
                return None
        return graph

    def _evaluate(self, graph, result: StagedResult) -> None:
        span = self.recorder.span
        with span("core.phrase_mapping"):
            space = self.system.mapper.build_candidate_space(graph, tracer=obs.NOOP)
        if any(not v.wildcard and not v.candidates for v in space.vertices.values()):
            return
        targets = target_vertices(graph)
        primary_id = targets[0].vertex_id if targets else None
        components = space.components()
        components.sort(key=lambda c: 0 if primary_id in c.vertices else 1)
        per_component = []
        for position, component in enumerate(components):
            with span("core.top_k"):
                empty_before = component.has_empty_list()
                with span("match.pruning"):
                    pruned = neighborhood_prune(self.kg, component, obs.NOOP)
                found = self.searcher.search(component, tracer=obs.NOOP)
            result.seeds_explored += found.seeds_explored
            result.candidates_pruned += pruned
            if position == 0:
                result.terminated_by = found.terminated_by
                if found.terminated_by == "empty" and not empty_before:
                    result.terminated_by = "pruned_empty"
            if not found.matches:
                if not targets:
                    result.boolean = False
                return
            per_component.append(found.matches)
        matches = per_component[0]
        if not targets:
            result.boolean = bool(matches)
            target_ids: set[int] = set()
        else:
            # Component scores only shift every match by the same constant,
            # so the best-score ties of the primary component are the ties
            # of the combined ranking.
            primary = targets[0]
            best = matches[0].score
            seen = set()
            for match in matches:
                if not math.isclose(match.score, best, abs_tol=1e-9):
                    break
                node = match.binding_of(primary.vertex_id)
                if node is not None and node not in seen:
                    seen.add(node)
                    result.answers.append(str(self.kg.term_of(node)))
            target_ids = {target.vertex_id for target in targets}
        with span("core.sparql_generation"):
            for match in matches[: self.k]:
                match_to_sparql(self.kg, graph, match, target_ids)


# --------------------------------------------------------------------- #
# The traced in-process run
# --------------------------------------------------------------------- #

#: Spans that lie inside a stage span (so they are not added twice).
_CHILD_SPANS = ("linking.link", "match.pruning")


def run_staged(
    recorder: SpanRecorder,
    compositions: dict[str, tuple],
    questions: list[str],
    budget_s: float,
) -> tuple[dict[str, float], dict[str, tuple[int, float]]]:
    """Alternate untraced ``GAnswer.answer`` passes with traced staged
    passes over every composition until ``budget_s`` has passed.

    ``compositions`` maps a name to ``(kg, dictionary, linker)``.  Returns
    the per-layer metrics this yields and, per composition, the
    ``(questions, seconds)`` of its untraced passes.
    """
    plain = {
        name: GAnswer(kg, dictionary, linker=linker)
        for name, (kg, dictionary, linker) in compositions.items()
    }
    staged = {
        name: StagedPipeline(kg, dictionary, linker, recorder)
        for name, (kg, dictionary, linker) in compositions.items()
    }
    plain_totals = {name: [0, 0.0] for name in compositions}
    staged_wall = 0.0
    results: list[StagedResult] = []
    request_ids = 0
    started = time.perf_counter()
    while True:
        for name, system in plain.items():
            begun = time.perf_counter()
            reference = {q: render(system.answer(q, tracer=obs.NOOP)) for q in questions}
            plain_totals[name][0] += len(questions)
            plain_totals[name][1] += time.perf_counter() - begun
            traced = {}
            begun = time.perf_counter()
            for question in questions:
                request_ids += 1
                result = staged[name].answer(question, f"{name}-{request_ids}")
                results.append(result)
                traced[question] = [result.answers, result.boolean]
            staged_wall += time.perf_counter() - begun
            gate(
                digest(traced) == digest(reference),
                f"staged pipeline and GAnswer.answer disagree on {name}",
            )
        if time.perf_counter() - started >= budget_s:
            break

    answered = len(results)
    plain_wall = sum(seconds for _count, seconds in plain_totals.values())
    totals: dict[str, float] = {}
    for row in recorder.spans:
        totals[row[1]] = totals.get(row[1], 0.0) + (row[3] - row[2])
    own = recorder.self_time_by_name()
    layers = {
        f"{name}_ms": totals.get(name, 0.0) / answered * 1000.0
        for name in STAGES + _CHILD_SPANS
    }
    layers["bench.layers_sum_ratio"] = (
        sum(own.get(name, 0.0) for name in STAGES + _CHILD_SPANS) / totals["answer"]
    )
    layers["obs.trace_overhead_ratio"] = staged_wall / plain_wall
    calls = sum(pipeline.linker.calls for pipeline in staged.values())
    found = sum(pipeline.linker.candidates for pipeline in staged.values())
    layers["linking.candidates_per_mention"] = found / calls if calls else 0.0
    searched = [r for r in results if r.terminated_by is not None]
    layers["core.top_k.seeds_explored"] = sum(r.seeds_explored for r in results) / answered
    layers["core.top_k.candidates_pruned"] = sum(r.candidates_pruned for r in results) / answered
    for kind in ("threshold", "exhausted", "pruned_empty", "empty"):
        layers[f"core.top_k.terminated_by.{kind}"] = (
            sum(r.terminated_by == kind for r in searched) / max(1, len(searched))
        )
    return layers, {name: (count, seconds) for name, (count, seconds) in plain_totals.items()}
