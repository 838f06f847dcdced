"""DEANNA baseline: joint disambiguation via ILP, then one SPARQL query.

Reimplements the comparison system of Yahya et al. (EMNLP 2012) as the
paper characterises it:

* **Question understanding is where disambiguation happens.**  All phrase
  candidates go into a *disambiguation graph*; selecting one candidate per
  phrase while maximising similarity + pairwise semantic coherence is an
  integer linear program (NP-hard).  Coherence between every candidate
  pair is computed on the fly against the knowledge graph — the paper:
  "it is very costly".
* **Single predicates only** — "existing systems ... only consider mapping
  the relation phrase to single predicates"; multi-hop paths are dropped.
* **One interpretation** — the ILP's optimum is translated into exactly one
  SPARQL query.  If that interpretation has no matches in the data, DEANNA
  simply returns nothing; there is no data-driven fallback.
* **No recall heuristics** — the four argument rules of Section 4.1.2 are
  our method's contribution (Table 9); DEANNA runs without them, and
  without the demonym/common-noun-variable extensions.

The output object is the same :class:`repro.core.pipeline.Answer`, so the
evaluation harness and benchmarks treat both systems uniformly.
"""

from __future__ import annotations

from repro import obs
from repro.baselines.ilp import IntegerProgram, InfeasibleError, Sense
from repro.core.argument_finding import ArgumentFinder
from repro.core.graph_builder import build_semantic_query_graph
from repro.core.pipeline import (
    Answer,
    FAILURE_ENTITY_LINKING,
    FAILURE_NO_MATCH,
    FAILURE_PARSE,
    FAILURE_RELATION_EXTRACTION,
    target_vertices,
)
from repro.core.relation_extraction import RelationExtractor
from repro.core.semantic_graph import QSVertex, SemanticQueryGraph, SemanticRelation
from repro.exceptions import ParseError
from repro.linking.linker import EntityLinker, LinkCandidate
from repro.nlp.dep_parser import DependencyParser
from repro.nlp.questions import analyze_question
from repro.paraphrase.dictionary import ParaphraseDictionary
from repro.rdf import vocab
from repro.rdf.graph import KnowledgeGraph, step_is_forward, step_predicate
from repro.rdf.ntriples import serialize_term
from repro.sparql import evaluate as sparql_evaluate
from repro.sparql import parse_query

#: weight of pairwise coherence relative to similarity in the ILP objective.
_COHERENCE_WEIGHT = 0.5


class Deanna:
    """The DEANNA-style generate-then-evaluate baseline."""

    def __init__(
        self,
        kg: KnowledgeGraph,
        dictionary: ParaphraseDictionary,
        linker: EntityLinker | None = None,
    ):
        self.kg = kg
        self.dictionary = dictionary
        self.parser = DependencyParser()
        self.extractor = RelationExtractor(dictionary)
        # No heuristic recall rules: they are the compared paper's addition.
        self.argument_finder = ArgumentFinder(use_heuristics=False)
        self.linker = linker if linker is not None else EntityLinker(kg)
        self.last_ilp_nodes = 0

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #

    def answer(self, question: str) -> Answer:
        tracer = obs.get_tracer()
        result = Answer(question=question)
        with tracer.span("answer", question=question, system="deanna") as root:
            result.analysis = analyze_question(question)
            with tracer.span("understanding") as span:
                selection = self._understand(question, result, tracer)
            result.understanding_time = span.duration
            if selection is None:
                root.set(failure=result.failure)
                return result
            graph, chosen_vertices, chosen_edges = selection

            with tracer.span("evaluation") as span:
                self._evaluate(graph, chosen_vertices, chosen_edges, result)
            result.evaluation_time = span.duration
            root.set(
                failure=result.failure,
                answers=len(result.answers),
                boolean=result.boolean,
            )
        return result

    # ------------------------------------------------------------------ #
    # Stage 1: understanding = candidates + joint ILP disambiguation
    # ------------------------------------------------------------------ #

    def _understand(self, question: str, result: Answer, tracer=obs.NOOP):
        with tracer.span("parse"):
            try:
                tree = self.parser.parse(question)
            except ParseError:
                result.failure = FAILURE_PARSE
                return None
        embeddings = self.extractor.find_embeddings(tree)
        relations: list[SemanticRelation] = []
        for embedding in embeddings:
            arguments = self.argument_finder.find_arguments(tree, embedding)
            if arguments is None:
                continue
            relations.append(
                SemanticRelation(
                    embedding.phrase_words, arguments.arg1, arguments.arg2,
                    embedding.nodes,
                )
            )
        if not relations:
            result.failure = FAILURE_RELATION_EXTRACTION
            return None
        graph = build_semantic_query_graph(relations)
        if not graph.edges:
            result.failure = FAILURE_RELATION_EXTRACTION
            return None
        result.semantic_graph = graph

        with tracer.span("candidate_generation"):
            vertex_candidates = self._vertex_candidates(graph, result)
            if vertex_candidates is None:
                return None
            edge_candidates = self._edge_candidates(graph, result)
            if edge_candidates is None:
                return None

        return self._solve_joint_ilp(
            graph, vertex_candidates, edge_candidates, result, tracer
        )

    def _vertex_candidates(self, graph: SemanticQueryGraph, result: Answer):
        candidates: dict[int, list[LinkCandidate] | None] = {}
        for vertex in graph.vertices.values():
            if vertex.is_wh:
                candidates[vertex.vertex_id] = None  # stays a variable
                continue
            linked = [
                candidate
                for candidate in self.linker.link(vertex.phrase)
                # DEANNA's linker returns entities and classes, not values.
                if not self.kg.store.is_literal_id(candidate.node_id)
            ]
            if not linked:
                result.failure = FAILURE_ENTITY_LINKING
                return None
            candidates[vertex.vertex_id] = linked
        return candidates

    def _edge_candidates(self, graph: SemanticQueryGraph, result: Answer):
        candidates: dict[int, list[tuple[int, bool, float]]] = {}
        for index, edge in enumerate(graph.edges):
            # Single predicates only: (predicate id, forward?, confidence).
            single = [
                (step_predicate(m.path[0]), step_is_forward(m.path[0]), m.confidence)
                for m in self.dictionary.lookup(edge.phrase_words)
                if len(m.path) == 1
            ]
            if not single:
                result.failure = FAILURE_RELATION_EXTRACTION
                return None
            candidates[index] = single
        return candidates

    def _solve_joint_ilp(
        self, graph, vertex_candidates, edge_candidates, result: Answer, tracer=obs.NOOP
    ):
        """Build and solve the disambiguation ILP.

        Variables: one selector per candidate of every phrase; one pair
        variable per (vertex candidate, incident edge candidate) pair with
        its on-the-fly coherence weight.  Constraints: exactly one
        candidate per phrase; pair variables linked to their selectors.
        """
        program = IntegerProgram()
        for vertex_id, candidates in vertex_candidates.items():
            if candidates is None:
                continue
            names = []
            for position, candidate in enumerate(candidates):
                name = f"v{vertex_id}_{position}"
                program.add_variable(name, candidate.score)
                names.append(name)
            program.add_constraint({name: 1.0 for name in names}, Sense.EQ, 1.0)
        for edge_index, candidates in edge_candidates.items():
            names = []
            for position, _candidate in enumerate(candidates):
                name = f"e{edge_index}_{position}"
                program.add_variable(name, candidates[position][2])
                names.append(name)
            program.add_constraint({name: 1.0 for name in names}, Sense.EQ, 1.0)

        # Pairwise coherence between every vertex candidate and every
        # candidate predicate of every incident edge — computed on the fly
        # against the graph (the expensive part the paper criticises).
        for edge_index, edge in enumerate(graph.edges):
            for vertex_id in (edge.source, edge.target):
                candidates = vertex_candidates.get(vertex_id)
                if candidates is None:
                    continue
                for vpos, vcand in enumerate(candidates):
                    for epos, (predicate, _forward, _conf) in enumerate(
                        edge_candidates[edge_index]
                    ):
                        coherence = self._coherence(vcand, predicate)
                        if coherence <= 0:
                            continue
                        pair = f"y_v{vertex_id}_{vpos}_e{edge_index}_{epos}"
                        program.add_variable(pair, _COHERENCE_WEIGHT * coherence)
                        vname = f"v{vertex_id}_{vpos}"
                        ename = f"e{edge_index}_{epos}"
                        program.add_constraint(
                            {pair: 1.0, vname: -1.0}, Sense.LE, 0.0
                        )
                        program.add_constraint(
                            {pair: 1.0, ename: -1.0}, Sense.LE, 0.0
                        )

        with tracer.span("ilp_solve", variables=program.variable_count()) as span:
            try:
                solution = program.solve()
            except InfeasibleError:
                result.failure = FAILURE_NO_MATCH
                return None
            span.set(nodes_explored=solution.nodes_explored)
        self.last_ilp_nodes = solution.nodes_explored
        tracer.metrics.incr("deanna.ilp_nodes_explored", solution.nodes_explored)

        chosen_vertices: dict[int, LinkCandidate | None] = {}
        for vertex_id, candidates in vertex_candidates.items():
            if candidates is None:
                chosen_vertices[vertex_id] = None
                continue
            for position, candidate in enumerate(candidates):
                if solution.assignment[f"v{vertex_id}_{position}"] == 1:
                    chosen_vertices[vertex_id] = candidate
                    break
        chosen_edges: dict[int, tuple[int, bool]] = {}
        for edge_index, candidates in edge_candidates.items():
            for position, (predicate, forward, _conf) in enumerate(candidates):
                if solution.assignment[f"e{edge_index}_{position}"] == 1:
                    chosen_edges[edge_index] = (predicate, forward)
                    break
        return graph, chosen_vertices, chosen_edges

    def _coherence(self, candidate: LinkCandidate, predicate: int) -> float:
        """Semantic coherence of (entity/class candidate, predicate):
        1 when the candidate (or an instance of it) touches the predicate."""
        if candidate.is_class:
            nodes = self.kg.instances_of(candidate.node_id)
        else:
            nodes = {candidate.node_id}
        for node in nodes:
            for step, _neighbor in self.kg.kernel.neighbors(node):
                if step_predicate(step) == predicate:
                    return 1.0
        return 0.0

    # ------------------------------------------------------------------ #
    # Stage 2: SPARQL generation and evaluation
    # ------------------------------------------------------------------ #

    def _evaluate(self, graph, chosen_vertices, chosen_edges, result: Answer) -> None:
        targets = target_vertices(graph)
        target_ids = {vertex.vertex_id for vertex in targets}
        queries = self._sparql_queries(graph, chosen_vertices, chosen_edges, target_ids)
        result.sparql_queries = queries

        if target_ids:
            primary = f"?v{targets[0].vertex_id}"
            answers = []
            seen = set()
            for query_text in queries:
                for row in sparql_evaluate(self.kg.store, parse_query(query_text)):
                    for variable, term in row.items():
                        if f"?{variable.name}" == primary and term not in seen:
                            seen.add(term)
                            answers.append(term)
            result.answers = answers
            if not answers:
                result.failure = FAILURE_NO_MATCH
        else:
            result.boolean = any(
                sparql_evaluate(self.kg.store, parse_query(query_text))
                for query_text in queries
            )

    def _sparql_queries(self, graph, chosen_vertices, chosen_edges, target_ids):
        """The disambiguated SPARQL: ONE query for ONE interpretation.

        DEANNA's model fixes predicate directions from its templates;
        lacking those, each edge becomes a two-arm UNION over the two
        orientations — still a single query, still a single committed
        candidate per phrase.
        """

        def vertex_term(vertex: QSVertex) -> str:
            chosen = chosen_vertices.get(vertex.vertex_id)
            if vertex.vertex_id in target_ids or chosen is None or chosen.is_class:
                return f"?v{vertex.vertex_id}"
            return serialize_term(self.kg.term_of(chosen.node_id))

        type_lines: list[str] = []
        for vertex in graph.vertices.values():
            chosen = chosen_vertices.get(vertex.vertex_id)
            if chosen is not None and chosen.is_class:
                class_term = serialize_term(self.kg.term_of(chosen.node_id))
                type_lines.append(
                    f"  ?v{vertex.vertex_id} {serialize_term(vocab.RDF_TYPE)} {class_term} ."
                )

        union_blocks: list[str] = []
        for index, edge in enumerate(graph.edges):
            predicate, forward = chosen_edges[index]
            predicate_term = serialize_term(self.kg.iri_of(predicate))
            source = vertex_term(graph.vertices[edge.source])
            target = vertex_term(graph.vertices[edge.target])
            first, second = (source, target) if forward else (target, source)
            union_blocks.append(
                f"  {{ {first} {predicate_term} {second} . }} UNION "
                f"{{ {second} {predicate_term} {first} . }}"
            )

        body = "\n".join(type_lines + union_blocks)
        if target_ids:
            projection = " ".join(f"?v{vid}" for vid in sorted(target_ids))
            return [f"SELECT DISTINCT {projection} WHERE {{\n{body}\n}}"]
        return [f"ASK WHERE {{\n{body}\n}}"]
