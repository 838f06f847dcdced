"""The GAnswer pipeline: natural language question → RDF answers.

Wires the whole paper together (Figure 1(c)):

* question understanding — parse, find relation-phrase embeddings
  (Algorithm 2), attach arguments (Section 4.1.2 rules), resolve
  coreference, build Q^S;
* query evaluation — map phrases to candidates (ambiguity kept), run the
  TA-style top-k subgraph search (Algorithm 3), read answers off the
  target vertex's bindings, and emit the equivalent top-k SPARQL queries.

Failures are classified the way the paper's Table 10 does: entity linking,
relation extraction, aggregation, other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro import obs
from repro.core.argument_finding import ArgumentFinder
from repro.core.graph_builder import build_semantic_query_graph
from repro.core.phrase_mapping import PhraseMapper
from repro.core.relation_extraction import RelationExtractor
from repro.core.semantic_graph import SemanticQueryGraph, SemanticRelation
from repro.core.sparql_generation import match_to_sparql
from repro.core.top_k import TopKSearch
from repro.exceptions import ParseError
from repro.linking.linker import EntityLinker
from repro.match.candidates import ReadScope
from repro.match.matcher import GraphMatch
from repro.nlp.dep_parser import DependencyParser
from repro.nlp.questions import QuestionAnalysis, analyze_question
from repro.nlp.tagger import tag
from repro.nlp.tokenizer import Token
from repro.paraphrase.dictionary import ParaphraseDictionary
from repro.rdf.graph import KnowledgeGraph
from repro.rdf.terms import Term

def target_vertices(graph: SemanticQueryGraph) -> list:
    """The vertices whose bindings answer the question.

    Wh vertices win (all of them — a multi-wh question asks for a tuple);
    otherwise the single best fallback in sentence order: a wh- or
    "all"-determined nominal ("which CITIES", "Give me all MOVIES ..."),
    then the object of an imperative, then the first common noun.  Every
    non-wh branch yields at most one target so answer read-off and SPARQL
    projection stay consistent.  Empty for yes/no questions.
    """
    wh = sorted(graph.wh_vertices(), key=lambda v: v.node.index)
    if wh:
        return wh
    candidates = []
    for vertex in graph.vertices.values():
        node = vertex.node
        # A wh-determined or "all"-determined nominal is the asked-for set
        # regardless of its grammatical role ("Which PHYSICISTS won ...",
        # "Give me all MOVIES ...").
        if any(
            child.pos == "WDT" or child.lower == "all" for child in node.children
        ):
            candidates.append(vertex)
    if candidates:
        return sorted(candidates, key=lambda v: v.node.index)[:1]
    direct_objects = [
        vertex for vertex in graph.vertices.values() if vertex.node.deprel == "dobj"
    ]
    if direct_objects:
        return sorted(direct_objects, key=lambda v: v.node.index)[:1]
    common = [
        vertex
        for vertex in graph.vertices.values()
        if vertex.node.pos in ("NN", "NNS")
    ]
    return sorted(common, key=lambda v: v.node.index)[:1]


#: Failure classes of Table 10.
FAILURE_ENTITY_LINKING = "entity_linking"
FAILURE_RELATION_EXTRACTION = "relation_extraction"
FAILURE_AGGREGATION = "aggregation"
FAILURE_NO_MATCH = "no_match"
FAILURE_PARSE = "parse"


@dataclass(slots=True)
class Answer:
    """Everything the pipeline produced for one question."""

    question: str
    answers: list[Term] = field(default_factory=list)
    boolean: bool | None = None
    matches: list[GraphMatch] = field(default_factory=list)
    sparql_queries: list[str] = field(default_factory=list)
    semantic_graph: SemanticQueryGraph | None = None
    analysis: QuestionAnalysis | None = None
    failure: str | None = None
    rules_used: frozenset[str] = frozenset()
    understanding_time: float = 0.0
    evaluation_time: float = 0.0
    #: How the primary component's top-k search ended (see TopKResult);
    #: ``"deadline"`` marks a partial result cut short by a per-request
    #: deadline — the serving layer surfaces it to clients.
    terminated_by: str | None = None
    #: What of the graph this answer is a function of — what a cache must
    #: watch to keep serving it across writes.  Nothing, until candidate
    #: mapping has run (understanding reads the question and the
    #: paraphrase dictionary only); ``None`` when no scope says it (the
    #: answer then stands for the store version it was computed at).
    scope: ReadScope | None = ReadScope()

    @property
    def total_time(self) -> float:
        return self.understanding_time + self.evaluation_time

    @property
    def processed(self) -> bool:
        """QALD's 'processed': the system returned some answer."""
        return bool(self.answers) or self.boolean is not None


class GAnswer:
    """End-to-end graph data driven RDF question answering.

    Parameters
    ----------
    kg:
        The knowledge graph to answer over.
    dictionary:
        A mined :class:`ParaphraseDictionary` (the offline phase's output).
    k:
        Number of top matches to return (the paper's experiments use 10).
    use_heuristic_rules:
        Toggle for Section 4.1.2's Rules 1–4 (the Table 9 ablation).
    use_ta / use_pruning:
        Toggles for Algorithm 3's threshold stop and neighborhood pruning.
    enable_aggregation:
        Opt-in extension: superlative post-processing (the paper lists
        aggregation support as future work; off by default to match it).
    """

    def __init__(
        self,
        kg: KnowledgeGraph,
        dictionary: ParaphraseDictionary,
        k: int = 10,
        use_heuristic_rules: bool = True,
        use_ta: bool = True,
        use_pruning: bool = True,
        enable_aggregation: bool = False,
        linker: EntityLinker | None = None,
    ):
        if k < 1:
            raise ValueError(f"k must be at least 1, got {k}")
        self.kg = kg
        self.dictionary = dictionary
        self.k = k
        self.enable_aggregation = enable_aggregation
        self.parser = DependencyParser()
        self.extractor = RelationExtractor(dictionary)
        self.argument_finder = ArgumentFinder(use_heuristics=use_heuristic_rules)
        self.mapper = PhraseMapper(kg, dictionary, linker=linker)
        self.searcher = TopKSearch(kg, k=k, use_ta=use_ta, use_pruning=use_pruning)

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #

    def answer(
        self, question: str, tracer=None, deadline: float | None = None
    ) -> Answer:
        """Answer a natural language question.

        ``tracer`` overrides the process tracer (``obs.get_tracer()``) for
        this call — the serving layer passes a per-request tracer so
        concurrent requests never share a span stack.  ``deadline`` is an
        absolute :func:`time.monotonic` instant threaded into the top-k
        search; when it expires the answer is built from the partial
        matches found so far and ``terminated_by`` reads ``"deadline"``.
        """
        if tracer is None:
            tracer = obs.get_tracer()
        result = Answer(question=question)
        with tracer.span("answer", question=question) as root:
            with tracer.span("understanding") as span:
                # Tagged once: the analysis and the parser read the same
                # tokens and neither writes to them.
                tokens = tag(question)
                result.analysis = analyze_question(tokens)
                graph = self._understand(tokens, result, tracer)
            result.understanding_time = span.duration
            if graph is None:
                root.set(failure=result.failure)
                return result
            result.semantic_graph = graph

            with tracer.span("evaluation") as span:
                self._evaluate(graph, result, tracer, deadline)
            result.evaluation_time = span.duration
            if result.analysis.is_aggregation:
                if self.enable_aggregation:
                    # Extension (the paper's future work): post-process
                    # superlatives over the matched answer set.  It picks
                    # its predicates by local name, whatever their ids.
                    self._apply_aggregation(question, result)
                    result.scope = None
                elif len(result.answers) > 1:
                    # The base method cannot aggregate: a superlative question
                    # with several matched answers is (at best) partially right
                    # — Table 10's largest failure class.  KBs with a direct
                    # superlative predicate (largestCity) still answer exactly.
                    result.failure = FAILURE_AGGREGATION
            root.set(
                failure=result.failure,
                answers=len(result.answers),
                boolean=result.boolean,
            )
        return result

    # ------------------------------------------------------------------ #
    # Stage 1: question understanding
    # ------------------------------------------------------------------ #

    def _understand(
        self, tokens: list[Token], result: Answer, tracer=obs.NOOP
    ) -> SemanticQueryGraph | None:
        with tracer.span("parse"):
            try:
                tree = self.parser.parse(tokens)
            except ParseError:
                result.failure = FAILURE_PARSE
                return None
        with tracer.span("relation_extraction") as span:
            embeddings = self.extractor.find_embeddings(tree)
            span.set(embeddings=len(embeddings))
        relations: list[SemanticRelation] = []
        rules_used: set[str] = set()
        with tracer.span("argument_finding") as span:
            for embedding in embeddings:
                arguments = self.argument_finder.find_arguments(tree, embedding)
                if arguments is None:
                    continue  # the paper discards the relation phrase
                rules_used |= arguments.rules_used
                relations.append(
                    SemanticRelation(
                        embedding.phrase_words,
                        arguments.arg1,
                        arguments.arg2,
                        embedding.nodes,
                    )
                )
            span.set(relations=len(relations), rules=sorted(rules_used))
        result.rules_used = frozenset(rules_used)
        with tracer.span("qs_build") as span:
            # Question-understanding extension: demonym adjectives carry an
            # implicit relation ("Argentine films" → country Argentina).
            from repro.core.demonyms import extract_demonym_relations

            used_indexes = frozenset(
                index for embedding in embeddings for index in embedding.node_indexes()
            )
            relations.extend(extract_demonym_relations(tree, used_indexes))
            if not relations:
                result.failure = FAILURE_RELATION_EXTRACTION
                return None
            graph = build_semantic_query_graph(relations)
            if not graph.edges:
                result.failure = FAILURE_RELATION_EXTRACTION
                return None
            span.set(vertices=len(graph.vertices), edges=len(graph.edges))
        return graph

    # ------------------------------------------------------------------ #
    # Stage 2: query evaluation
    # ------------------------------------------------------------------ #

    def _evaluate(
        self,
        graph: SemanticQueryGraph,
        result: Answer,
        tracer=obs.NOOP,
        deadline: float | None = None,
    ) -> None:
        with tracer.span("candidate_mapping") as span:
            space = self.mapper.build_candidate_space(graph, tracer=tracer)
            span.set(vertices=len(space.vertices), edges=len(space.edges))
        result.scope = space.scope
        for vertex_id, query_vertex in space.vertices.items():
            if not query_vertex.wildcard and not query_vertex.candidates:
                result.failure = FAILURE_ENTITY_LINKING
                return

        targets = self._target_vertices(graph)
        primary_id = targets[0].vertex_id if targets else None
        components = space.components()
        # Answers come from the component holding the target vertex; other
        # components act as existence constraints.
        components.sort(key=lambda c: 0 if primary_id in c.vertices else 1)
        per_component: list[list[GraphMatch]] = []
        for position, component in enumerate(components):
            found = self.searcher.search(component, tracer=tracer, deadline=deadline)
            if position == 0 or found.terminated_by == "deadline":
                # The primary component attributes the search outcome;
                # a deadline expiry anywhere overrides it (the answer is
                # partial no matter which component was cut short).
                result.terminated_by = found.terminated_by
            if not found.matches:
                if targets:
                    result.failure = FAILURE_NO_MATCH
                else:
                    # Yes/no: an unmatched query graph is a "no".
                    result.boolean = False
                return
            per_component.append(found.matches)
        result.matches = self._combine(per_component)
        if targets:
            # Answers are read off the matches tied at the best score: a
            # strictly lower-scored match is a weaker interpretation of the
            # question, not an additional answer.  All top-k matches stay
            # available in ``result.matches`` (the paper's footnote 4
            # already returns score ties together).
            primary = targets[0]
            best_score = result.matches[0].score if result.matches else 0.0
            seen: set[Term] = set()
            for match in result.matches:
                if not math.isclose(match.score, best_score, abs_tol=1e-9):
                    break
                node = match.binding_of(primary.vertex_id)
                if node is None:
                    continue
                term = self.kg.term_of(node)
                if term not in seen:
                    seen.add(term)
                    result.answers.append(term)
            target_ids = {target.vertex_id for target in targets}
            with tracer.span("sparql_generation") as span:
                result.sparql_queries = [
                    match_to_sparql(self.kg, graph, match, target_ids)
                    for match in result.matches[: self.k]
                ]
                span.set(queries=len(result.sparql_queries))
            if not result.answers:
                result.failure = FAILURE_NO_MATCH
        else:
            # Yes/no: a match is a proof.
            result.boolean = bool(result.matches)
            with tracer.span("sparql_generation") as span:
                result.sparql_queries = [
                    match_to_sparql(self.kg, graph, match, set())
                    for match in result.matches[: self.k]
                ]
                span.set(queries=len(result.sparql_queries))

    def _target_vertices(self, graph: SemanticQueryGraph):
        return target_vertices(graph)

    @staticmethod
    def _combine(per_component: list[list[GraphMatch]]) -> list[GraphMatch]:
        """Merge component matches: answers rank by the target component's
        scores; constraint components contribute their best score."""
        if len(per_component) == 1:
            return per_component[0]
        base = per_component[0]
        extra = sum(matches[0].score for matches in per_component[1:])
        return [
            GraphMatch(
                bindings=match.bindings,
                vertex_confidences=match.vertex_confidences,
                edge_assignments=match.edge_assignments,
                score=match.score + extra,
            )
            for match in base
        ]

    # ------------------------------------------------------------------ #
    # Extension: aggregation post-processing (future work in the paper)
    # ------------------------------------------------------------------ #

    def _apply_aggregation(self, question: str, result: Answer) -> None:
        from repro.core.aggregation import apply_superlative

        apply_superlative(self.kg, question, result)
