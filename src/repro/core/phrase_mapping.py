"""Phrase mapping (Section 4.2.1): Q^S → candidate space.

Every vertex of Q^S gets its candidate list C_v:

* wh-words become wildcards — they "can match all entities and classes";
  a light answer-type filter restricts *when* to date-like literals and
  *how (tall/many/...)* to numeric literals, so the wildcard binds values
  of the right kind (the paper's wh-handling leaves this to the gold
  standard's answer type; see DESIGN.md);
* other arguments go through entity linking, yielding entities *and*
  classes with confidences δ(arg, u) — ambiguity is kept.

Every edge gets its candidate list C_e from the paraphrase dictionary:
predicates and predicate paths with confidences δ(rel, L).
"""

from __future__ import annotations

import re

from repro import obs
from repro.core.semantic_graph import QSVertex, SemanticQueryGraph
from repro.linking.index import lookup_words
from repro.linking.linker import EntityLinker
from repro.match.candidates import (
    CandidateSpace,
    EdgeCandidate,
    QueryEdge,
    QueryVertex,
    ReadScope,
    VertexCandidate,
)
from repro.paraphrase.dictionary import ParaphraseDictionary
from repro.rdf import vocab
from repro.rdf.graph import KnowledgeGraph, step_predicate
from repro.rdf.terms import Literal

_DATE_RE = re.compile(r"^\d{4}(-\d{2}(-\d{2})?)?$")
_NUMBER_RE = re.compile(r"^-?\d+(\.\d+)?$")


class PhraseMapper:
    """Maps Q^S phrases to graph candidates, keeping all ambiguity."""

    def __init__(
        self,
        kg: KnowledgeGraph,
        dictionary: ParaphraseDictionary,
        linker: EntityLinker | None = None,
    ):
        self.kg = kg
        self.dictionary = dictionary
        self.linker = linker if linker is not None else EntityLinker(kg)

    # ------------------------------------------------------------------ #

    def build_candidate_space(
        self, graph: SemanticQueryGraph, tracer=None
    ) -> CandidateSpace:
        """The matching problem for Q^S: C_v and C_e for every vertex/edge."""
        if tracer is None:
            tracer = obs.get_tracer()
        space = CandidateSpace()
        words: set[str] = set()
        for vertex in graph.vertices.values():
            space.add_vertex(self._map_vertex(vertex, words, tracer))
        structural = self.kg.structural_predicate_ids
        predicates = set(structural)
        expressible = True
        for edge in graph.edges:
            mappings = self.dictionary.lookup(edge.phrase_words)
            candidates = [EdgeCandidate(m.path, m.confidence) for m in mappings]
            tracer.metrics.incr("mapping.edge_candidates", len(candidates))
            space.add_edge(QueryEdge(edge.source, edge.target, candidates=candidates))
            for mapping in mappings:
                path = mapping.path
                predicates.update(map(step_predicate, path))
                # A path that can start with a structural predicate makes
                # an all-wildcard search seed from every node of the graph
                # (``SubgraphMatcher._wildcard_seeds``): no scope says that.
                if path and (
                    step_predicate(path[0]) in structural
                    or step_predicate(path[-1]) in structural
                ):
                    expressible = False
        if expressible:
            space.scope = ReadScope(frozenset(predicates), frozenset(words))
        return space

    # ------------------------------------------------------------------ #

    def _map_vertex(
        self, vertex: QSVertex, words: set[str], tracer=obs.NOOP
    ) -> QueryVertex:
        """C_v of one vertex; the posting keys its linking read go to ``words``."""
        if vertex.is_wh:
            return QueryVertex(
                vertex.vertex_id,
                wildcard=True,
                wildcard_filter=self._wildcard_filter(vertex.node.lower),
            )
        phrase = self._longest_linkable_phrase(vertex)
        words |= lookup_words(phrase)
        with tracer.span("linking", phrase=phrase) as span:
            candidates = [
                VertexCandidate(link.node_id, link.score, link.is_class)
                for link in self.linker.link(phrase, tracer=tracer)
            ]
            span.set(candidates=len(candidates))
        if not candidates and vertex.node.pos in ("NN", "NNS"):
            # An unlinkable common noun ("the creator of Miffy") denotes an
            # unconstrained variable, not a failed entity mention — proper
            # nouns that fail to link stay empty and surface as Table 10's
            # entity-linking failures.
            return QueryVertex(vertex.vertex_id, wildcard=True)
        return QueryVertex(vertex.vertex_id, candidates=candidates)

    def _longest_linkable_phrase(self, vertex: QSVertex) -> str:
        """Longest-match linking: extend the argument with an attached
        of/in prepositional phrase when the extended surface form links
        exactly ("Nobel Prize in Chemistry", "University of Paris") —
        otherwise the bare phrase stands."""
        node = vertex.node
        for child in node.children:
            if child.deprel != "prep" or child.lower not in ("of", "in"):
                continue
            pobj = next((g for g in child.children if g.deprel == "pobj"), None)
            if pobj is None:
                continue
            extended = f"{vertex.phrase} {child.word} {pobj.phrase()}"
            if self.linker.index.exact(extended):
                return extended
        return vertex.phrase

    def _wildcard_filter(self, wh_word: str):
        """Answer-type restriction for a wh wildcard (None = unrestricted)."""
        kg = self.kg

        def is_date_like(node_id: int) -> bool:
            if not kg.store.is_literal_id(node_id):
                return False
            term = kg.term_of(node_id)
            assert isinstance(term, Literal)
            return term.datatype == vocab.XSD_DATE or bool(_DATE_RE.match(term.lexical))

        def is_numeric(node_id: int) -> bool:
            if not kg.store.is_literal_id(node_id):
                return False
            term = kg.term_of(node_id)
            assert isinstance(term, Literal)
            if term.datatype in (vocab.XSD_INTEGER, vocab.XSD_DECIMAL, vocab.XSD_DOUBLE):
                return True
            return bool(_NUMBER_RE.match(term.lexical))

        def is_node(node_id: int) -> bool:
            return not kg.store.is_literal_id(node_id)

        if wh_word == "when":
            return is_date_like
        if wh_word == "how":
            return is_numeric
        if wh_word in ("who", "whom", "where", "which"):
            return is_node
        return None  # "what" and anything else: unrestricted
