"""Template-based QA baseline in the style of Unger et al. (WWW 2012).

The related-work reference point: a fixed set of question templates, each
with a SPARQL skeleton; slots are filled with the *top-1* entity link and
the *top-1* dictionary predicate — no joint reasoning at all.  Brittle by
design; useful as a floor in the end-to-end comparison and as the "manually
defined SPARQL templates" contrast of Section 7.

Stage timing comes from the shared ``repro.obs`` spans (the same
``understanding`` / ``evaluation`` names as the main pipeline), so the
harness and Figure 6 compare all systems on identical instrumentation.
"""

from __future__ import annotations

import re

from repro import obs
from repro.core.pipeline import Answer, FAILURE_ENTITY_LINKING, FAILURE_NO_MATCH, FAILURE_RELATION_EXTRACTION
from repro.linking.linker import EntityLinker
from repro.nlp.questions import analyze_question
from repro.paraphrase.dictionary import ParaphraseDictionary
from repro.paraphrase.miner import normalize_phrase
from repro.rdf.graph import KnowledgeGraph, step_is_forward, step_predicate
from repro.rdf.ntriples import serialize_term
from repro.sparql import evaluate as sparql_evaluate
from repro.sparql import parse_query

#: (pattern, relation-slot, entity-slot).  Groups: rel / ent.
_TEMPLATES = [
    re.compile(r"^(?:who|what) (?:is|was|are|were) the (?P<rel>[\w ]+?) of (?:the )?(?P<ent>[\w .'-]+)\?$", re.I),
    re.compile(r"^(?:give me|list) (?:all |the )?(?P<rel>[\w ]+?) of (?:the )?(?P<ent>[\w .'-]+)\.?$", re.I),
    re.compile(r"^who (?P<rel>[\w ]+?) (?P<ent>[\w .'-]+)\?$", re.I),
]


class TemplateQA:
    """Top-1 template instantiation: one pattern, one entity, one predicate."""

    def __init__(self, kg: KnowledgeGraph, dictionary: ParaphraseDictionary):
        self.kg = kg
        self.dictionary = dictionary
        self.linker = EntityLinker(kg, max_candidates=1)

    def answer(self, question: str) -> Answer:
        tracer = obs.get_tracer()
        result = Answer(question=question)
        with tracer.span("answer", question=question, system="template_qa") as root:
            result.analysis = analyze_question(question)
            with tracer.span("understanding") as span:
                slots = self._understand(question, result, tracer)
            result.understanding_time = span.duration
            if slots is not None:
                with tracer.span("evaluation") as span:
                    self._evaluate(*slots, result)
                result.evaluation_time = span.duration
            root.set(failure=result.failure, answers=len(result.answers))
        return result

    # ------------------------------------------------------------------ #

    def _understand(self, question: str, result: Answer, tracer):
        """Template match + top-1 predicate and entity, or None on failure."""
        slots = self._match_template(question)
        if slots is None:
            result.failure = FAILURE_RELATION_EXTRACTION
            return None
        relation_phrase, entity_phrase = slots

        # The templates strip the connective; try the dictionary's phrasings.
        variants = (
            relation_phrase,
            f"{relation_phrase} of",
            f"is the {relation_phrase} of",
        )
        mappings = []
        for variant in variants:
            mappings = [
                m
                for m in self.dictionary.lookup(normalize_phrase(variant))
                if len(m.path) == 1
            ]
            if mappings:
                break
        if not mappings:
            result.failure = FAILURE_RELATION_EXTRACTION
            return None
        with tracer.span("linking", phrase=entity_phrase) as span:
            links = self.linker.link(entity_phrase, tracer=tracer)
            span.set(candidates=len(links))
        if not links:
            result.failure = FAILURE_ENTITY_LINKING
            return None
        return mappings, links

    def _evaluate(self, mappings, links, result: Answer) -> None:
        step = mappings[0].path[0]
        predicate = serialize_term(self.kg.iri_of(step_predicate(step)))
        entity = serialize_term(self.kg.term_of(links[0].node_id))
        if step_is_forward(step):
            pattern = f"?x {predicate} {entity} ."
        else:
            pattern = f"{entity} {predicate} ?x ."
        query_text = f"SELECT DISTINCT ?x WHERE {{ {pattern} }}"
        result.sparql_queries = [query_text]
        rows = sparql_evaluate(self.kg.store, parse_query(query_text))
        result.answers = [row[variable] for row in rows for variable in row]
        if not result.answers:
            result.failure = FAILURE_NO_MATCH

    @staticmethod
    def _match_template(question: str) -> tuple[str, str] | None:
        text = " ".join(question.split())
        for template in _TEMPLATES:
            match = template.match(text)
            if match:
                return match.group("rel"), match.group("ent")
        return None
