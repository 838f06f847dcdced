"""Algorithm 1: mining the paraphrase dictionary from support pairs.

Input: a relation-phrase dataset T where each phrase carries supporting
entity pairs (as IRIs), and a knowledge graph G.  Output: a
:class:`ParaphraseDictionary` mapping each phrase to its top-k predicate
paths by tf-idf confidence.

Confidences are normalized per phrase to (0, 1] (the paper's Table 6 note:
"the confidence probabilities are normalized").
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import obs
from repro.exceptions import MiningError
from repro.nlp.lemmatizer import lemmatize_adjective, lemmatize_noun, lemmatize_verb
from repro.paraphrase.dictionary import ParaphraseDictionary, PredicateMapping
from repro.paraphrase.path_mining import find_simple_paths
from repro.paraphrase.tfidf import (
    document_frequencies,
    smoothed_idf_from_count,
    tf_value,
)
from repro.rdf.collector import collector_paused
from repro.rdf.graph import KnowledgeGraph
from repro.rdf.terms import IRI

Path = tuple[int, ...]


def normalize_phrase(phrase: str) -> tuple[str, ...]:
    """Canonical lemma-tuple form of a relation phrase.

    "was married to" and "be married to" both normalize to
    ("be", "married"→"marry", "to") so surface variation in either the
    phrase dataset or the question collapses to one key.

    Each word is lemmatized verb-first (relation phrases are verb-centred),
    falling back to noun morphology ("children of" → ("child", "of")) so the
    result agrees with the POS-aware lemmas on dependency-tree nodes.
    """
    from repro.nlp import lexicon

    normalized: list[str] = []
    for word in phrase.lower().split():
        adjective_lemma = lemmatize_adjective(word)
        if adjective_lemma != word:
            # Graded adjectives ("largest" → "large") agree with the
            # POS-aware lemmas on dependency-tree nodes.
            normalized.append(adjective_lemma)
            continue
        noun_lemma = lemmatize_noun(word)
        if noun_lemma in lexicon.NOUNS or noun_lemma in lexicon.IRREGULAR_NOUN_PLURALS.values():
            # Known nouns take noun morphology ("movies" → "movie", never
            # the verb rule's "movy").
            normalized.append(noun_lemma)
            continue
        verb_lemma = lemmatize_verb(word)
        normalized.append(verb_lemma if verb_lemma != word else noun_lemma)
    return tuple(normalized)


@dataclass(slots=True)
class RelationPhraseDataset:
    """A Patty/ReVerb-style dataset: phrases with supporting entity pairs."""

    support: dict[str, list[tuple[IRI, IRI]]] = field(default_factory=dict)

    def add(self, phrase: str, pairs: list[tuple[IRI, IRI]]) -> None:
        self.support.setdefault(phrase, []).extend(pairs)

    def __len__(self) -> int:
        return len(self.support)

    def pair_count(self) -> int:
        return sum(len(pairs) for pairs in self.support.values())

    def statistics(self) -> dict[str, float]:
        """Table 5-shaped statistics of the dataset."""
        phrases = len(self.support)
        pairs = self.pair_count()
        return {
            "relation_phrases": phrases,
            "entity_pairs": pairs,
            "avg_pairs_per_phrase": (pairs / phrases) if phrases else 0.0,
        }


@dataclass(frozen=True, slots=True)
class MiningReport:
    """Diagnostics from one mining run."""

    phrases: int
    pairs_total: int
    pairs_located: int          # pairs whose both endpoints exist in G
    candidate_paths: int

    @property
    def located_fraction(self) -> float:
        """Fraction of support pairs found in the graph (the paper reports
        67 % of Patty pairs occur in DBpedia)."""
        if self.pairs_total == 0:
            return 0.0
        return self.pairs_located / self.pairs_total


class ParaphraseMiner:
    """Runs Algorithm 1 over a relation-phrase dataset.

    Parameters
    ----------
    kg:
        Knowledge graph to mine against.
    max_path_length:
        The θ threshold on simple-path length (the paper defaults to 4;
        Table 7 compares θ=2 and θ=4).
    top_k:
        Number of predicate paths kept per phrase.
    use_tfidf:
        When False, paths are scored by raw tf only — the ablation for the
        noise discussion in Section 3 (hasGender-style paths survive).
    """

    def __init__(
        self,
        kg: KnowledgeGraph,
        max_path_length: int = 4,
        top_k: int = 3,
        use_tfidf: bool = True,
        length_discount: float = 0.75,
    ):
        if max_path_length < 1:
            raise MiningError("max_path_length must be at least 1")
        if top_k < 1:
            raise MiningError("top_k must be at least 1")
        if not 0 < length_discount <= 1:
            raise MiningError("length_discount must be in (0, 1]")
        self.kg = kg
        self.max_path_length = max_path_length
        self.top_k = top_k
        self.use_tfidf = use_tfidf
        # Exp 1 finds precision dropping sharply with path length and
        # recommends human verification of multi-hop mappings; the geometric
        # length discount is our automatic stand-in for that verification —
        # an L-hop path's score is multiplied by discount^(L-1).
        self.length_discount = length_discount
        self.last_report: MiningReport | None = None

    # ------------------------------------------------------------------ #

    def mine(self, dataset: RelationPhraseDataset) -> ParaphraseDictionary:
        """Run Algorithm 1 and return the paraphrase dictionary."""
        tracer = obs.get_tracer()
        with tracer.span("mining.mine", phrases=len(dataset)) as span, collector_paused():
            per_pair_sets, located, total = self._collect_path_sets(dataset, tracer)
            # Union of paths per phrase, for the idf denominator.
            phrase_paths: dict[str, set[Path]] = {
                phrase: set().union(*path_sets) if path_sets else set()
                for phrase, path_sets in per_pair_sets.items()
            }
            dictionary = ParaphraseDictionary()
            candidates = 0
            with tracer.span("mining.score_paths"):
                # idf denominators in one pass over the dictionary instead
                # of one scan per (phrase, path): |T| is fixed for the run
                # and each path's document frequency never changes.
                df = document_frequencies(phrase_paths)
                total_phrases = len(phrase_paths)
                for phrase, path_sets in per_pair_sets.items():
                    scored: list[tuple[Path, float]] = []
                    for path in phrase_paths[phrase]:
                        tf = tf_value(path, path_sets)
                        score = float(tf)
                        if self.use_tfidf:
                            score = tf * smoothed_idf_from_count(
                                df[path], total_phrases
                            )
                        score *= self.length_discount ** (len(path) - 1)
                        if score > 0:
                            scored.append((path, score))
                    candidates += len(scored)
                    scored.sort(key=lambda item: (-item[1], len(item[0]), item[0]))
                    top = scored[: self.top_k]
                    mappings = self._normalize(top)
                    dictionary.add(normalize_phrase(phrase), mappings)
            self.last_report = MiningReport(
                phrases=len(per_pair_sets),
                pairs_total=total,
                pairs_located=located,
                candidate_paths=candidates,
            )
            span.set(
                pairs_total=total,
                pairs_located=located,
                candidate_paths=candidates,
            )
        return dictionary

    # ------------------------------------------------------------------ #

    def _collect_path_sets(self, dataset: RelationPhraseDataset, tracer=obs.NOOP):
        """Per phrase, the path set of each support pair that occurs in G
        and connects by some path; plus the located and total pair counts.

        One walk memo — trees, literal-prefix enumerations and the
        literal-free rows they were expanded over — serves every pair of
        the run (endpoints repeat across phrases) and goes with it:
        afterwards it would only be weight — thousands of trees every
        later collection walks."""
        per_pair_sets: dict[str, list[set[Path]]] = {}
        memo: dict = {}
        located = 0
        total = 0
        with tracer.span("mining.collect_paths"):
            for phrase, pairs in dataset.support.items():
                path_sets = per_pair_sets[phrase] = []
                for left, right in pairs:
                    total += 1
                    left_ids = self._resolve_endpoint(left)
                    right_ids = self._resolve_endpoint(right)
                    if not left_ids or not right_ids:
                        continue  # pair does not occur in G (the 33 % in Patty)
                    located += 1
                    paths: set[Path] = set()
                    for left_id in left_ids:
                        for right_id in right_ids:
                            paths |= find_simple_paths(
                                self.kg, left_id, right_id, self.max_path_length,
                                tracer=tracer, memo=memo,
                            )
                    if paths:
                        path_sets.append(paths)
        return per_pair_sets, located, total

    def _resolve_endpoint(self, term) -> list[int]:
        """Graph ids a support-pair endpoint may denote (empty = absent).

        Literal endpoints come from text, so they match by lexical form
        regardless of datatype ("1.98" finds the xsd:decimal literal); all
        same-lexical literals are candidates.
        """
        from repro.rdf.terms import Literal

        found = self.kg.id_of(term)
        if found is not None:
            return [found]
        if isinstance(term, Literal):
            return sorted(self.kg.literal_ids_by_lexical(term.lexical))
        return []

    @staticmethod
    def _normalize(scored: list[tuple[Path, float]]) -> list[PredicateMapping]:
        if not scored:
            return []
        best = scored[0][1]
        if best <= 0:
            return []
        return [
            PredicateMapping(path, score / best)
            for path, score in scored
            if score > 0
        ]
