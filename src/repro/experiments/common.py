"""Shared infrastructure for experiment drivers."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from repro.datasets import build_dbpedia_mini, build_phrase_dataset
from repro.eval.reporting import format_table
from repro.paraphrase import ParaphraseDictionary, ParaphraseMiner
from repro.paraphrase.miner import RelationPhraseDataset
from repro.rdf.graph import KnowledgeGraph


@dataclass(slots=True)
class ExperimentResult:
    """One regenerated table/figure: rows plus context."""

    experiment_id: str           # "table8", "figure6", ...
    title: str
    headers: list[str]
    rows: list[list[object]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def render(self) -> str:
        text = format_table(self.headers, self.rows, title=self.title)
        if self.notes:
            text += "\n" + "\n".join(f"  note: {note}" for note in self.notes)
        return text


@dataclass(slots=True)
class Setup:
    """The default evaluation setup shared by the online experiments."""

    kg: KnowledgeGraph
    dictionary: ParaphraseDictionary
    phrases: RelationPhraseDataset


@lru_cache(maxsize=4)
def default_setup(distractors_per_entity: int = 0) -> Setup:
    """Build (and cache) the standard KG + mined dictionary."""
    kg = build_dbpedia_mini(distractors_per_entity=distractors_per_entity)
    phrases = build_phrase_dataset()
    dictionary = ParaphraseMiner(kg, max_path_length=4, top_k=3).mine(phrases)
    return Setup(kg=kg, dictionary=dictionary, phrases=phrases)
