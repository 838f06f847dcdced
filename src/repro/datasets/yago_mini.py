"""A second, YAGO2-flavoured knowledge base (generalization check).

Section 6 notes "we also evaluate our method in other RDF repositories,
such as Yago2" (results omitted for space).  This module is that second
repository in miniature: YAGO's camelCase predicate vocabulary
(wasBornIn, isMarriedTo, hasWonPrize, ...), a scientists/prizes/places
domain disjoint from the mini-DBpedia content, its own relation-phrase
dataset, and a 20-question benchmark with gold answers.  The
generalization test: the *same* pipeline code, with nothing tuned, mines
this KB's dictionary and answers its questions.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.paraphrase.miner import RelationPhraseDataset
from repro.rdf import (
    IRI,
    KnowledgeGraph,
    Literal,
    RDF_TYPE,
    RDFS_LABEL,
    Triple,
    TripleStore,
)
from repro.rdf import vocab

YAGO = "yago:"


def yago(name: str) -> IRI:
    return IRI(YAGO + name)


_CLASSES = {
    "Scientist": ["scientist"],
    "Physicist": ["physicist"],
    "City": ["city"],
    "Country": ["country"],
    "University": ["university"],
    "Prize": ["prize"],
}

_ENTITIES: dict[str, tuple[str, ...]] = {
    "Albert_Einstein": ("Physicist",),
    "Mileva_Maric": ("Scientist",),
    "Marie_Curie": ("Physicist",),
    "Pierre_Curie": ("Physicist",),
    "Niels_Bohr": ("Physicist",),
    "Max_Planck": ("Physicist",),
    "Ulm": ("City",),
    "Warsaw": ("City",),
    "Copenhagen": ("City",),
    "Princeton": ("City",),
    "Paris": ("City",),
    "Germany": ("Country",),
    "Poland": ("Country",),
    "Denmark": ("Country",),
    "United_States": ("Country",),
    "France": ("Country",),
    "ETH_Zurich": ("University",),
    "University_of_Paris": ("University",),
    "University_of_Copenhagen": ("University",),
    "Nobel_Prize_in_Physics": ("Prize",),
    "Nobel_Prize_in_Chemistry": ("Prize",),
}

_FACTS = [
    ("Albert_Einstein", "wasBornIn", "Ulm"),
    ("Albert_Einstein", "diedIn", "Princeton"),
    ("Albert_Einstein", "isMarriedTo", "Mileva_Maric"),
    ("Albert_Einstein", "graduatedFrom", "ETH_Zurich"),
    ("Albert_Einstein", "hasWonPrize", "Nobel_Prize_in_Physics"),
    ("Marie_Curie", "wasBornIn", "Warsaw"),
    ("Marie_Curie", "diedIn", "Passy"),
    ("Marie_Curie", "isMarriedTo", "Pierre_Curie"),
    ("Marie_Curie", "graduatedFrom", "University_of_Paris"),
    ("Marie_Curie", "hasWonPrize", "Nobel_Prize_in_Physics"),
    ("Marie_Curie", "hasWonPrize", "Nobel_Prize_in_Chemistry"),
    ("Pierre_Curie", "hasWonPrize", "Nobel_Prize_in_Physics"),
    ("Niels_Bohr", "wasBornIn", "Copenhagen"),
    ("Niels_Bohr", "graduatedFrom", "University_of_Copenhagen"),
    ("Niels_Bohr", "hasWonPrize", "Nobel_Prize_in_Physics"),
    ("Max_Planck", "hasWonPrize", "Nobel_Prize_in_Physics"),
    ("Ulm", "isLocatedIn", "Germany"),
    ("Warsaw", "isLocatedIn", "Poland"),
    ("Copenhagen", "isLocatedIn", "Denmark"),
    ("Princeton", "isLocatedIn", "United_States"),
    ("Paris", "isLocatedIn", "France"),
    ("Germany", "hasCapital", "Berlin_(Yago)"),
    ("Denmark", "hasCapital", "Copenhagen"),
    ("France", "hasCapital", "Paris"),
]


def build_yago_mini() -> KnowledgeGraph:
    """Build the YAGO2-flavoured knowledge graph (deterministic)."""
    triples: list[Triple] = []
    for class_name, labels in _CLASSES.items():
        # Written order, not set order, so the build does not follow
        # PYTHONHASHSEED (see build_dbpedia_mini).
        for label in dict.fromkeys((class_name.lower(), *labels)):
            triples.append(Triple(yago(class_name), RDFS_LABEL, Literal(label)))
    triples.append(Triple(yago("Physicist"), vocab.RDFS_SUBCLASSOF, yago("Scientist")))

    mentioned = set(_ENTITIES)
    for subject, _p, obj in _FACTS:
        mentioned.add(subject)
        mentioned.add(obj)
    for name in sorted(mentioned):
        entity = yago(name)
        label = name.replace("_", " ").split("(")[0].strip()
        triples.append(Triple(entity, RDFS_LABEL, Literal(label)))
        for type_name in _ENTITIES.get(name, ()):
            triples.append(Triple(entity, RDF_TYPE, yago(type_name)))

    for subject, predicate, obj in _FACTS:
        triples.append(Triple(yago(subject), yago(predicate), yago(obj)))
    return KnowledgeGraph(TripleStore.build(triples))


def yago_phrase_dataset() -> RelationPhraseDataset:
    """The relation-phrase dataset aligned with the YAGO-style facts."""
    dataset = RelationPhraseDataset()
    pairs = {
        "was born in": [
            ("Albert_Einstein", "Ulm"), ("Marie_Curie", "Warsaw"),
        ],
        # "Where was X born?" has no 'in' to embed; YAGO-style phrase sets
        # include the bare participle form too.
        "was born": [("Albert_Einstein", "Ulm"), ("Marie_Curie", "Warsaw")],
        "died in": [("Albert_Einstein", "Princeton")],
        "died": [("Albert_Einstein", "Princeton")],
        "is married to": [("Albert_Einstein", "Mileva_Maric")],
        "wife of": [("Mileva_Maric", "Albert_Einstein")],
        "husband of": [("Albert_Einstein", "Mileva_Maric")],
        "graduated from": [
            ("Albert_Einstein", "ETH_Zurich"),
            ("Niels_Bohr", "University_of_Copenhagen"),
        ],
        "won": [
            ("Albert_Einstein", "Nobel_Prize_in_Physics"),
            ("Marie_Curie", "Nobel_Prize_in_Chemistry"),
        ],
        "is the capital of": [("Paris", "France"), ("Copenhagen", "Denmark")],
        "cities in": [("Warsaw", "Poland"), ("Ulm", "Germany")],
        # The multi-hop check: "born in the country" = wasBornIn·isLocatedIn.
        "comes from": [
            ("Marie_Curie", "Poland"), ("Niels_Bohr", "Denmark"),
        ],
    }
    for phrase, support in pairs.items():
        dataset.add(phrase, [(yago(a), yago(b)) for a, b in support])
    return dataset


@dataclass(frozen=True, slots=True)
class YagoQuestion:
    text: str
    gold: frozenset[str]


def yago_questions() -> list[YagoQuestion]:
    """20 questions over the YAGO-style KB, all answerable."""
    def q(text, *gold):
        return YagoQuestion(text, frozenset(gold))

    return [
        q("Where was Albert Einstein born?", "yago:Ulm"),
        q("Where did Albert Einstein die?", "yago:Princeton"),
        q("Who is married to Albert Einstein?", "yago:Mileva_Maric"),
        q("Who was married to Marie Curie?", "yago:Pierre_Curie"),
        q("Where was Marie Curie born?", "yago:Warsaw"),
        q("Which university did Albert Einstein graduate from?", "yago:ETH_Zurich"),
        q("Which university did Niels Bohr graduate from?",
          "yago:University_of_Copenhagen"),
        q("Which prizes did Marie Curie win?",
          "yago:Nobel_Prize_in_Physics", "yago:Nobel_Prize_in_Chemistry"),
        q("Who won the Nobel Prize in Chemistry?", "yago:Marie_Curie"),
        q("What is the capital of France?", "yago:Paris"),
        q("What is the capital of Denmark?", "yago:Copenhagen"),
        q("Give me all cities in Germany.", "yago:Ulm"),
        q("Give me all cities in Poland.", "yago:Warsaw"),
        q("Which country does Marie Curie come from?", "yago:Poland"),
        q("Which country does Niels Bohr come from?", "yago:Denmark"),
        q("Which physicists won the Nobel Prize in Physics?",
          "yago:Albert_Einstein", "yago:Marie_Curie", "yago:Pierre_Curie",
          "yago:Niels_Bohr", "yago:Max_Planck"),
        q("Where was the wife of Pierre Curie born?", "yago:Warsaw"),
        q("Which scientists were born in Copenhagen?", "yago:Niels_Bohr"),
        q("Who graduated from the University of Paris?", "yago:Marie_Curie"),
        q("Where did the husband of Mileva Maric die?", "yago:Princeton"),
    ]
