"""Patty-style relation-phrase dataset simulator.

The paper consumes Patty's textual patterns with supporting entity pairs
(Table 2: "play in" supported by (Antonio_Banderas, Philadelphia(film)),
...).  This module supplies the equivalent for the mini-DBpedia graph:

* :func:`build_phrase_dataset` — the curated phrase dataset whose support
  pairs are drawn from the KG's facts, in (arg1, arg2) orientation.  It
  deliberately *omits* phrases ("operated by", "exhibit", ...) so the
  corresponding QALD questions fail at relation extraction, matching
  Table 10's second failure class.
* :func:`build_noisy_phrase_dataset` — adds support pairs that do NOT
  occur in the graph (the paper reports only 67 % of Patty pairs occur in
  DBpedia) plus filler phrases, for the offline benchmarks.
* :func:`scale_phrase_dataset` — replicates phrases with synthetic support drawn from a synthetic KG, for the Table 5/7 scaling runs.
"""

from __future__ import annotations

import random

from repro.datasets.dbpedia_mini import res
from repro.paraphrase.miner import RelationPhraseDataset
from repro.rdf.terms import IRI, Literal

# phrase → list of (arg1, arg2) support pairs; strings are res: names,
# ("lit", text) marks a literal-valued endpoint.
_SUPPORT: dict[str, list[tuple[object, object]]] = {
    # -- the running example (Table 2) -------------------------------- #
    "was married to": [
        ("Antonio_Banderas", "Melanie_Griffith"),
        ("Barack_Obama", "Michelle_Obama"),
        ("Amanda_Palmer", "Neil_Gaiman"),
    ],
    "played in": [
        ("Antonio_Banderas", "Philadelphia_(film)"),
        ("Tom_Hanks", "Philadelphia_(film)"),
        ("Aaron_McKie", "Philadelphia_76ers"),
        ("Jonathan_Demme", "Philadelphia_(film)"),
    ],
    "starred in": [
        ("Antonio_Banderas", "Philadelphia_(film)"),
        ("Tom_Cruise", "Top_Gun"),
        ("Leonardo_DiCaprio", "Titanic_(film)"),
    ],
    # -- copular phrases over nouns ------------------------------------- #
    "is the successor of": [("Lyndon_B._Johnson", "John_F._Kennedy")],
    "is the mayor of": [("Klaus_Wowereit", "Berlin")],
    "is the governor of": [
        ("Matt_Mead", "Wyoming"),
        ("Sean_Parnell", "Alaska"),
    ],
    "is the father of": [("George_VI", "Queen_Elizabeth_II")],
    "is the capital of": [("Ottawa", "Canada")],
    "is the husband of": [("Neil_Gaiman", "Amanda_Palmer")],
    "is the wife of": [("Michelle_Obama", "Barack_Obama")],
    "is the largest city in": [("Sydney", "Australia")],
    "is the time zone of": [("Mountain_Time_Zone", "Salt_Lake_City")],
    "is the birth name of": [(("lit", "Angela Dorothea Kasner"), "Angela_Merkel")],
    "is the nickname of": [(("lit", "The Golden City"), "San_Francisco")],
    "children of": [
        ("Mark_Thatcher", "Margaret_Thatcher"),
        ("Carol_Thatcher", "Margaret_Thatcher"),
    ],
    # Bare-noun forms for the possessive construction ("X's children").
    "children": [
        ("Mark_Thatcher", "Margaret_Thatcher"),
        ("Carol_Thatcher", "Margaret_Thatcher"),
    ],
    "birth name": [(("lit", "Angela Dorothea Kasner"), "Angela_Merkel")],
    "members of": [
        ("Liam_Howlett", "The_Prodigy"),
        ("Keith_Flint", "The_Prodigy"),
    ],
    "is the creator of": [
        ("Joe_Simon", "Captain_America"),
        ("Dick_Bruna", "Miffy"),
    ],
    "companies in": [
        ("BMW", "Munich"),
        ("Siemens", "Munich"),
    ],
    "books by": [
        ("On_the_Road", "Jack_Kerouac"),
        ("The_Dharma_Bums", "Jack_Kerouac"),
    ],
    "player in": [
        ("Ryan_Giggs", "Premier_League"),
        ("Wayne_Rooney", "Premier_League"),
    ],
    "cities in": [
        ("Berlin", "Germany"),
        ("Munich", "Germany"),
        ("Sydney", "Australia"),
    ],
    "mountain in": [
        ("Zugspitze", "Germany"),
        ("Watzmann", "Germany"),
    ],
    # -- verb phrases ------------------------------------------------------ #
    "directed": [
        ("Francis_Ford_Coppola", "The_Godfather"),
        ("Francis_Ford_Coppola", "Apocalypse_Now"),
        ("Jonathan_Demme", "Philadelphia_(film)"),
    ],
    "directed by": [
        ("The_Godfather", "Francis_Ford_Coppola"),
        ("Philadelphia_(film)", "Jonathan_Demme"),
    ],
    "produced in": [
        ("BMW_M3", "Germany"),
        ("Volkswagen_Golf", "Germany"),
    ],
    "produces": [("Suntory", "Orangina")],
    "developed": [("Mojang", "Minecraft")],
    "founded": [
        ("Robert_Noyce", "Intel"),
        ("Gordon_Moore", "Intel"),
    ],
    "was born in": [
        ("Carl_Auer", "Vienna"),
        ("Franz_Schubert", "Vienna"),
    ],
    "was born": [
        ("Carl_Auer", "Vienna"),
        ("Wayne_Rooney", ("lit", "1985-10-24")),
    ],
    "died in": [
        ("Carl_Auer", "Berlin"),
        ("Franz_Schubert", "Vienna"),
    ],
    "died": [
        ("Michael_Jackson", ("lit", "2009-06-25")),
        ("Franz_Schubert", "Vienna"),
    ],
    "was buried in": [("Juliana_of_the_Netherlands", "Delft")],
    "flows through": [
        ("Weser", "Bremen"),
        ("Weser", "Minden"),
    ],
    "is connected by": [
        ("Germany", "Rhine"),
        ("France", "Rhine"),
    ],
    "crosses": [("Weser", "Bremen")],
    "was published by": [
        ("On_the_Road", "Viking_Press"),
        ("The_Dharma_Bums", "Viking_Press"),
    ],
    "created": [
        ("Joe_Simon", "Captain_America"),
        ("Jack_Kirby", "Captain_America"),
    ],
    "wrote": [
        ("Jack_Kerouac", "On_the_Road"),
        ("Ken_Follett", "The_Pillars_of_the_Earth"),
    ],
    "comes from": [("Dick_Bruna", "Netherlands")],
    "was called": [("Al_Capone", ("lit", "Scarface"))],
    "is tall": [
        ("Michael_Jordan", ("lit", "1.98")),
        ("Ryan_Giggs", ("lit", "1.79")),
    ],
    "is high": [
        ("Mount_Everest", ("lit", "8848")),
        ("Zugspitze", ("lit", "2962")),
    ],
    "movies with": [
        ("Top_Gun", "Tom_Cruise"),
        ("Minority_Report", "Tom_Cruise"),
    ],
    "plays for": [
        ("Ryan_Giggs", "Manchester_United"),
        ("Aaron_McKie", "Philadelphia_76ers"),
    ],
    "creator of": [
        ("Dick_Bruna", "Miffy"),
        ("Joe_Simon", "Captain_America"),
    ],
    "headquarters of": [("London", "Secret_Intelligence_Service")],
    "is the front man of": [("Liam_Howlett", "The_Prodigy")],
    # -- demonym pseudo-phrase (see repro.core.demonyms) -------------------- #
    "demonym": [
        ("The_Secret_in_Their_Eyes", "Argentina"),
        ("Nine_Queens", "Argentina"),
        ("BMW_M3", "Germany"),
    ],
}

#: Gold predicate local names per phrase, for judging mined mappings
#: (replaces the paper's human judges in Exp 1).  A mined path is judged
#: correct when every predicate it traverses is in the phrase's gold set.
GOLD_PREDICATES: dict[str, set[str]] = {
    "was married to": {"spouse"},
    "played in": {"starring", "playForTeam", "director"},
    "starred in": {"starring"},
    "is the successor of": {"successor"},
    "is the mayor of": {"mayor"},
    "is the governor of": {"governor"},
    "is the father of": {"father"},
    "is the capital of": {"capital"},
    "is the husband of": {"spouse"},
    "is the wife of": {"spouse"},
    "is the largest city in": {"largestCity"},
    "is the time zone of": {"timeZone"},
    "is the birth name of": {"birthName"},
    "is the nickname of": {"nickname"},
    "children of": {"child"},
    "members of": {"bandMember"},
    "is the creator of": {"creator"},
    "creator of": {"creator"},
    "companies in": {"locationCity"},
    "books by": {"author"},
    "player in": {"team", "league"},
    "cities in": {"locatedInArea"},
    "mountain in": {"locatedInArea"},
    "directed": {"director"},
    "directed by": {"director"},
    "produced in": {"assembly"},
    "produces": {"manufacturer"},
    "developed": {"developer"},
    "founded": {"foundedBy"},
    "was born in": {"birthPlace"},
    "was born": {"birthPlace", "birthDate"},
    "died in": {"deathPlace"},
    "died": {"deathDate", "deathPlace", "birthPlace"},
    "was buried in": {"restingPlace"},
    "flows through": {"crosses"},
    "is connected by": {"country"},
    "crosses": {"crosses"},
    "was published by": {"publisher"},
    "created": {"creator"},
    "wrote": {"author"},
    "comes from": {"nationality"},
    "was called": {"alias"},
    "is tall": {"height"},
    "is high": {"elevation"},
    "movies with": {"starring"},
    "plays for": {"team", "playForTeam"},
    "headquarters of": {"headquarter"},
    "is the front man of": {"bandMember"},
    "demonym": {"country", "assembly"},
}

#: Phrases used by failing QALD questions that are deliberately withheld —
#: their questions must fail at relation extraction (Table 10 class 2).
WITHHELD_PHRASES = (
    "operated by",
    "exhibits",
    "launch pads operated by",
    "borders",
    "orbits",
)


def _pair_term(endpoint: object):
    if isinstance(endpoint, tuple) and endpoint[0] == "lit":
        return Literal(endpoint[1])
    return res(str(endpoint))


def build_phrase_dataset() -> RelationPhraseDataset:
    """The curated relation-phrase dataset aligned with the mini KG."""
    dataset = RelationPhraseDataset()
    for phrase, pairs in _SUPPORT.items():
        dataset.add(
            phrase,
            [(_pair_term(left), _pair_term(right)) for left, right in pairs],
        )
    return dataset


def build_noisy_phrase_dataset() -> RelationPhraseDataset:
    """The curated dataset plus Patty-like noise.

    A third as many additional pairs per phrase reference entities absent
    from the graph (the paper: only 67 % of Patty pairs occur in DBpedia);
    50 filler phrases have entirely absent support.
    """
    rng = random.Random(7)
    dataset = build_phrase_dataset()
    for phrase in _SUPPORT:
        pairs = dataset.support[phrase]
        for i in range(max(1, int(len(pairs) * 0.33))):
            ghost = IRI(f"res:Unknown_{phrase.replace(' ', '_')}_{i}")
            pairs.append((ghost, IRI(f"res:Nowhere_{i}")))
    for i in range(50):
        verb = rng.choice(["collaborated with", "was influenced by", "fought at",
                           "belongs to", "was renamed to"])
        dataset.add(
            f"{verb} ({i})",
            [(IRI(f"res:GhostA_{i}"), IRI(f"res:GhostB_{i}"))],
        )
    return dataset


def scale_phrase_dataset(
    base: RelationPhraseDataset,
    phrases: int,
    pairs_per_phrase: int,
    entity_pool: list[IRI],
) -> RelationPhraseDataset:
    """A larger dataset for the offline-time benchmarks (Tables 5 and 7).

    Synthesizes ``phrases`` relation phrases whose support pairs are drawn
    uniformly from ``entity_pool`` (typically a synthetic KG's entities),
    preserving the curated dataset's entries.
    """
    rng = random.Random(11)
    dataset = RelationPhraseDataset(dict(base.support))
    for i in range(phrases):
        pairs = [
            (rng.choice(entity_pool), rng.choice(entity_pool))
            for _ in range(pairs_per_phrase)
        ]
        dataset.add(f"synthetic relation {i}", pairs)
    return dataset
