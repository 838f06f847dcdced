"""The curated DBpedia-like knowledge graph behind all benchmarks.

Stands in for the 60 M-triple DBpedia dump the paper evaluates on.  The
graph is small (hundreds of triples) but preserves what the algorithms
exercise:

* the **ambiguity structure** of Figure 1 — three nodes answer to
  "Philadelphia" (city, film, 76ers); "play in" maps to starring,
  playForTeam, and director; "actor" is both a class and part of a book
  title (An Actor Prepares);
* the **facts behind the 32 correctly-answered QALD-3 questions** of
  Table 11, plus distractors so matching is non-trivial;
* the **failure traps** of Table 10 — MI6 is labelled only "Secret
  Intelligence Service" (entity-linking failure), launch pads exist but
  their relation phrase is withheld from the phrase dataset
  (relation-extraction failure), and superlative questions have multiple
  base matches (aggregation failure);
* **multi-hop relations** — a Premier League player connects to his
  league through a (team, league) path, like the paper's "uncle of".

Entities live under ``res:``, predicates under ``ont:``; labels default to
the local name with underscores → spaces and parentheticals stripped.
"""

from __future__ import annotations

from repro.rdf import (
    IRI,
    KnowledgeGraph,
    Literal,
    RDF_TYPE,
    RDFS_LABEL,
    RDFS_SUBCLASSOF,
    Triple,
    TripleStore,
)
from repro.rdf import vocab

RES = "res:"
ONT = "ont:"


def res(name: str) -> IRI:
    """The IRI of a mini-DBpedia entity or class."""
    return IRI(RES + name)


def ont(name: str) -> IRI:
    """The IRI of a mini-DBpedia predicate."""
    return IRI(ONT + name)


def _date(lexical: str) -> Literal:
    return Literal(lexical, datatype=vocab.XSD_DATE)


def _num(lexical: str) -> Literal:
    return Literal(lexical, datatype=vocab.XSD_DECIMAL)


def _int(lexical: str) -> Literal:
    return Literal(lexical, datatype=vocab.XSD_INTEGER)


# --------------------------------------------------------------------- #
# Classes: name → extra labels (the local name is always a label).
# --------------------------------------------------------------------- #

_CLASSES: dict[str, list[str]] = {
    "Person": ["person", "people"],
    "Actor": ["actor"],
    "Film": ["film", "movie"],
    "City": ["city"],
    "Country": ["country"],
    "BasketballTeam": ["basketball team"],
    "BasketballPlayer": ["basketball player"],
    "SoccerPlayer": ["soccer player", "player"],
    "SoccerClub": ["soccer club", "club"],
    "SoccerLeague": ["soccer league"],
    "Company": ["company"],
    "Automobile": ["car", "automobile"],
    "Band": ["band"],
    "Book": ["book"],
    "River": ["river"],
    "Mountain": ["mountain"],
    "State": ["state", "U.S. state"],
    "University": ["university"],
    "Politician": ["politician"],
    "Writer": ["writer"],
    "LaunchPad": ["launch pad"],
    "TimeZone": ["time zone"],
    "ComicsCharacter": ["comics character", "comic"],
}

_SUBCLASSES = [
    ("Actor", "Person"),
    ("Politician", "Person"),
    ("Writer", "Person"),
    ("BasketballPlayer", "Person"),
    ("SoccerPlayer", "Person"),
]

# --------------------------------------------------------------------- #
# Entities: name → (types, extra labels).
# --------------------------------------------------------------------- #

_ENTITIES: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    # -- the running example -------------------------------------------- #
    "Antonio_Banderas": (("Actor",), ()),
    "Melanie_Griffith": (("Actor",), ()),
    "Philadelphia_(film)": (("Film",), ()),
    "Philadelphia": (("City",), ()),
    "Philadelphia_76ers": (("BasketballTeam",), ("76ers",)),
    "Aaron_McKie": (("BasketballPlayer",), ()),
    "Tom_Hanks": (("Actor",), ()),
    "Jonathan_Demme": (("Person",), ()),
    "An_Actor_Prepares": (("Book",), ()),
    # -- movies ---------------------------------------------------------- #
    "Francis_Ford_Coppola": (("Person",), ()),
    "The_Godfather": (("Film",), ()),
    "The_Godfather_Part_II": (("Film",), ()),
    "Apocalypse_Now": (("Film",), ()),
    "Tom_Cruise": (("Actor",), ()),
    "Top_Gun": (("Film",), ()),
    "Mission_Impossible": (("Film",), ()),
    "Vanilla_Sky": (("Film",), ()),
    "Minority_Report": (("Film",), ()),
    "The_Secret_in_Their_Eyes": (("Film",), ()),
    "Nine_Queens": (("Film",), ()),
    "Wild_Tales": (("Film",), ()),
    "Leonardo_DiCaprio": (("Actor",), ()),
    "Titanic_(film)": (("Film",), ()),
    "Inception": (("Film",), ()),
    # -- politics --------------------------------------------------------- #
    "John_F._Kennedy": (("Politician",), ("JFK",)),
    "Lyndon_B._Johnson": (("Politician",), ()),
    "Klaus_Wowereit": (("Politician",), ()),
    "Matt_Mead": (("Politician",), ()),
    "Sean_Parnell": (("Politician",), ()),
    "Queen_Elizabeth_II": (("Person",), ("Elizabeth II",)),
    "George_VI": (("Person",), ()),
    "Angela_Merkel": (("Politician",), ()),
    "Margaret_Thatcher": (("Politician",), ()),
    "Mark_Thatcher": (("Person",), ()),
    "Carol_Thatcher": (("Person",), ()),
    "Barack_Obama": (("Politician",), ()),
    "Michelle_Obama": (("Person",), ()),
    "Juliana_of_the_Netherlands": (("Person",), ("Juliana",)),
    "Al_Capone": (("Person",), ()),
    # -- geography --------------------------------------------------------- #
    "Canada": (("Country",), ()),
    "Ottawa": (("City",), ()),
    "Australia": (("Country",), ()),
    "Sydney": (("City",), ()),
    "Melbourne": (("City",), ()),
    "Germany": (("Country",), ()),
    "France": (("Country",), ()),
    "Switzerland": (("Country",), ()),
    "Netherlands": (("Country",), ()),
    "Argentina": (("Country",), ()),
    "United_States": (("Country",), ("USA", "U.S.")),
    "United_Kingdom": (("Country",), ("UK",)),
    "Berlin": (("City",), ()),
    "Munich": (("City",), ()),
    "Hamburg": (("City",), ()),
    "Vienna": (("City",), ()),
    "Bremen": (("City",), ()),
    "Bremerhaven": (("City",), ()),
    "Minden": (("City",), ()),
    "Delft": (("City",), ()),
    "London": (("City",), ()),
    "San_Francisco": (("City",), ()),
    "Salt_Lake_City": (("City",), ()),
    "Brno": (("City",), ()),
    "Leipzig": (("City",), ()),
    "Weser": (("River",), ()),
    "Rhine": (("River",), ()),
    "Elbe": (("River",), ()),
    "Mount_Everest": (("Mountain",), ()),
    "Zugspitze": (("Mountain",), ()),
    "Watzmann": (("Mountain",), ()),
    "Wyoming": (("State",), ()),
    "Alaska": (("State",), ()),
    "Mountain_Time_Zone": (("TimeZone",), ()),
    # -- music -------------------------------------------------------------- #
    "The_Prodigy": (("Band",), ("Prodigy",)),
    "Liam_Howlett": (("Person",), ()),
    "Keith_Flint": (("Person",), ()),
    "Maxim_(musician)": (("Person",), ("Maxim",)),
    "Amanda_Palmer": (("Person",), ()),
    "Neil_Gaiman": (("Writer",), ()),
    "Michael_Jackson": (("Person",), ()),
    # -- companies ------------------------------------------------------------ #
    "Intel": (("Company",), ()),
    "Robert_Noyce": (("Person",), ()),
    "Gordon_Moore": (("Person",), ()),
    "BMW": (("Company",), ()),
    "Siemens": (("Company",), ()),
    "Allianz": (("Company",), ()),
    "Mojang": (("Company",), ()),
    "Minecraft": (("Company",), ()),  # videogame; Company type kept minimal
    "Orangina": (("Company",), ()),
    "Suntory": (("Company",), ()),
    "BMW_M3": (("Automobile",), ()),
    "Volkswagen_Golf": (("Automobile",), ()),
    "Porsche_911": (("Automobile",), ()),
    "Secret_Intelligence_Service": (("Company",), ()),  # never labelled MI6
    # -- sports ---------------------------------------------------------------- #
    "Michael_Jordan": (("BasketballPlayer",), ()),
    "Premier_League": (("SoccerLeague",), ()),
    "Manchester_United": (("SoccerClub",), ()),
    "Liverpool_FC": (("SoccerClub",), ()),
    "Ryan_Giggs": (("SoccerPlayer",), ()),
    "Wayne_Rooney": (("SoccerPlayer",), ()),
    "Raheem_Sterling": (("SoccerPlayer",), ()),
    # -- books / comics ---------------------------------------------------------- #
    "Jack_Kerouac": (("Writer",), ("Kerouac",)),
    "On_the_Road": (("Book",), ()),
    "The_Dharma_Bums": (("Book",), ()),
    "Big_Sur_(novel)": (("Book",), ("Big Sur",)),
    "Viking_Press": (("Company",), ()),
    "Farrar_Straus_and_Giroux": (("Company",), ()),
    "Captain_America": (("ComicsCharacter",), ()),
    "Joe_Simon": (("Person",), ()),
    "Jack_Kirby": (("Person",), ()),
    "Miffy": (("ComicsCharacter",), ()),
    "Dick_Bruna": (("Writer",), ()),
    "The_Pillars_of_the_Earth": (("Book",), ()),
    "Ken_Follett": (("Writer",), ()),
    # -- space ------------------------------------------------------------------- #
    "NASA": (("Company",), ()),
    "Launch_Complex_39A": (("LaunchPad",), ()),
    "Launch_Complex_39B": (("LaunchPad",), ()),
    # -- people for born-in/died-in ------------------------------------------------ #
    "Carl_Auer": (("Person",), ()),
    "Rosa_Albach": (("Person",), ()),
    "Franz_Schubert": (("Person",), ()),
    # -- universities ----------------------------------------------------------------- #
    "Free_University_Amsterdam": (("University",), ("Free University",)),
    "Amsterdam": (("City",), ()),
}

# --------------------------------------------------------------------- #
# Facts.  Literal objects are wrapped by the helpers above.
# --------------------------------------------------------------------- #

_FACTS: list[tuple[str, str, object]] = [
    # running example
    ("Antonio_Banderas", "spouse", "Melanie_Griffith"),
    ("Antonio_Banderas", "starring", "Philadelphia_(film)"),
    ("Tom_Hanks", "starring", "Philadelphia_(film)"),
    ("Jonathan_Demme", "director", "Philadelphia_(film)"),
    ("Aaron_McKie", "playForTeam", "Philadelphia_76ers"),
    ("Philadelphia_76ers", "locationCity", "Philadelphia"),
    # movies
    ("The_Godfather", "director", "Francis_Ford_Coppola"),
    ("The_Godfather_Part_II", "director", "Francis_Ford_Coppola"),
    ("Apocalypse_Now", "director", "Francis_Ford_Coppola"),
    ("Tom_Cruise", "starring", "Top_Gun"),
    ("Tom_Cruise", "starring", "Mission_Impossible"),
    ("Tom_Cruise", "starring", "Vanilla_Sky"),
    ("Tom_Cruise", "producer", "Minority_Report"),
    ("Leonardo_DiCaprio", "starring", "Titanic_(film)"),
    ("Leonardo_DiCaprio", "starring", "Inception"),
    ("The_Secret_in_Their_Eyes", "country", "Argentina"),
    ("Nine_Queens", "country", "Argentina"),
    ("Wild_Tales", "country", "Argentina"),
    ("Titanic_(film)", "country", "United_States"),
    # politics
    ("John_F._Kennedy", "successor", "Lyndon_B._Johnson"),
    ("Berlin", "mayor", "Klaus_Wowereit"),
    ("Wyoming", "governor", "Matt_Mead"),
    ("Alaska", "governor", "Sean_Parnell"),
    ("Queen_Elizabeth_II", "father", "George_VI"),
    ("Angela_Merkel", "birthName", Literal("Angela Dorothea Kasner")),
    ("Margaret_Thatcher", "child", "Mark_Thatcher"),
    ("Margaret_Thatcher", "child", "Carol_Thatcher"),
    ("Mark_Thatcher", "birthDate", _date("1953-08-15")),
    ("Carol_Thatcher", "birthDate", _date("1953-08-15")),
    ("Barack_Obama", "spouse", "Michelle_Obama"),
    ("Juliana_of_the_Netherlands", "restingPlace", "Delft"),
    ("Al_Capone", "alias", Literal("Scarface")),
    # geography
    ("Canada", "capital", "Ottawa"),
    ("Australia", "largestCity", "Sydney"),
    ("Sydney", "locatedInArea", "Australia"),
    ("Melbourne", "locatedInArea", "Australia"),
    ("Sydney", "populationTotal", _int("5312000")),
    ("Melbourne", "populationTotal", _int("5078000")),
    ("Berlin", "locatedInArea", "Germany"),
    ("Munich", "locatedInArea", "Germany"),
    ("Hamburg", "locatedInArea", "Germany"),
    ("Leipzig", "locatedInArea", "Germany"),
    ("Berlin", "populationTotal", _int("3645000")),
    ("Munich", "populationTotal", _int("1472000")),
    ("Hamburg", "populationTotal", _int("1841000")),
    ("Leipzig", "populationTotal", _int("587000")),
    ("Weser", "crosses", "Bremen"),
    ("Weser", "crosses", "Bremerhaven"),
    ("Weser", "crosses", "Minden"),
    ("Weser", "length", _num("452")),
    ("Rhine", "country", "Germany"),
    ("Rhine", "country", "France"),
    ("Rhine", "country", "Switzerland"),
    ("Rhine", "country", "Netherlands"),
    ("Rhine", "length", _num("1233")),
    ("Elbe", "country", "Germany"),
    ("Elbe", "length", _num("1094")),
    ("San_Francisco", "nickname", Literal("The Golden City")),
    ("San_Francisco", "nickname", Literal("Fog City")),
    ("Salt_Lake_City", "timeZone", "Mountain_Time_Zone"),
    ("Mount_Everest", "elevation", _num("8848")),
    ("Zugspitze", "elevation", _num("2962")),
    ("Watzmann", "elevation", _num("2713")),
    ("Zugspitze", "locatedInArea", "Germany"),
    ("Watzmann", "locatedInArea", "Germany"),
    ("Brno", "twinned", "Leipzig"),
    ("Brno", "twinned", "Vienna"),
    # music
    ("The_Prodigy", "bandMember", "Liam_Howlett"),
    ("The_Prodigy", "bandMember", "Keith_Flint"),
    ("The_Prodigy", "bandMember", "Maxim_(musician)"),
    ("Amanda_Palmer", "spouse", "Neil_Gaiman"),
    ("Michael_Jackson", "deathDate", _date("2009-06-25")),
    ("Michael_Jackson", "deathPlace", "Los_Angeles"),
    # companies
    ("Intel", "foundedBy", "Robert_Noyce"),
    ("Intel", "foundedBy", "Gordon_Moore"),
    ("BMW", "locationCity", "Munich"),
    ("Siemens", "locationCity", "Munich"),
    ("Allianz", "locationCity", "Munich"),
    ("BMW", "numberOfEmployees", _int("133778")),
    ("Siemens", "numberOfEmployees", _int("293000")),
    ("Allianz", "numberOfEmployees", _int("155411")),
    ("Minecraft", "developer", "Mojang"),
    ("Orangina", "manufacturer", "Suntory"),
    ("BMW_M3", "assembly", "Germany"),
    ("Volkswagen_Golf", "assembly", "Germany"),
    ("Porsche_911", "assembly", "Germany"),
    ("BMW_M3", "manufacturer", "BMW"),
    ("Secret_Intelligence_Service", "headquarter", "London"),
    # sports
    ("Michael_Jordan", "height", _num("1.98")),
    ("Manchester_United", "league", "Premier_League"),
    ("Liverpool_FC", "league", "Premier_League"),
    ("Ryan_Giggs", "team", "Manchester_United"),
    ("Wayne_Rooney", "team", "Manchester_United"),
    ("Raheem_Sterling", "team", "Liverpool_FC"),
    ("Ryan_Giggs", "birthDate", _date("1973-11-29")),
    ("Wayne_Rooney", "birthDate", _date("1985-10-24")),
    ("Raheem_Sterling", "birthDate", _date("1994-12-08")),
    ("Ryan_Giggs", "height", _num("1.79")),
    ("Wayne_Rooney", "height", _num("1.76")),
    ("Raheem_Sterling", "height", _num("1.70")),
    # books / comics
    ("On_the_Road", "author", "Jack_Kerouac"),
    ("The_Dharma_Bums", "author", "Jack_Kerouac"),
    ("Big_Sur_(novel)", "author", "Jack_Kerouac"),
    ("On_the_Road", "publisher", "Viking_Press"),
    ("The_Dharma_Bums", "publisher", "Viking_Press"),
    ("Big_Sur_(novel)", "publisher", "Farrar_Straus_and_Giroux"),
    ("On_the_Road", "numberOfPages", _int("320")),
    ("The_Dharma_Bums", "numberOfPages", _int("244")),
    ("Captain_America", "creator", "Joe_Simon"),
    ("Captain_America", "creator", "Jack_Kirby"),
    ("Miffy", "creator", "Dick_Bruna"),
    ("Dick_Bruna", "nationality", "Netherlands"),
    ("The_Pillars_of_the_Earth", "author", "Ken_Follett"),
    # space
    ("Launch_Complex_39A", "operator", "NASA"),
    ("Launch_Complex_39B", "operator", "NASA"),
    # born-in / died-in
    ("Carl_Auer", "birthPlace", "Vienna"),
    ("Carl_Auer", "deathPlace", "Berlin"),
    ("Rosa_Albach", "birthPlace", "Vienna"),
    ("Rosa_Albach", "deathPlace", "Berlin"),
    ("Franz_Schubert", "birthPlace", "Vienna"),
    ("Franz_Schubert", "deathPlace", "Vienna"),
    # universities
    ("Free_University_Amsterdam", "locationCity", "Amsterdam"),
    ("Free_University_Amsterdam", "numberOfStudents", _int("40000")),
]

# Entities appearing only as fact objects, typed on the fly.
_IMPLICIT_ENTITIES = {
    "Los_Angeles": ("City",),
}


def _default_label(name: str) -> str:
    label = name.replace("_", " ")
    if "(" in label:
        label = label.split("(")[0].strip()
    return label


def build_dbpedia_mini(distractors_per_entity: int = 0) -> KnowledgeGraph:
    """Build the mini-DBpedia knowledge graph (deterministic).

    ``distractors_per_entity`` adds that many *label clones* per curated
    entity — same surface label, no domain facts.  This recreates what full
    DBpedia does to entity linking: every mention retrieves a long
    candidate list, only one member of which participates in matches.  The
    timing benchmarks (Figure 6, Table 12) use this knob; correctness
    results are identical because clones never satisfy any query edge.
    """
    store = TripleStore()

    for class_name, labels in _CLASSES.items():
        class_iri = res(class_name)
        # Written order, default label first: iterating a set of strings
        # would follow PYTHONHASHSEED, and which of two labels with one
        # normalized key the label index keeps depends on this order.
        for label in dict.fromkeys((_default_label(class_name), *labels)):
            store.add(Triple(class_iri, RDFS_LABEL, Literal(label)))
    for child, parent in _SUBCLASSES:
        store.add(Triple(res(child), RDFS_SUBCLASSOF, res(parent)))

    def add_entity(name: str, types: tuple[str, ...], extra_labels: tuple[str, ...]) -> None:
        entity = res(name)
        for type_name in types:
            store.add(Triple(entity, RDF_TYPE, res(type_name)))
        for label in dict.fromkeys((_default_label(name), *extra_labels)):
            store.add(Triple(entity, RDFS_LABEL, Literal(label)))

    for name, (types, labels) in _ENTITIES.items():
        add_entity(name, types, labels)
    for name, types in _IMPLICIT_ENTITIES.items():
        add_entity(name, types, ())

    for subject, predicate, obj in _FACTS:
        obj_term = obj if isinstance(obj, Literal) else res(obj)
        store.add(Triple(res(subject), ont(predicate), obj_term))

    if distractors_per_entity > 0:
        note = ont("distractorNote")
        for name in _ENTITIES:
            label = _default_label(name)
            for clone_index in range(distractors_per_entity):
                clone = res(f"{name}__clone{clone_index}")
                store.add(Triple(clone, RDFS_LABEL, Literal(label)))
                store.add(Triple(clone, note, Literal(f"homonym {clone_index}")))

    return KnowledgeGraph(store)
