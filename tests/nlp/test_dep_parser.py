"""Tests for the rule-based dependency parser.

Each test pins the dependency structure a downstream algorithm relies on:
relation-phrase embeddings need connected subtrees, argument finding needs
the subject/object-like edge labels of Section 4.1.2.
"""

import pytest

from repro.exceptions import ParseError
from repro.nlp import parse_question


def edge_set(tree):
    return {(head.lower, rel, dep.lower) for head, rel, dep in tree.edges()}


def node(tree, word):
    nodes = tree.find_nodes(word=word)
    assert nodes, f"no node for {word!r}"
    return nodes[0]


class TestRunningExample:
    """Figure 5 of the paper: 'Who was married to an actor that played in
    Philadelphia?'"""

    @pytest.fixture(scope="class")
    def tree(self):
        return parse_question("Who was married to an actor that played in Philadelphia?")

    def test_root_is_married(self, tree):
        assert tree.root.lower == "married"

    def test_passive_subject(self, tree):
        assert ("married", "nsubjpass", "who") in edge_set(tree)

    def test_auxpass(self, tree):
        assert ("married", "auxpass", "was") in edge_set(tree)

    def test_pp_attachment(self, tree):
        edges = edge_set(tree)
        assert ("married", "prep", "to") in edges
        assert ("to", "pobj", "actor") in edges

    def test_relative_clause(self, tree):
        edges = edge_set(tree)
        assert ("actor", "rcmod", "played") in edges
        assert ("played", "nsubj", "that") in edges
        assert ("played", "prep", "in") in edges
        assert ("in", "pobj", "philadelphia") in edges

    def test_tree_is_valid(self, tree):
        tree.validate()  # should not raise

    def test_spans_all_non_punct_tokens(self, tree):
        assert len(tree) == 10  # everything except the question mark


class TestCopularQuestions:
    def test_mayor_of_berlin(self):
        tree = parse_question("Who is the mayor of Berlin?")
        edges = edge_set(tree)
        assert tree.root.lower == "mayor"
        assert ("mayor", "nsubj", "who") in edges
        assert ("mayor", "cop", "is") in edges
        assert ("mayor", "prep", "of") in edges
        assert ("of", "pobj", "berlin") in edges

    def test_yes_no_copular(self):
        tree = parse_question("Is Michelle Obama the wife of Barack Obama?")
        edges = edge_set(tree)
        assert tree.root.lower == "wife"
        assert ("wife", "nsubj", "obama") in edges
        assert ("of", "pobj", "obama") in edges

    def test_how_tall(self):
        tree = parse_question("How tall is Michael Jordan?")
        edges = edge_set(tree)
        assert tree.root.lower == "tall"
        assert ("tall", "advmod", "how") in edges
        assert ("tall", "nsubj", "jordan") in edges

    def test_declarative_order_copular(self):
        tree = parse_question("Sean Parnell is the governor of which U.S. state?")
        edges = edge_set(tree)
        assert tree.root.lower == "governor"
        assert ("governor", "nsubj", "parnell") in edges
        assert ("of", "pobj", "state") in edges

    def test_superlative_copular(self):
        tree = parse_question("What is the largest city in Australia?")
        edges = edge_set(tree)
        assert tree.root.lower == "city"
        assert ("city", "amod", "largest") in edges
        assert ("in", "pobj", "australia") in edges


class TestInversionAndFronting:
    def test_fronted_pp(self):
        tree = parse_question("In which movies did Antonio Banderas star?")
        edges = edge_set(tree)
        assert tree.root.lower == "star"
        assert ("star", "prep", "in") in edges
        assert ("in", "pobj", "movies") in edges
        assert ("star", "nsubj", "banderas") in edges
        assert ("star", "aux", "did") in edges

    def test_stranded_preposition(self):
        tree = parse_question("Which cities does the Weser flow through?")
        edges = edge_set(tree)
        assert ("flow", "prep", "through") in edges
        assert ("through", "pobj", "cities") in edges
        assert ("flow", "nsubj", "weser") in edges

    def test_fronted_object(self):
        tree = parse_question("Which river does the Brooklyn Bridge cross?")
        edges = edge_set(tree)
        assert ("cross", "dobj", "river") in edges
        assert ("cross", "nsubj", "bridge") in edges

    def test_wh_adverb(self):
        tree = parse_question("When did Michael Jackson die?")
        edges = edge_set(tree)
        assert tree.root.lower == "die"
        assert ("die", "advmod", "when") in edges
        assert ("die", "nsubj", "jackson") in edges

    def test_inverted_passive(self):
        tree = parse_question("In which city was the former Dutch queen Juliana buried?")
        edges = edge_set(tree)
        assert tree.root.lower == "buried"
        assert ("buried", "nsubjpass", "juliana") in edges
        assert ("in", "pobj", "city") in edges


class TestImperatives:
    def test_give_me(self):
        tree = parse_question("Give me all movies directed by Francis Ford Coppola.")
        edges = edge_set(tree)
        assert tree.root.lower == "give"
        assert ("give", "iobj", "me") in edges
        assert ("give", "dobj", "movies") in edges
        assert ("movies", "partmod", "directed") in edges
        assert ("directed", "prep", "by") in edges
        assert ("by", "pobj", "coppola") in edges

    def test_list_imperative(self):
        tree = parse_question("List the children of Margaret Thatcher.")
        edges = edge_set(tree)
        assert tree.root.lower == "list"
        assert ("list", "dobj", "children") in edges
        assert ("of", "pobj", "thatcher") in edges


class TestRelativeClauses:
    def test_coordinated_relative(self):
        tree = parse_question(
            "Give me all people that were born in Vienna and died in Berlin."
        )
        edges = edge_set(tree)
        assert ("people", "rcmod", "born") in edges
        assert ("born", "nsubjpass", "that") in edges
        assert ("born", "conj", "died") in edges
        assert ("born", "cc", "and") in edges
        died = node(tree, "died")
        preps = [c for c in died.children if c.deprel == "prep"]
        assert preps and any(g.lower == "berlin" for p in preps for g in p.children)

    def test_reduced_passive_relative(self):
        tree = parse_question("Give me all launch pads operated by NASA.")
        edges = edge_set(tree)
        assert ("pads", "partmod", "operated") in edges
        assert ("by", "pobj", "nasa") in edges

    def test_subject_relative(self):
        tree = parse_question("Give me all cars that are produced in Germany.")
        edges = edge_set(tree)
        assert ("cars", "rcmod", "produced") in edges
        assert ("produced", "nsubjpass", "that") in edges


class TestNounPhrases:
    def test_compound_proper_names(self):
        tree = parse_question("Who was the successor of John F. Kennedy?")
        kennedy = node(tree, "kennedy")
        modifiers = {c.lower for c in kennedy.children if c.deprel == "nn"}
        assert modifiers == {"john", "f."}

    def test_phrase_extraction(self):
        tree = parse_question("Who was the successor of John F. Kennedy?")
        assert node(tree, "kennedy").phrase() == "John F. Kennedy"

    def test_phrase_excludes_determiner(self):
        tree = parse_question("Who is the mayor of Berlin?")
        assert node(tree, "mayor").phrase() == "mayor"

    def test_title_apposition(self):
        tree = parse_question("Who wrote the book The Pillars of the Earth?")
        edges = edge_set(tree)
        assert ("wrote", "dobj", "book") in edges
        assert ("book", "appos", "pillars") in edges


class TestStructure:
    def test_every_tree_validates(self):
        questions = [
            "Who founded Intel?",
            "What are the nicknames of San Francisco?",
            "Give me all Argentine films.",
            "Who produces Orangina?",
            "Which countries are connected by the Rhine?",
            "How many students does the Free University in Amsterdam have?",
        ]
        for question in questions:
            parse_question(question).validate()

    def test_single_word_question(self):
        tree = parse_question("Who?")
        assert tree.root.lower == "who"

    def test_empty_question_raises(self):
        with pytest.raises(ParseError):
            parse_question("?")

    def test_error_quotes_the_question_text_for_pretagged_tokens(self):
        from repro.nlp.dep_parser import DependencyParser
        from repro.nlp.tagger import tag

        with pytest.raises(ParseError, match=r"question: '\? , \.'$"):
            DependencyParser().parse(tag("? , ."))

    def test_node_at(self):
        tree = parse_question("Who founded Intel?")
        assert tree.node_at(0).lower == "who"
        assert tree.node_at(99) is None

    def test_find_nodes_by_deprel(self):
        tree = parse_question("Who founded Intel?")
        assert [n.lower for n in tree.find_nodes(deprel="nsubj")] == ["who"]
