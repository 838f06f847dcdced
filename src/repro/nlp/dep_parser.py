"""Deterministic dependency parser for English questions.

The paper obtains its dependency tree ``Y`` from the Stanford parser
(Section 4.1); this module is the from-scratch stand-in.  It is a
multi-pass rule parser specialised for question English:

1. **NP chunking** — determiners, adjectives, numbers, and noun compounds
   attach to the head noun of each maximal nominal run (``det``, ``amod``,
   ``num``, ``nn``, ``poss``).
2. **Clause segmentation** — relative clauses open at a relative pronoun
   that follows a noun (``that/who/which``) and at reduced passives
   (a participle directly after a noun: "movies *directed by* Coppola").
3. **Per-clause parsing** — auxiliary/copula identification, subject
   attachment (``nsubj``/``nsubjpass``, including subject–aux inversion),
   object attachment (``dobj``/``iobj``), prepositional phrases (``prep`` +
   ``pobj``, attached to the nearest preceding verb or noun head, with
   fronted and stranded prepositions resolved against the wh phrase), and
   verb coordination (``cc``/``conj``).
4. **Assembly** — relative clause roots attach as ``rcmod``/``partmod`` to
   their governing noun; any stray node attaches to the root as ``dep`` so
   the tree always spans the sentence.

The emitted relation inventory matches what Section 4.1.2's argument rules
consume: subject-like (nsubj, nsubjpass, poss, ...) and object-like (dobj,
pobj, iobj) labels.
"""

from __future__ import annotations

from repro.exceptions import ParseError
from repro.nlp.dependency import DependencyNode, DependencyTree, attach
from repro.nlp.tagger import tag
from repro.nlp.tokenizer import Token

_NOMINAL_TAGS = {"NN", "NNS", "NNP", "NNPS"}
_VERB_TAGS = {"VB", "VBP", "VBZ", "VBD", "VBN", "VBG"}
_BE_LEMMAS = {"be"}
_AUX_LEMMAS = {"be", "do", "have"}


def _text_of(question: str | list[Token]) -> str:
    """The question as text, for error messages (tokens joined by spaces)."""
    if isinstance(question, str):
        return question
    return " ".join(token.text for token in question)


class _Clause:
    """A contiguous span of nodes parsed as one clause."""

    def __init__(self, nodes: list[DependencyNode], kind: str, governor=None):
        self.nodes = nodes
        self.kind = kind  # "main" | "relative" | "reduced"
        self.governor: DependencyNode | None = governor  # noun for relatives
        self.root: DependencyNode | None = None


class DependencyParser:
    """Rule-based dependency parser for questions.  Stateless."""

    def parse(self, question: str | list[Token]) -> DependencyTree:
        """Parse a question string (or pre-tagged tokens) into a tree."""
        tokens = tag(question) if isinstance(question, str) else question
        nodes = [DependencyNode(token) for token in tokens if token.pos not in (".", ",")]
        if not nodes:
            raise ParseError(f"no parsable tokens in question: {_text_of(question)!r}")

        self._chunk_noun_phrases(nodes)
        clauses = self._segment_clauses(nodes)
        for clause in clauses:
            self._parse_clause(clause)

        root = self._assemble(clauses, nodes)
        tree = DependencyTree(root, nodes)
        try:
            tree.validate()
        except ValueError as error:
            # Inputs outside the question grammar can defeat the attachment
            # rules; surface a ParseError so callers classify the failure.
            raise ParseError(f"could not parse {_text_of(question)!r}: {error}") from error
        return tree

    # ------------------------------------------------------------------ #
    # Pass 1: NP chunking
    # ------------------------------------------------------------------ #

    def _chunk_noun_phrases(self, nodes: list[DependencyNode]) -> None:
        i = 0
        while i < len(nodes):
            if not self._starts_np(nodes, i):
                i += 1
                continue
            j = i
            while j < len(nodes) and self._continues_np(nodes, i, j):
                j += 1
            chunk = nodes[i:j]
            self._attach_chunk(chunk)
            i = j

    def _attach_chunk(self, chunk: list[DependencyNode]) -> None:
        """Internal attachments of one NP chunk.

        A possessive clitic splits the chunk: "Margaret Thatcher 's
        children" attaches Thatcher →poss→ children (the paper's
        subject-like ``poss`` relation) with the clitic as its marker.
        """
        clitic_index = next(
            (k for k, node in enumerate(chunk) if node.pos == "POS"), None
        )
        if clitic_index is not None and 0 < clitic_index < len(chunk) - 1:
            possessor_part = chunk[:clitic_index]
            head_part = chunk[clitic_index + 1 :]
            possessor = self._np_head(possessor_part)
            head = self._np_head(head_part)
            if possessor is not None and head is not None:
                self._attach_chunk(possessor_part)
                self._attach_chunk(head_part)
                attach(possessor, head, "poss")
                attach(chunk[clitic_index], possessor, "possessive")
                return
        head = self._np_head(chunk)
        if head is not None:
            for node in chunk:
                if node is head:
                    continue
                attach(node, head, self._np_relation(node))

    @staticmethod
    def _starts_np(nodes: list[DependencyNode], i: int) -> bool:
        pos = nodes[i].pos
        if pos in ("DT", "PRP$", "JJ", "JJR", "JJS", "CD") or pos in _NOMINAL_TAGS:
            # "that" as a relative pronoun is not an NP start; the tagger
            # already retagged relative "that" to WDT.
            return True
        if pos == "WDT" and i + 1 < len(nodes) and nodes[i + 1].pos in _NOMINAL_TAGS:
            return True  # "which movies"
        return False

    @staticmethod
    def _continues_np(nodes: list[DependencyNode], start: int, j: int) -> bool:
        if j == start:
            return True
        pos = nodes[j].pos
        if pos in _NOMINAL_TAGS or pos == "CD":
            return True
        # A possessive clitic continues the chunk when a nominal follows:
        # "Margaret Thatcher 's children".
        if pos == "POS":
            return any(later.pos in _NOMINAL_TAGS for later in nodes[j + 1 :])
        # Determiners only open an NP; one appearing mid-run starts a new
        # chunk ("Michelle Obama | the wife").
        if pos in ("DT", "PRP$", "WDT"):
            return False
        # Adjectives continue only if a nominal follows eventually.
        if pos in ("JJ", "JJR", "JJS"):
            return any(later.pos in _NOMINAL_TAGS for later in nodes[j + 1 :])
        return False

    @staticmethod
    def _np_head(chunk: list[DependencyNode]) -> DependencyNode | None:
        nominals = [node for node in chunk if node.pos in _NOMINAL_TAGS]
        if nominals:
            return nominals[-1]
        return None

    @staticmethod
    def _np_relation(node: DependencyNode) -> str:
        if node.pos in ("DT", "WDT"):
            return "det"
        if node.pos == "PRP$":
            return "poss"
        if node.pos in ("JJ", "JJR", "JJS"):
            return "amod"
        if node.pos == "CD":
            return "num"
        return "nn"

    # ------------------------------------------------------------------ #
    # Pass 2: clause segmentation
    # ------------------------------------------------------------------ #

    def _segment_clauses(self, nodes: list[DependencyNode]) -> list[_Clause]:
        top_level = [node for node in nodes if node.head is None]
        clauses: list[_Clause] = []
        current: list[DependencyNode] = []
        current_kind = "main"
        current_governor: DependencyNode | None = None

        def flush() -> None:
            nonlocal current
            if current:
                clauses.append(_Clause(current, current_kind, current_governor))
                current = []

        previous: DependencyNode | None = None
        for node in top_level:
            boundary = self._clause_boundary(node, previous, current)
            if boundary is not None:
                flush()
                current_kind = boundary
                current_governor = previous
            current.append(node)
            previous = node if node.is_nominal() or node.pos in _VERB_TAGS else previous
        flush()
        return clauses

    @staticmethod
    def _clause_boundary(
        node: DependencyNode,
        previous: DependencyNode | None,
        current: list[DependencyNode],
    ) -> str | None:
        if previous is None:
            return None
        # Relative pronoun after a nominal: "an actor that played ..."
        if (
            node.pos in ("WDT", "WP")
            and previous.is_nominal()
        ):
            return "relative"
        # Reduced passive relative: participle directly after a nominal —
        # unless a be-auxiliary is still waiting for its participle in this
        # clause ("In which city *was* the queen Juliana *buried*?").
        if node.pos == "VBN" and previous.is_nominal():
            pending_be = any(
                n.lemma == "be" for n in current
            ) and not any(n.pos in ("VBN", "VBG") for n in current)
            if not pending_be:
                return "reduced"
        return None

    # ------------------------------------------------------------------ #
    # Pass 3: per-clause parsing
    # ------------------------------------------------------------------ #

    def _parse_clause(self, clause: _Clause) -> None:
        nodes = clause.nodes
        # Bind preposition objects first so they never masquerade as clause
        # subjects ("Which books [by Kerouac] were published ...").
        self._prebind_pobj(nodes)
        verb_groups = self._find_verb_groups(nodes)
        if not verb_groups:
            clause.root = self._nominal_only_root(nodes)
            self._attach_prepositions(clause, nodes, clause.root)
            self._attach_leftovers(clause, clause.root)
            return

        first_group = verb_groups[0]
        main_verb, auxes, passive, copular = first_group
        if copular:
            clause.root = self._parse_copular(clause, main_verb, auxes)
        else:
            clause.root = self._parse_verbal(clause, main_verb, auxes, passive)

        # Coordinated verb groups: "born in Vienna and died in Berlin".
        for group in verb_groups[1:]:
            conj_verb, conj_auxes, conj_passive, _ = group
            for aux in conj_auxes:
                attach(aux, conj_verb, "auxpass" if conj_passive else "aux")
            attach(conj_verb, clause.root, "conj")
            cc = self._nearest_unattached(clause, conj_verb.index, pos="CC", before=True)
            if cc is not None:
                attach(cc, clause.root, "cc")
            self._attach_objects_after(clause, conj_verb)

        self._attach_prepositions(clause, nodes, clause.root)
        self._resolve_wh_remnant(clause)
        self._attach_leftovers(clause, clause.root)

    # -- verb group discovery ------------------------------------------- #

    def _find_verb_groups(self, nodes: list[DependencyNode]):
        """Group clause verbs into (main, auxiliaries, passive?, copular?).

        A group is a chain of auxiliaries plus one content verb; groups
        after the first are coordinations.
        """
        groups = []
        verbs = [n for n in nodes if (n.pos in _VERB_TAGS or n.pos == "MD") and n.head is None]
        if not verbs:
            return groups
        used: set[int] = set()
        i = 0
        while i < len(verbs):
            auxes: list[DependencyNode] = []
            main: DependencyNode | None = None
            passive = False
            while i < len(verbs):
                verb = verbs[i]
                remaining = verbs[i + 1 :]
                if verb.pos == "MD":
                    is_aux = bool(remaining)
                elif verb.lemma == "do":
                    # Do-support: aux whenever any verb follows ("does ...
                    # have", "did ... star").
                    is_aux = bool(remaining)
                elif verb.lemma == "be":
                    is_aux = any(
                        r.lemma not in _AUX_LEMMAS or r.pos == "VBN" for r in remaining
                    )
                elif verb.lemma == "have":
                    is_aux = any(r.pos == "VBN" for r in remaining)
                else:
                    is_aux = False
                if is_aux:
                    auxes.append(verb)
                    i += 1
                    continue
                main = verb
                i += 1
                break
            if main is None:
                # Clause whose only verb material is "be": copular.
                if auxes:
                    main = auxes[-1]
                    auxes = auxes[:-1]
                else:
                    break
            passive = main.pos == "VBN" and any(a.lemma == "be" for a in auxes)
            copular = main.lemma == "be"
            groups.append((main, auxes, passive, copular))
            # A following CC + verb starts a coordinated group (handled by
            # the loop); anything else would also be grouped, which is the
            # desired behaviour for chained relatives.
        return groups

    # -- verbal clauses --------------------------------------------------- #

    def _parse_verbal(
        self,
        clause: _Clause,
        main_verb: DependencyNode,
        auxes: list[DependencyNode],
        passive: bool,
    ) -> DependencyNode:
        nodes = clause.nodes
        for aux in auxes:
            relation = "auxpass" if passive and aux.lemma == "be" else "aux"
            attach(aux, main_verb, relation)

        subject = self._find_subject(clause, main_verb, auxes)
        if subject is not None:
            attach(subject, main_verb, "nsubjpass" if passive else "nsubj")

        self._attach_objects_after(clause, main_verb)

        # Wh adverbs modify the verb: "When did Michael Jackson die?"
        for node in nodes:
            if node.head is None and node.pos == "WRB" and node is not main_verb:
                attach(node, main_verb, "advmod")
        return main_verb

    def _find_subject(
        self,
        clause: _Clause,
        main_verb: DependencyNode,
        auxes: list[DependencyNode],
    ) -> DependencyNode | None:
        nodes = clause.nodes
        if clause.kind == "relative":
            # The relative pronoun is the subject unless it is fronted as an
            # object ("the book that X wrote"): subject-aux inversion or a
            # nominal between pronoun and verb signals object relativisation.
            pronoun = nodes[0] if nodes and nodes[0].pos in ("WDT", "WP") else None
            if pronoun is not None:
                between = [
                    n
                    for n in nodes
                    if pronoun.index < n.index < main_verb.index
                    and n.head is None
                    and n.is_nominal()
                ]
                if not between:
                    return pronoun
                # An intervening nominal is the true subject.
                return between[-1]
            return None

        first_aux_index = min((a.index for a in auxes), default=main_verb.index)
        candidates = [
            n for n in nodes if n.head is None and n.is_nominal() and n is not main_verb
        ]
        # Subject-aux inversion: "did Antonio Banderas star".
        between = [n for n in candidates if first_aux_index < n.index < main_verb.index]
        if auxes and between:
            return between[-1]
        before = [n for n in candidates if n.index < first_aux_index]
        if before:
            return before[-1]
        if not auxes:
            pre_verbal = [n for n in candidates if n.index < main_verb.index]
            if pre_verbal:
                return pre_verbal[-1]
        return None

    def _attach_objects_after(self, clause: _Clause, verb: DependencyNode) -> None:
        """NPs directly after the verb (not behind a preposition) become
        iobj/dobj: 'Give me all movies ...'."""
        nodes = clause.nodes
        post: list[DependencyNode] = []
        blocked = False
        for node in nodes:
            if node.index <= verb.index:
                continue
            if node.pos in ("IN", "TO"):
                blocked = True
                continue
            if node.pos in _VERB_TAGS or node.pos == "CC":
                break
            if node.head is None and node.is_nominal() and not blocked:
                post.append(node)
        if len(post) >= 2 and post[0].pos == "PRP":
            attach(post[0], verb, "iobj")
            attach(post[1], verb, "dobj")
        elif post:
            attach(post[0], verb, "dobj")

    # -- copular clauses --------------------------------------------------- #

    def _parse_copular(
        self, clause: _Clause, copula: DependencyNode, auxes: list[DependencyNode]
    ) -> DependencyNode:
        nodes = clause.nodes
        free = [n for n in nodes if n.head is None and n is not copula]
        nominals_before = [n for n in free if n.is_nominal() and n.index < copula.index]
        nominals_after = [n for n in free if n.is_nominal() and n.index > copula.index]
        adjectives = [n for n in free if n.pos in ("JJ", "JJR", "JJS")]

        root: DependencyNode
        subject: DependencyNode | None = None

        if adjectives and any(n.pos == "WRB" for n in free):
            # "How tall is Michael Jordan?" → root tall, advmod how.
            root = adjectives[0]
            wh = next(n for n in free if n.pos == "WRB")
            attach(wh, root, "advmod")
            subject = nominals_after[-1] if nominals_after else (
                nominals_before[-1] if nominals_before else None
            )
        elif nominals_before and nominals_after:
            # "Who is the mayor of Berlin?" → root mayor, nsubj Who.
            # Prefer the wh phrase as subject.
            wh_before = [n for n in nominals_before if n.is_wh() or any(
                c.pos == "WDT" for c in n.children
            )]
            if wh_before:
                subject = wh_before[-1]
                root = nominals_after[0]
            else:
                # Declarative order: "Sean Parnell is the governor of ?state"
                subject = nominals_before[-1]
                root = nominals_after[0]
        elif nominals_after:
            # Yes/no copular: "Is Michelle Obama the wife of Barack Obama?"
            if len(nominals_after) >= 2:
                subject = nominals_after[0]
                root = nominals_after[1]
            else:
                root = nominals_after[0]
        elif nominals_before:
            root = nominals_before[-1]
            if len(nominals_before) >= 2:
                subject = nominals_before[0]
        else:
            root = copula
        if root is not copula:
            attach(copula, root, "cop")
        for aux in auxes:
            attach(aux, root, "aux")
        if subject is not None and subject is not root:
            attach(subject, root, "nsubj")
        return root

    # -- nominal-only clauses ----------------------------------------------- #

    @staticmethod
    def _nominal_only_root(nodes: list[DependencyNode]) -> DependencyNode:
        free = [n for n in nodes if n.head is None]
        nominals = [n for n in free if n.is_nominal()]
        if nominals:
            return nominals[0]
        if free:
            return free[0]
        raise ParseError("clause has no attachable nodes")

    # -- prepositional phrases ----------------------------------------------- #

    def _prebind_pobj(self, nodes: list[DependencyNode]) -> None:
        """Attach each preposition's object without yet siting the
        preposition itself (the site depends on the clause parse)."""
        for position, node in enumerate(nodes):
            if node.head is not None or node.pos not in ("IN", "TO"):
                continue
            pobj = self._following_nominal(nodes, position)
            if pobj is not None:
                attach(pobj, node, "pobj")

    def _attach_prepositions(
        self, clause: _Clause, nodes: list[DependencyNode], root: DependencyNode
    ) -> None:
        for position, node in enumerate(nodes):
            if node.head is not None or node.pos not in ("IN", "TO"):
                continue
            # Attachment site: nearest preceding attachable head.
            site = self._preceding_head(nodes, position, root)
            if site is node:
                continue  # a bare preposition clause: leave it as the root
            attach(node, site, "prep")
            if not any(child.deprel == "pobj" for child in node.children):
                pobj = self._following_nominal(nodes, position)
                if pobj is not None:
                    attach(pobj, node, "pobj")

    def _preceding_head(
        self, nodes: list[DependencyNode], position: int, root: DependencyNode
    ) -> DependencyNode:
        for candidate in reversed(nodes[:position]):
            if candidate.pos in _VERB_TAGS and candidate.lemma not in _AUX_LEMMAS:
                return candidate
            if candidate.pos in _VERB_TAGS and candidate.deprel in ("cop",):
                continue
            if candidate.is_nominal() and candidate.pos != "PRP":
                # Skip nominals that hang below the preposition's own
                # position (cannot happen before it) — any attached or
                # unattached nominal is a valid site.
                return candidate
        return root

    @staticmethod
    def _following_nominal(
        nodes: list[DependencyNode], position: int
    ) -> DependencyNode | None:
        for candidate in nodes[position + 1 :]:
            if candidate.pos in ("IN", "TO") or candidate.pos in _VERB_TAGS:
                return None
            if candidate.head is None and candidate.is_nominal():
                return candidate
        return None

    def _resolve_wh_remnant(self, clause: _Clause) -> None:
        """Fronted wh phrases left unattached become the filler of a
        stranded preposition or the object of the main verb.

        "Which cities does the Weser flow through?" → pobj(through, cities)
        "What did Bill Gates found?" → dobj(found, What)
        """
        if clause.root is None:
            return
        verb_positions = [
            n.index for n in clause.nodes if n.pos in _VERB_TAGS or n.pos == "MD"
        ]
        first_verb = min(verb_positions, default=-1)
        remnants = [
            n
            for n in clause.nodes
            if n.head is None
            and n is not clause.root
            and n.is_nominal()
            and (
                n.is_wh()
                or any(c.pos == "WDT" for c in n.children)
                # Any fronted nominal left of the verb group is a filler:
                # "How many students does ... have?"
                or n.index < first_verb
            )
        ]
        if not remnants:
            return
        remnant = remnants[0]
        stranded = [
            n
            for n in clause.root.subtree()
            if n.pos in ("IN", "TO") and not any(c.deprel == "pobj" for c in n.children)
        ]
        if stranded:
            attach(remnant, stranded[-1], "pobj")
        elif clause.root.pos in _VERB_TAGS and not any(
            c.deprel == "dobj" for c in clause.root.children
        ):
            attach(remnant, clause.root, "dobj")
        else:
            attach(remnant, clause.root, "dep")

    # -- leftovers ------------------------------------------------------- #

    @staticmethod
    def _nearest_unattached(
        clause: _Clause, index: int, pos: str, before: bool
    ) -> DependencyNode | None:
        candidates = [
            n
            for n in clause.nodes
            if n.head is None and n.pos == pos and ((n.index < index) if before else (n.index > index))
        ]
        if not candidates:
            return None
        return candidates[-1] if before else candidates[0]

    @staticmethod
    def _attach_leftovers(clause: _Clause, root: DependencyNode) -> None:
        by_index = {node.index: node for node in clause.nodes}
        for node in clause.nodes:
            if node.head is not None or node is root:
                continue
            # Title apposition: an unattached name NP right after an attached
            # nominal ("the book | The Pillars of the Earth").
            if node.is_nominal():
                left_index = min(n.index for n in node.subtree()) - 1
                left = by_index.get(left_index)
                if left is not None and left.is_nominal():
                    site = left if left.head is None or not left.head.is_nominal() else left
                    if site.head is not None and site.deprel in ("det", "amod", "nn", "num"):
                        site = site.head
                    if site is not node and site.head is not None:
                        attach(node, site, "appos")
                        continue
            relation = "advmod" if node.pos in ("RB", "WRB") else "dep"
            attach(node, root, relation)

    # ------------------------------------------------------------------ #
    # Pass 4: assembly
    # ------------------------------------------------------------------ #

    def _assemble(
        self, clauses: list[_Clause], nodes: list[DependencyNode]
    ) -> DependencyNode:
        main = clauses[0]
        if main.root is None:
            raise ParseError("main clause did not produce a root")
        for clause in clauses[1:]:
            if clause.root is None:
                continue
            governor = clause.governor if clause.governor is not None else main.root
            relation = "partmod" if clause.kind == "reduced" else "rcmod"
            attach(clause.root, governor, relation)
        # Safety net: anything still floating attaches to the main root.
        for node in nodes:
            if node.head is None and node is not main.root:
                attach(node, main.root, "dep")
        return main.root


_DEFAULT_PARSER = DependencyParser()


def parse_question(question: str) -> DependencyTree:
    """Parse a natural language question into a dependency tree."""
    return _DEFAULT_PARSER.parse(question)
