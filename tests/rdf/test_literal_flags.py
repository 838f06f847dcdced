"""The literal bookkeeping, held to the ``set`` it replaced.

A store keeps one flag byte per term id (1 where the id is a literal some
triple names), in every store: built, overlaid, compacted and opened.  A
Hypothesis state machine drives add / bulk-add / remove / retire-and-
reclaim / compact-and-overlay / compile-and-open streams through one
writable store and holds it, after every step, to :class:`ReferenceLiterals`
— the ``set`` of literal ids the store kept before, its rules transcribed
here — on ``is_literal_id`` for every id, ``literal_count``,
``iter_literal_ids``, ``node_ids`` and ``statistics()["literals"]``.  A
``remove`` that forgets to clear the flag is caught.
"""

import tempfile
from pathlib import Path

import pytest
from hypothesis import Phase, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    invariant,
    multiple,
    rule,
    run_state_machine_as_test,
)

from repro.paraphrase.dictionary import ParaphraseDictionary
from repro.rdf import IRI, RDFS_LABEL, XSD_INTEGER, KnowledgeGraph, Literal, Triple, TripleStore
from repro.rdf.snapshot import compile_snapshot, load_snapshot

NODES = [IRI(f"x:n{i}") for i in range(3)]
PREDICATES = [IRI("x:p0"), RDFS_LABEL]
LITERALS = [Literal("l0"), Literal("l1", language="en"), Literal("7", datatype=XSD_INTEGER)]

triples = st.builds(
    Triple, st.sampled_from(NODES), st.sampled_from(PREDICATES),
    st.sampled_from(NODES + LITERALS),
)


class ReferenceLiterals:
    """The literal bookkeeping as a ``set`` of ids, with the rules of the
    store that kept one: an added literal object is booked, a removed one
    is forgotten once no triple names it, retired ids are forgotten."""

    def __init__(self):
        self.ids: set[int] = set()
        #: The id triples the store holds.
        self.triples: set[tuple[int, int, int]] = set()

    def add(self, ids, is_literal):
        if is_literal:
            self.ids.add(ids[2])
        self.triples.add(ids)

    def remove(self, ids):
        removed = ids in self.triples
        self.triples.discard(ids)
        o = ids[2]
        if removed and o in self.ids and not any(t[2] == o for t in self.triples):
            self.ids.discard(o)

    def retire(self, unnamed):
        self.ids = self.ids.difference(unnamed)

    def node_ids(self):
        return {s for s, _p, _o in self.triples} | {
            o for _s, _p, o in self.triples if o not in self.ids
        }


class LiteralMachine(RuleBasedStateMachine):
    added = Bundle("added")  # triples some rule inserted: likely present

    def __init__(self):
        super().__init__()
        self.store = TripleStore()
        self.reference = ReferenceLiterals()
        #: Ids below this belong to an opened snapshot's frozen base.
        self.floor = 0
        self.directory = Path(tempfile.mkdtemp(prefix="literal-flags-"))

    def _ids(self, triple):
        lookup = self.store.dictionary.lookup
        return lookup(triple.subject), lookup(triple.predicate), lookup(triple.object)

    @rule(target=added, triple=triples)
    def add(self, triple):
        self.store.add(triple)
        self.reference.add(self._ids(triple), isinstance(triple.object, Literal))
        return triple

    @rule(target=added, batch=st.lists(triples, max_size=5))
    def add_all(self, batch):
        self.store.add_all(batch)
        for triple in batch:
            self.reference.add(self._ids(triple), isinstance(triple.object, Literal))
        return multiple(*batch)

    @rule(triple=st.one_of(added, triples))
    def remove(self, triple):
        lookup = self.store.dictionary.lookup_or_none
        ids = (lookup(triple.subject), lookup(triple.predicate), lookup(triple.object))
        self.store.remove(triple)
        if None not in ids:
            self.reference.remove(ids)

    @rule()
    def compact(self):
        """The online compaction: fold the delta into a frozen base and
        write on through a new overlay."""
        self.store = self.store.compacted().overlay()

    @rule()
    def retire(self):
        """Retire and reclaim the terms past the frozen base no triple names."""
        dictionary = self.store.dictionary
        unnamed = self.store.retire_unnamed(dictionary.ids_since(self.floor))
        dictionary.reclaim(unnamed)
        self.reference.retire(unnamed)

    @rule()
    def round_trip(self):
        """Compile the store, open the file, and write on through an overlay."""
        path = self.directory / "s.snap"
        compile_snapshot(path, KnowledgeGraph(self.store), ParaphraseDictionary())
        opened = load_snapshot(path).kg.store
        assert len(opened.literal_flags) == len(opened.dictionary)
        self.check(opened)
        self.store = opened.overlay()
        self.floor = len(self.store.dictionary)

    def check(self, store):
        reference = self.reference
        for term_id in range(len(store.dictionary) + 2):
            assert store.is_literal_id(term_id) == (term_id in reference.ids), term_id
        assert store.literal_count() == len(reference.ids)
        assert sorted(store.iter_literal_ids()) == sorted(reference.ids)
        assert store.node_ids() == reference.node_ids()
        assert store.statistics()["literals"] == len(reference.ids)

    @invariant()
    def every_view_matches_the_reference(self):
        self.check(self.store)
        self.check(self.store.compacted())

    def teardown(self):
        for member in self.directory.iterdir():
            member.unlink()
        self.directory.rmdir()


SETTINGS = settings(max_examples=40, stateful_step_count=15, deadline=None, derandomize=True)
LiteralMachine.TestCase.settings = SETTINGS
TestLiteralMachine = LiteralMachine.TestCase


def test_a_remove_that_keeps_the_flag_is_caught(monkeypatch):
    """Seeded mutant: ``remove`` without its flag clear leaves a literal
    no triple names flagged, and the machine fails."""

    def remove_keeping_the_flag(self, triple):
        lookup = self.dictionary.lookup_or_none
        s, p, o = lookup(triple.subject), lookup(triple.predicate), lookup(triple.object)
        if s is None or p is None or o is None:
            return False
        return self.backend.remove(s, p, o)

    monkeypatch.setattr(TripleStore, "remove", remove_keeping_the_flag)
    with pytest.raises(AssertionError):
        # Found, not shrunk: the failing example is all this asks for.
        run_state_machine_as_test(
            LiteralMachine, settings=settings(SETTINGS, phases=[Phase.generate])
        )
