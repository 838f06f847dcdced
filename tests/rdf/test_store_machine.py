"""One model-based test for every store composition.

A Hypothesis state machine drives a random add / bulk-add / remove /
re-add / compact / shard(K) stream through the :class:`TripleStore`
facade against a plain ``set`` of id triples.  Three writable stores take
every mutation — the default ``TripleStore()`` (an overlay over an empty
compact base), overlay over a compact base, overlay over a sharded
base — and two frozen copies (compact, sharded-K) are re-derived
at each step.  After every step each of the five must agree with the model
on every ``StoreBackend`` member and every facade-derived view
(``store_checks.assert_matches_model``), the frozen pair must refuse
mutation and iterate in one order, versions must have advanced once per
changed triple, literal bookkeeping must follow the triples, and kernel
rows — cold and patched — must be byte-identical across all five.

The run is derandomized and small (~3 s) so tier-1 time and outcome are
stable.  It found no divergence in the shipped backends when it was
written; a falsifying example it finds later belongs below as a plain
pinned test, next to the fix.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import Bundle, RuleBasedStateMachine, invariant, multiple, rule

from repro.rdf import IRI, RDF_TYPE, Literal, Triple, TripleStore
from repro.rdf.kernel import AdjacencyKernel
from tests.rdf.store_checks import (
    assert_matches_model,
    assert_refuses_mutation,
    assert_same_order,
)

NODES = [IRI(f"x:n{i}") for i in range(4)]
PREDICATES = [IRI("x:p0"), IRI("x:p1"), RDF_TYPE]  # one structural predicate
OBJECTS = NODES + [Literal("l0"), Literal("l1", language="en")]

triples = st.builds(
    Triple, st.sampled_from(NODES), st.sampled_from(PREDICATES), st.sampled_from(OBJECTS)
)


class StoreMachine(RuleBasedStateMachine):
    added = Bundle("added")  # triples some rule inserted: likely present
    removed = Bundle("removed")  # triples some rule deleted: likely tombstoned

    def __init__(self):
        super().__init__()
        self.default = TripleStore()
        # Encode the whole vocabulary up front: ids (and the kernel's
        # structural-predicate set) stay fixed for the run.
        for term in NODES + PREDICATES + OBJECTS:
            self.default.dictionary.encode(term)
        self.writable = {
            "default": self.default,
            "overlay/compact": self.default.compacted().overlay(),
            "overlay/sharded": self.default.sharded(2).overlay(),
        }
        self.shards = 2
        self.literal_ids = {
            self.default.dictionary.lookup(term)
            for term in OBJECTS
            if isinstance(term, Literal)
        }
        self.model = set()
        self.version = 0
        self.kernels = {name: AdjacencyKernel(store) for name, store in self.writable.items()}
        self.nodes_seen: set[int] = set()

    def ids(self, triple):
        lookup = self.default.dictionary.lookup
        return lookup(triple.subject), lookup(triple.predicate), lookup(triple.object)

    # ------------------------------------------------------------------ #
    # Rules
    # ------------------------------------------------------------------ #

    def _add(self, triple):
        new = self.ids(triple) not in self.model
        for name, store in self.writable.items():
            assert store.add(triple) == new, name
        self.model.add(self.ids(triple))
        self.version += new

    @rule(target=added, triple=st.one_of(triples, removed))
    def add(self, triple):
        self._add(triple)
        return triple

    @rule(target=added, batch=st.lists(triples, max_size=6))
    def add_all(self, batch):
        new = len({self.ids(t) for t in batch} - self.model)
        for name, store in self.writable.items():
            assert store.add_all(batch) == new, name
        self.model.update(self.ids(t) for t in batch)
        self.version += new  # one bump per new triple, never one per batch
        return multiple(*batch)

    @rule(target=removed, triple=st.one_of(added, triples))
    def remove(self, triple):
        present = self.ids(triple) in self.model
        for name, store in self.writable.items():
            assert store.remove(triple) == present, name
        self.model.discard(self.ids(triple))
        self.version += present
        return triple

    @rule()
    def compact(self):
        """Fold the delta into a fresh compact base (the online-compaction path)."""
        self.writable["overlay/compact"] = (
            self.writable["overlay/compact"].compacted().overlay()
        )

    @rule(shards=st.sampled_from([1, 2, 3, 8]))
    def shard(self, shards):
        """Re-partition base + delta into ``shards`` segments under a new overlay."""
        self.shards = shards
        self.writable["overlay/sharded"] = (
            self.writable["overlay/sharded"].sharded(shards).overlay()
        )

    # ------------------------------------------------------------------ #
    # Invariants
    # ------------------------------------------------------------------ #

    @invariant()
    def every_composition_matches_the_model(self):
        compact = self.default.compacted()
        sharded = self.default.sharded(self.shards)
        stores = self.writable | {"compact": compact, "sharded": sharded}
        literals = {o for _, _, o in self.model if o in self.literal_ids}
        for name, store in stores.items():
            assert store.version == self.version, name
            assert_matches_model(store, self.model)
            assert set(store.iter_literal_ids()) == literals, name
            assert store.literal_count() == len(literals), name
        for frozen in (compact, sharded):
            assert_refuses_mutation(frozen)
        assert list(compact.triples_ids()) == sorted(self.model)
        assert_same_order(sharded, compact, self.model)

        # Kernel rows: one answer from every layout, cold or patched.
        rows = AdjacencyKernel(self.default).full_rows()
        assert AdjacencyKernel(compact).full_rows() == rows
        assert AdjacencyKernel(sharded).full_rows() == rows
        cold = AdjacencyKernel(self.default)
        steps = {step for _node, row, _nbrs in rows.scan() for step in row}
        for name, store in self.writable.items():
            self.kernels[name] = AdjacencyKernel(store, patch_from=self.kernels[name])
            assert self.kernels[name].full_rows() == rows, name
        # The memos a patch carries forward answer like a cold build's,
        # for every step and node.
        self.nodes_seen.update(rows)
        for name, kernel in self.kernels.items():
            for step in steps:
                assert kernel.nodes_with_step(step) == cold.nodes_with_step(step), name
            for node in self.nodes_seen:
                assert kernel.incident_steps(node) == cold.incident_steps(node), name


StoreMachine.TestCase.settings = settings(
    max_examples=30, stateful_step_count=20, deadline=None, derandomize=True
)
TestStoreMachine = StoreMachine.TestCase
