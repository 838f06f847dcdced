"""Algorithm 2: finding relation-phrase embeddings in a dependency tree.

An *embedding* of relation phrase ``rel`` in tree ``Y`` (Definition 5) is a
maximal connected subtree whose nodes each carry one word of ``rel`` and
which together cover all of ``rel``'s words.  Using the dependency tree
rather than the word sequence handles long-distance dependencies: "In
which movies did Antonio Banderas star?" still embeds "star in" even though
the preposition is fronted.

Implementation: the paraphrase dictionary's word-level inverted index gives,
for each tree node, the phrases containing that node's lemma (Steps 1–2 of
Algorithm 2).  For each node and candidate phrase we then probe downward
through phrase-word nodes only (the ``Probe`` routine), marking which words
of the phrase appear; a phrase whose words are all marked yields an
embedding rooted at that node (Steps 3–11).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.nlp.dependency import DependencyNode, DependencyTree
from repro.paraphrase.dictionary import ParaphraseDictionary


@dataclass(frozen=True, slots=True)
class Embedding:
    """One occurrence of a relation phrase in the dependency tree."""

    phrase_words: tuple[str, ...]
    root: DependencyNode
    nodes: tuple[DependencyNode, ...]

    @property
    def size(self) -> int:
        return len(self.nodes)

    def node_indexes(self) -> frozenset[int]:
        return frozenset(node.index for node in self.nodes)

    def __repr__(self) -> str:
        words = " ".join(n.word for n in sorted(self.nodes, key=lambda n: n.index))
        return f"Embedding({' '.join(self.phrase_words)!r} ← {words!r})"


class RelationExtractor:
    """Finds all relation-phrase embeddings of a dictionary in a tree."""

    def __init__(self, dictionary: ParaphraseDictionary):
        self.dictionary = dictionary

    # ------------------------------------------------------------------ #

    def find_embeddings(self, tree: DependencyTree) -> list[Embedding]:
        """All maximal, non-overlapping embeddings in the tree.

        When embeddings overlap (e.g. "be married to" subsumes "married"),
        longer phrases win; among equal lengths, the earlier root wins.
        This implements Definition 5's maximality condition across phrases.
        """
        raw = self._all_embeddings(tree)
        raw.sort(key=lambda emb: (-emb.size, emb.root.index))
        chosen: list[Embedding] = []
        used: set[int] = set()
        for embedding in raw:
            indexes = embedding.node_indexes()
            if indexes & used:
                continue
            chosen.append(embedding)
            used |= indexes
        chosen.sort(key=lambda emb: emb.root.index)
        return chosen

    #: POS prefixes that can anchor an embedding.  Rooting at a bare
    #: preposition or auxiliary produces spurious relations ("in" + any
    #: noun), so roots must be content words.
    _CONTENT_POS_PREFIXES = ("NN", "VB", "JJ")

    def _all_embeddings(self, tree: DependencyTree) -> list[Embedding]:
        embeddings: list[Embedding] = []
        for node in tree.nodes:
            if not node.pos.startswith(self._CONTENT_POS_PREFIXES):
                continue
            for phrase in self.dictionary.phrases_containing(node.lemma):
                embedding = self._embed_at(node, phrase)
                if embedding is not None and self._is_maximal(embedding, phrase):
                    embeddings.append(embedding)
        return embeddings

    # ------------------------------------------------------------------ #

    def _embed_at(
        self, root: DependencyNode, phrase: tuple[str, ...]
    ) -> Embedding | None:
        """The Probe routine: grow a subtree of phrase-word nodes from
        ``root`` and check it covers the phrase's words (with multiplicity).

        A depth-first walk over a stack of child iterators: a child is
        taken when its word is still owed at the moment the walk reaches
        it, after its earlier siblings' subtrees have taken theirs.
        """
        remaining = Counter(phrase)
        if remaining[root.lemma] == 0:
            return None
        remaining[root.lemma] -= 1
        collected = [root]
        stack = [iter(root.children)]
        while stack:
            child = next(stack[-1], None)
            if child is None:
                stack.pop()
            elif remaining[child.lemma] > 0:
                remaining[child.lemma] -= 1
                collected.append(child)
                stack.append(iter(child.children))
        if any(count > 0 for count in remaining.values()):
            return None
        return Embedding(phrase, root, tuple(collected))

    @staticmethod
    def _is_maximal(embedding: Embedding, phrase: tuple[str, ...]) -> bool:
        """Condition 2 of Definition 5: the embedding is not a proper
        subtree of a larger embedding of the same phrase — equivalently,
        the root's parent is not itself a phrase word that could extend it."""
        parent = embedding.root.head
        if parent is None:
            return True
        # If the parent also carries a phrase word, the subtree rooted at
        # the parent would subsume this one; that root will produce it.
        return parent.lemma not in phrase
