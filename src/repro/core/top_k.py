"""Algorithm 3: TA-style top-k subgraph match search.

Candidate lists are confidence-sorted; a cursor per (non-wildcard) vertex
list advances in round-robin.  At each step the cursor's candidate seeds an
exploration-based subgraph isomorphism (Section 4.2.2 / match.matcher); the
threshold θ is the current k-th best match score, and the upper bound for
undiscovered matches follows Equation 3.  The search stops when
θ ≥ Upbound (the TA stop), or when some list is exhausted — every match
must use a candidate from every list, so a fully-seeded list proves
completeness.

One deliberate tightening over the paper's pseudo-code: Equation 3 also
advances *edge* cursors, but matches are only ever seeded from vertex
candidates, so an undiscovered match may still use the best edge mapping.
We therefore keep each edge's contribution at its maximum confidence,
which preserves correctness of the bound (and stops slightly later).
Ties at the k-th score are all returned (the paper's footnote 4).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from repro import obs
from repro.match.candidates import CandidateSpace
from repro.match.matcher import GraphMatch, SubgraphMatcher, _log
from repro.match.pruning import neighborhood_prune
from repro.rdf.graph import KnowledgeGraph


@dataclass(slots=True)
class TopKResult:
    """Top-k matches plus search diagnostics.

    ``terminated_by`` attributes how the search ended — Table 10 failure
    analysis and the trace counters read it:

    * ``"threshold"`` — the TA stop fired (θ ≥ Upbound, Equation 3);
    * ``"exhausted"`` — some candidate list was fully consumed, proving
      completeness (with or without matches found);
    * ``"pruned_empty"`` — neighborhood pruning emptied a candidate list
      before any seeding happened;
    * ``"empty"`` — a candidate list was already empty before pruning
      (the query was unsatisfiable as mapped);
    * ``"deadline"`` — a per-request deadline expired mid-search; the
      matches found so far are returned as a *partial* top-k (the serving
      layer's cooperative timeout, not a correctness stop).
    """

    matches: list[GraphMatch] = field(default_factory=list)
    seeds_explored: int = 0
    candidates_pruned: int = 0
    #: "threshold"|"exhausted"|"pruned_empty"|"empty"|"deadline"
    terminated_by: str = "empty"
    #: (depth, θ, Upbound) steps recorded per TA round under a recording
    #: tracer — how fast the Equation 3 bound closed on the threshold.
    ta_trajectory: list[dict] = field(default_factory=list)

    def __iter__(self):
        return iter(self.matches)

    def __len__(self) -> int:
        return len(self.matches)


class TopKSearch:
    """Runs Algorithm 3 over a candidate space.

    ``use_ta=False`` disables the threshold stop (exhaustive seeding) and
    ``use_pruning=False`` disables neighborhood pruning — both are the
    ablation knobs DESIGN.md calls out.
    """

    def __init__(
        self,
        kg: KnowledgeGraph,
        k: int = 10,
        use_ta: bool = True,
        use_pruning: bool = True,
    ):
        if k < 1:
            raise ValueError(f"k must be at least 1, got {k}")
        self.kg = kg
        self.k = k
        self.use_ta = use_ta
        self.use_pruning = use_pruning

    # ------------------------------------------------------------------ #

    def search(
        self, space: CandidateSpace, tracer=None, deadline: float | None = None
    ) -> TopKResult:
        """Top-k matches of a connected candidate space.

        ``deadline`` is an absolute :func:`time.monotonic` instant.  The
        search checks it cooperatively between seed explorations: once it
        passes, seeding stops and the matches collected so far come back
        with ``terminated_by="deadline"`` — a partial (but valid) top-k.
        """
        if tracer is None:
            tracer = obs.get_tracer()
        with tracer.span(
            "top_k.search", vertices=len(space.vertices), edges=len(space.edges)
        ) as span:
            result, matcher = self._search(space, tracer, deadline)
            metrics = tracer.metrics
            metrics.incr("top_k.searches")
            metrics.incr("top_k.seeds_explored", result.seeds_explored)
            metrics.incr("top_k.candidates_pruned", result.candidates_pruned)
            metrics.incr(f"top_k.terminated.{result.terminated_by}")
            span.set(
                seeds_explored=result.seeds_explored,
                candidates_pruned=result.candidates_pruned,
                terminated_by=result.terminated_by,
                matches=len(result.matches),
            )
            if result.ta_trajectory:
                span.set(ta_trajectory=result.ta_trajectory)
            if matcher is not None:
                metrics.incr("matcher.expansions", matcher.expansions)
                metrics.incr("matcher.rejected_bindings", matcher.rejected_bindings)
                span.set(
                    expansions=matcher.expansions,
                    rejected_bindings=matcher.rejected_bindings,
                )
        return result

    def _search(
        self, space: CandidateSpace, tracer, deadline: float | None = None
    ) -> tuple[TopKResult, SubgraphMatcher | None]:
        result = TopKResult()
        empty_before_pruning = space.has_empty_list()
        if self.use_pruning:
            result.candidates_pruned = neighborhood_prune(self.kg, space, tracer)
        if space.has_empty_list():
            # Attribute the no-match cause: a list that was empty before
            # pruning means the query was never satisfiable; one emptied
            # *by* pruning means every candidate was provably dead.
            result.terminated_by = "empty" if empty_before_pruning else "pruned_empty"
            return result, None

        matcher = SubgraphMatcher(self.kg, space)
        seeded_lists = [
            (vertex_id, vertex.candidates)
            for vertex_id, vertex in sorted(space.vertices.items())
            if not vertex.wildcard
        ]
        if not seeded_lists:
            # Degenerate all-wildcard query: exhaustive enumeration from
            # the nodes the kernel's step directory admits.  The matches
            # tie on vertex confidence, so the cut is by discovery order.
            result.matches = matcher.all_matches(deadline)[: self.k]
            result.terminated_by = (
                "deadline" if matcher.deadline_expired else "exhausted"
            )
            return result, matcher

        edge_bound = sum(_log(edge.best_confidence()) for edge in space.edges)
        seen: set[frozenset[tuple[int, int]]] = set()
        collected: list[GraphMatch] = []
        trajectory: list[dict] = []
        depth = 0
        max_depth = max(len(candidates) for _v, candidates in seeded_lists)
        terminated = "exhausted"
        expired = False
        while depth < max_depth:
            for vertex_id, candidates in seeded_lists:
                if deadline is not None and time.monotonic() >= deadline:
                    expired = True
                    break
                if depth >= len(candidates):
                    continue
                result.seeds_explored += 1
                for match in matcher.matches_from_seed(vertex_id, candidates[depth]):
                    if match.key() not in seen:
                        seen.add(match.key())
                        collected.append(match)
            if expired:
                terminated = "deadline"
                break
            depth += 1
            # A fully-consumed list means every match has been seeded.
            if any(depth >= len(candidates) for _v, candidates in seeded_lists):
                break
            if self.use_ta:
                reached, threshold, upbound = self._threshold_status(
                    collected, seeded_lists, depth, edge_bound
                )
                if tracer.enabled:
                    trajectory.append(
                        {"depth": depth, "threshold": threshold, "upbound": upbound}
                    )
                if reached:
                    terminated = "threshold"
                    break
        result.matches = self._select_top_k(collected)
        result.terminated_by = terminated
        result.ta_trajectory = trajectory
        return result, matcher

    # ------------------------------------------------------------------ #

    def _threshold_status(
        self,
        collected: list[GraphMatch],
        seeded_lists,
        depth: int,
        edge_bound: float,
    ) -> tuple[bool, float | None, float]:
        """(stop?, current θ or None if < k matches, Equation 3 upper bound)."""
        upbound = edge_bound
        for _vertex_id, candidates in seeded_lists:
            upbound += _log(candidates[depth].confidence)
        if len(collected) < self.k:
            return False, None, upbound
        scores = sorted((m.score for m in collected), reverse=True)
        threshold = scores[self.k - 1]
        # Strict comparison: an undiscovered match could score exactly the
        # threshold, and footnote 4 returns all matches tied at the k-th
        # score.  (The paper's pseudo-code stops at ≥; strictness costs a
        # little work and buys tie completeness.)
        return threshold > upbound + 1e-12, threshold, upbound

    def _select_top_k(self, collected: list[GraphMatch]) -> list[GraphMatch]:
        """Best k matches, keeping all matches tied with the k-th score."""
        ranked = sorted(collected, key=lambda m: (-m.score, m.bindings))
        if len(ranked) <= self.k:
            return ranked
        cutoff = ranked[self.k - 1].score
        top = [m for m in ranked if m.score > cutoff or math.isclose(m.score, cutoff)]
        return top
