"""Gamma decomposition: fixed k, all thresholds gamma (paper §7, open problem 2).

The paper's future-work section asks: *given k, how to find maximal
(local) (k, gamma)-trusses for every possible gamma?* The problem is
well-defined because each edge has a largest gamma for which it still
belongs to some local (k, gamma)-truss; call it the edge's
**gamma-trussness** at order k:

    gamma_k(e) = max over subgraphs H containing e of
                 min over e' in H of  Pr[sup_H(e') >= k-2] * p(e').

This module solves it with the same peeling framework as Algorithm 1,
but peeling by the *value* ``sigma(e, k-2) p(e)`` instead of by level:
repeatedly remove the edge of minimum current value; the running
maximum of removed values at the time each edge is peeled is exactly its
gamma-trussness (the standard max-min peeling argument, as in
densest-subgraph / onion decompositions).

Given the map, the maximal local (k, gamma)-trusses for *any* gamma are
the edge-connected clusters of ``{e : gamma_k(e) >= gamma}`` — no
re-decomposition needed per gamma.
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Hashable
from dataclasses import dataclass, field

from repro.exceptions import ParameterError
from repro.graphs.components import edge_connected_components
from repro.graphs.probabilistic import ProbabilisticGraph, edge_key
from repro.core.support_prob import SupportProbability, gamma_threshold

__all__ = ["GammaTrussResult", "gamma_truss_decomposition"]

Node = Hashable
Edge = tuple[Node, Node]


@dataclass
class GammaTrussResult:
    """Gamma-trussness of every edge at a fixed truss order k.

    Attributes
    ----------
    graph:
        The input probabilistic graph (unmodified).
    k:
        The fixed truss order (>= 2).
    gamma_trussness:
        ``{edge: gamma_k(e)}`` — the largest gamma for which the edge is
        in some local (k, gamma)-truss. Zero means the edge can never
        reach support k - 2 (e.g. too few structural triangles).
    """

    graph: ProbabilisticGraph
    k: int
    gamma_trussness: dict[Edge, float]
    _levels_cache: list[float] | None = field(default=None, repr=False)

    def gamma_of(self, u: Node, v: Node) -> float:
        """Return ``gamma_k((u, v))``."""
        return self.gamma_trussness[edge_key(u, v)]

    def thresholds(self) -> list[float]:
        """Distinct positive gamma values, descending.

        Between consecutive thresholds the decomposition is constant, so
        these are the only "interesting" gammas.
        """
        if self._levels_cache is None:
            values = {g for g in self.gamma_trussness.values() if g > 0.0}
            self._levels_cache = sorted(values, reverse=True)
        return list(self._levels_cache)

    def maximal_trusses_at(self, gamma: float) -> list[ProbabilisticGraph]:
        """Return the maximal local (k, gamma)-trusses for this gamma.

        Simply clusters ``{e : gamma_k(e) >= gamma}`` — O(surviving
        edges), no re-peeling.
        """
        if not 0.0 < gamma <= 1.0:
            raise ParameterError(f"gamma must be in (0, 1], got {gamma}")
        survivors = [
            e for e, g in self.gamma_trussness.items()
            if g >= gamma_threshold(gamma)
        ]
        clusters = edge_connected_components(self.graph, survivors)
        return [self.graph.edge_subgraph(c) for c in clusters]

    def hierarchy(self) -> dict[float, list[ProbabilisticGraph]]:
        """Return ``{gamma: maximal trusses}`` for every distinct threshold."""
        return {g: self.maximal_trusses_at(g) for g in self.thresholds()}


def gamma_truss_decomposition(
    graph: ProbabilisticGraph, k: int
) -> GammaTrussResult:
    """Compute the gamma-trussness of every edge at truss order ``k``.

    Max-min peeling: maintain each edge's current value
    ``sigma(e, k-2) * p(e)`` (updated with the Eq. 8 deconvolution as
    triangles disappear), repeatedly remove the minimum-value edge, and
    assign it the running maximum of removal values. Runs in
    O(m log m + triangle updates) — the heap replaces Algorithm 1's
    bucket queue because values are reals, not integers.
    """
    if k < 2:
        raise ParameterError(f"k must be at least 2, got {k}")
    work = graph.copy()
    pmfs: dict[Edge, SupportProbability] = {}
    values: dict[Edge, float] = {}
    for u, v, p in work.edges_with_probabilities():
        e = (u, v)
        sp = SupportProbability.from_edge(work, u, v)
        pmfs[e] = sp
        values[e] = sp.tail(k - 2) * p

    # Lazy-deletion heap; counter breaks value ties without comparing
    # edge keys (nodes may be of mixed types).
    counter = itertools.count()
    heap = [(value, next(counter), e) for e, value in values.items()]
    heapq.heapify(heap)
    alive = set(values)
    gamma_trussness: dict[Edge, float] = {}
    running = 0.0
    while alive:
        value, _, e = heapq.heappop(heap)
        if e not in alive or value > values[e] + 1e-18:
            continue  # stale entry
        alive.discard(e)
        running = max(running, values[e])
        gamma_trussness[e] = running
        u, v = e
        apexes = list(work.common_neighbors(u, v))
        for w in apexes:
            e_uw = edge_key(u, w)
            if e_uw in alive:
                q = work.probability(v, u) * work.probability(v, w)
                pmfs[e_uw].remove_triangle(q)
            e_vw = edge_key(v, w)
            if e_vw in alive:
                q = work.probability(u, v) * work.probability(u, w)
                pmfs[e_vw].remove_triangle(q)
        work.remove_edge(u, v)
        for w in apexes:
            for a, b in ((u, w), (v, w)):
                other = edge_key(a, b)
                if other in alive:
                    new_value = (
                        pmfs[other].tail(k - 2) * work.probability(a, b)
                    )
                    if new_value < values[other]:
                        values[other] = new_value
                        heapq.heappush(
                            heap, (new_value, next(counter), other)
                        )
    return GammaTrussResult(graph=graph, k=k, gamma_trussness=gamma_trussness)
