"""Local truss decomposition by asynchronous fixpoint iteration.

The peeling of Algorithm 1 is inherently sequential — each removal
feeds the next. This module computes the same local trussness map with
*local updates only*, the probabilistic analogue of h-index-iteration
core/truss decomposition:

Maintain an upper bound ``t(e)`` on every edge's trussness (initialised
to its level against the full neighbourhood). Repeatedly refine:

    t(e)  <-  max k such that  sigma_k(e) * p(e) >= gamma,  where
    sigma_k counts only triangles whose OTHER two edges both currently
    have bound >= k.

Each refinement uses only `e`'s triangles, bounds are non-increasing
integers, and the fixpoint equals Algorithm 1's trussness exactly
(verified edge-for-edge in the test suite). Because updates commute,
the scheme suits parallel / out-of-core / vertex-centric settings where
a global peel is awkward — the same motivation as the paper's cited
external-memory and MapReduce truss work.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Hashable

from repro.exceptions import ParameterError
from repro.graphs.probabilistic import ProbabilisticGraph, edge_key
from repro.core.support_prob import (
    gamma_threshold,
    support_pmf,
    support_tail,
)

__all__ = ["local_truss_decomposition_iterative"]

Node = Hashable
Edge = tuple[Node, Node]


def _best_level(
    graph: ProbabilisticGraph,
    e: Edge,
    bounds: dict[Edge, int],
    gamma: float,
) -> int:
    """Largest k with sigma_k(e) * p(e) >= gamma under current bounds.

    A triangle with apex w counts towards level k iff both co-edges'
    current bounds are >= k. Since raising k only removes triangles,
    scan k downward from the current bound, rebuilding the PMF only when
    the eligible triangle set changes.
    """
    u, v = e
    p_edge = graph.probability(u, v)
    threshold = gamma_threshold(gamma)
    if p_edge < threshold:
        return 1
    current = bounds[e]
    if current <= 2:
        return 2

    # Triangles sorted by the co-edge bound that limits them.
    limits: list[tuple[int, float]] = []
    for w in graph.common_neighbors(u, v):
        limit = min(bounds[edge_key(u, w)], bounds[edge_key(v, w)])
        q = graph.probability(w, u) * graph.probability(w, v)
        limits.append((limit, q))

    for k in range(current, 2, -1):
        qs = [q for limit, q in limits if limit >= k]
        if len(qs) < k - 2:
            continue
        sigma = support_tail(support_pmf(qs))
        if sigma[k - 2] * p_edge >= threshold:
            return k
    return 2


def local_truss_decomposition_iterative(
    graph: ProbabilisticGraph, gamma: float
) -> dict[Edge, int]:
    """Compute local trussness by work-list fixpoint iteration.

    Returns the same ``{edge: tau(e)}`` map as
    :func:`repro.core.local.local_truss_decomposition` (whose
    ``LocalTrussResult`` wrapper can be built from it if needed).
    """
    if not 0.0 <= gamma <= 1.0:
        raise ParameterError(f"gamma must be in [0, 1], got {gamma}")
    bounds: dict[Edge, int] = {}
    for u, v, p in graph.edges_with_probabilities():
        e = (u, v)
        qs = [
            graph.probability(w, u) * graph.probability(w, v)
            for w in graph.common_neighbors(u, v)
        ]
        sigma = support_tail(support_pmf(qs))
        threshold = gamma_threshold(gamma)
        if p < threshold:
            bounds[e] = 1
            continue
        level = 2
        for t in range(len(sigma) - 1, 0, -1):
            if sigma[t] * p >= threshold:
                level = t + 2
                break
        bounds[e] = level

    pending = deque(bounds)
    in_queue = set(bounds)
    while pending:
        e = pending.popleft()
        in_queue.discard(e)
        if bounds[e] <= 2:
            continue
        new_bound = _best_level(graph, e, bounds, gamma)
        if new_bound < bounds[e]:
            bounds[e] = new_bound
            u, v = e
            for w in graph.common_neighbors(u, v):
                for other in (edge_key(u, w), edge_key(v, w)):
                    if bounds.get(other, 0) > 2 and other not in in_queue:
                        pending.append(other)
                        in_queue.add(other)
    return bounds
