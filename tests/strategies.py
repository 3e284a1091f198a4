"""Seeded random-graph builders and exact sample-set strategies.

The test suite's generative inputs live here so every module draws from
the same distributions instead of hand-rolling fixtures:

* :func:`random_probabilistic_graph` — the original seeded Erdős–Rényi
  helper (moved from ``conftest``; ``conftest`` re-exports it for the
  existing importers).
* :func:`dyadic_random_graph` — the same shape, but every probability
  is a *dyadic rational* (``k / 2**b``). Products and one-complements
  of dyadic floats are exact in binary floating point, so quantities
  like existence probabilities come out bit-identical no matter which
  order the factors are folded in — the property that lets equivalence
  tests compare the sequential-stream sampler (``workers=None``)
  against the per-seed family (``workers=N``) byte for byte.
* :func:`exhaustive_sample_set` — the *exact* possible-world
  distribution of a small dyadic graph, materialised as an ordinary
  :class:`~repro.graphs.sampling.WorldSampleSet` via mixed-radix
  enumeration. Every empirical frequency equals its true probability
  exactly, so Monte-Carlo-thresholded answers computed against it
  coincide with exact enumeration (``repro.core.exact_enum``).
* :func:`dfs_global_decomposition` — the reference exact global
  decomposition: Algorithm 3's level loop with the depth-first
  :func:`~repro.core.global_decomp.top_down_search` on every component,
  independent of the executor's round-synchronous frontier search that
  ``global_truss_decomposition(method="gtd")`` runs.
* hypothesis strategies (``probabilities``, ``q_lists``,
  ``dyadic_probabilities``) for the property-based cross-checks.
"""

from __future__ import annotations

import numpy as np

from hypothesis import strategies as st

from repro import ProbabilisticGraph
from repro.graphs.sampling import WorldSampleSet

__all__ = [
    "DYADIC_PROBS",
    "dfs_global_decomposition",
    "dyadic_probabilities",
    "dyadic_random_graph",
    "exhaustive_sample_set",
    "planted_clique_graph",
    "planted_clique_graphs",
    "probabilities",
    "q_lists",
    "random_probabilistic_graph",
]

#: Probabilities expressible in at most two binary digits. All float
#: arithmetic the decompositions perform on these (products, ``1 - p``)
#: is exact, so nothing downstream depends on summation order.
DYADIC_PROBS = (0.25, 0.5, 0.75)

#: Dyadic rationals up to four binary digits — still exact, but with
#: enough spread to exercise near-0 and near-1 behaviour.
_DYADIC_PROBS_WIDE = (0.0625, 0.25, 0.5, 0.75, 0.9375)

probabilities = st.floats(min_value=0.0, max_value=1.0,
                          allow_nan=False, allow_infinity=False)
q_lists = st.lists(probabilities, min_size=0, max_size=12)
dyadic_probabilities = st.sampled_from(_DYADIC_PROBS_WIDE)


def random_probabilistic_graph(
    n: int, density: float, seed: int
) -> ProbabilisticGraph:
    """Deterministic small random graph helper used across test modules."""
    gen = np.random.default_rng(seed)
    g = ProbabilisticGraph()
    for u in range(n):
        g.add_node(u)
    for u in range(n):
        for v in range(u + 1, n):
            if gen.random() < density:
                g.add_edge(u, v, float(gen.uniform(0.05, 1.0)))
    return g


def dyadic_random_graph(
    n: int, density: float, seed: int,
    probs: tuple[float, ...] = DYADIC_PROBS,
) -> ProbabilisticGraph:
    """Seeded random graph whose probabilities are dyadic rationals."""
    gen = np.random.default_rng(seed)
    g = ProbabilisticGraph()
    for u in range(n):
        g.add_node(u)
    for u in range(n):
        for v in range(u + 1, n):
            if gen.random() < density:
                g.add_edge(u, v, float(probs[gen.integers(len(probs))]))
    return g


def planted_clique_graph(
    n_cliques: int, size: int, seed: int,
    probs: tuple[float, ...] = DYADIC_PROBS,
    extra_density: float = 0.15,
) -> ProbabilisticGraph:
    """Seeded graph with planted, partially-overlapping cliques.

    Erdős–Rényi graphs at test sizes are triangle-poor and 4-clique
    starved, which makes them useless for exercising (3, 4)-nucleus
    support counting. This builder plants ``n_cliques`` cliques of
    ``size`` nodes each (consecutive cliques share one node, so their
    s-cliques interlock), then sprinkles extra edges with density
    ``extra_density``. All probabilities are drawn from ``probs`` —
    dyadic by default, so support products are exact and results are
    order-independent bit for bit.
    """
    gen = np.random.default_rng(seed)
    g = ProbabilisticGraph()
    stride = max(1, size - 1)  # consecutive cliques share one node
    n = stride * n_cliques + 1
    for u in range(n):
        g.add_node(u)
    for c in range(n_cliques):
        members = range(c * stride, c * stride + size)
        for u in members:
            for v in members:
                if u < v:
                    g.add_edge(u, v, float(probs[gen.integers(len(probs))]))
    for u in range(n):
        for v in range(u + 1, n):
            if not g.has_edge(u, v) and gen.random() < extra_density:
                g.add_edge(u, v, float(probs[gen.integers(len(probs))]))
    return g


#: Hypothesis strategy over planted-clique graphs: 4-clique-rich, all
#: probabilities dyadic. Shrinks toward a single small clique.
planted_clique_graphs = st.builds(
    planted_clique_graph,
    n_cliques=st.integers(min_value=1, max_value=3),
    size=st.integers(min_value=4, max_value=5),
    seed=st.integers(min_value=0, max_value=10 ** 6),
)


def _dyadic_bits(p: float) -> tuple[int, int]:
    """Smallest ``(b, k)`` with ``p == k / 2**b``; ``b`` capped at 16."""
    for b in range(17):
        scaled = p * (1 << b)
        if scaled == int(scaled):
            return b, int(scaled)
    raise ValueError(
        f"probability {p!r} is not a dyadic rational with <= 16 bits; "
        "exhaustive_sample_set needs exactly representable edge "
        "probabilities"
    )


def exhaustive_sample_set(
    graph: ProbabilisticGraph, max_rows: int = 65536
) -> WorldSampleSet:
    """The exact world distribution of ``graph`` as a ``WorldSampleSet``.

    Every edge probability must be a dyadic rational ``k / 2**b``. Row
    ``r``'s presence bits come from the digits of ``r`` in the mixed
    radix ``(2**b_1, ..., 2**b_m)``: edge ``j`` is present exactly when
    its digit is below ``k_j``. Over all ``prod(2**b_j)`` rows each
    possible world then appears with *exactly* its true frequency, so
    every ``alpha_hat`` the Monte-Carlo oracle computes against this
    set equals the exact ``alpha`` — no sampling error, no threshold
    ties (for any non-dyadic ``gamma``).
    """
    edges: list[tuple] = []
    radices: list[int] = []
    thresholds: list[int] = []
    for u, v, p in graph.edges_with_probabilities():
        b, k = _dyadic_bits(p)
        edges.append((u, v))
        radices.append(1 << b)
        thresholds.append(k)
    total = 1
    for radix in radices:
        total *= radix
    if total > max_rows:
        raise ValueError(
            f"exhaustive enumeration needs {total} rows "
            f"(> max_rows={max_rows}); use a smaller graph or coarser "
            "probabilities"
        )
    rows = np.arange(total, dtype=np.int64)
    presence = np.zeros((total, len(edges)), dtype=bool)
    divisor = 1
    for j, (radix, threshold) in enumerate(zip(radices, thresholds)):
        presence[:, j] = (rows // divisor) % radix < threshold
        divisor *= radix
    return WorldSampleSet(presence, edges)


def dfs_global_decomposition(
    graph: ProbabilisticGraph,
    gamma: float,
    samples: WorldSampleSet,
    max_states: int | None = None,
):
    """Exact global decomposition of ``graph`` via the depth-first GTD.

    Runs Algorithm 3's k-loop — candidates are the edges of local
    trussness >= k inside the previous level's answers, pruned to a
    structural k-truss — and searches every connected candidate
    component with :func:`~repro.core.global_decomp.top_down_search`
    against ``samples``. The result carries the default epsilon/delta
    and ``method="gtd"``, so it serialises to the same bytes as a
    correct ``global_truss_decomposition(..., method="gtd")`` run on
    the same sample set, whatever its worker count.
    """
    from repro.core.global_decomp import (
        GlobalTrussResult,
        _edge_subgraphs_of_components,
        _filter_maximal,
        _prune_to_structural_ktruss,
        top_down_search,
    )
    from repro.core.global_truss import GlobalTrussOracle
    from repro.core.local import local_truss_decomposition
    from repro.graphs.probabilistic import edge_key

    oracle = GlobalTrussOracle(samples)
    trussness = local_truss_decomposition(graph, gamma).trussness
    result = GlobalTrussResult(
        graph=graph, gamma=gamma, epsilon=0.1, delta=0.1,
        n_samples=samples.n_samples, method="gtd",
    )
    prev_union = {edge_key(u, v) for u, v in graph.edges()}
    k = 2
    while prev_union:
        local_edges = {e for e, tau in trussness.items() if tau >= k}
        candidates = _prune_to_structural_ktruss(
            graph, local_edges & prev_union, k
        )
        found = {}
        for piece in _edge_subgraphs_of_components(graph, candidates):
            for t in top_down_search(oracle, k, piece, gamma, max_states):
                found.setdefault(frozenset(t.edges()), t)
        maximal = _filter_maximal(found)
        if not maximal:
            break
        result.trusses[k] = list(maximal.values())
        prev_union = set().union(*maximal)
        k += 1
    return result
