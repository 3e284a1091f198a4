"""Probabilistic (r, s)-nucleus decomposition (local semantics).

Generalises the local (k, gamma)-truss decomposition of
:mod:`repro.core.local` from edges-supported-by-triangles to
r-cliques-supported-by-s-cliques, following Esfahani et al.'s
probabilistic nucleus semantics. Restricted to ``s = r + 1``
(``(2, 3)`` and ``(3, 4)``), every s-clique through an r-clique ``R``
is ``R`` plus one *apex* vertex ``x``, and the edges it adds —
``{(x, y) : y in R}`` — are disjoint across apexes. Conditioned on
``R`` existing, the supports are therefore independent Bernoulli
trials with success probability

    ``q_x = prod_{y in R} p(x, y)``

and the *entire* Eq. 5–8 support-probability machinery of
:class:`~repro.core.support_prob.SupportProbability` — the O(k^2)
dynamic program, the tail scan, and the Eq. 8 O(k) deconvolution
update — lifts unchanged: the factors are just ``q_x`` products of r
edge probabilities instead of two.

The *nucleus score* ``nu(R)`` is the largest k such that ``R`` belongs
to a sub-collection ``C`` of r-cliques where every member satisfies

    ``Pr[R exists] * Pr[sup_C(R) >= k - 2 | R exists] >= gamma``

with ``sup_C(R)`` counting only s-cliques whose r-subcliques all lie in
``C``. For ``(r, s) = (2, 3)`` this is *definitionally* the local
(k, gamma)-truss decomposition: ``q_x`` reduces to the co-triangle
probability of Eq. 5 and ``Pr[R exists]`` to ``p(e)``, so the score
dict equals :func:`~repro.core.local.local_truss_decomposition`'s
``trussness`` — the built-in differential oracle the test battery
leans on. The truss-style numbering ``k = support threshold + 2`` is
kept for every (r, s).

All factor orderings here are canonical (sorted by a cross-type node
key), so serial runs and every executor worker count produce
byte-identical scores.
"""

from __future__ import annotations

from collections.abc import Hashable
from dataclasses import dataclass, field
from itertools import combinations

from repro.core.local import _LevelBuckets
from repro.core.support_prob import (
    SupportProbability,
    support_level,
    support_pmf,
)
from repro.exceptions import ParameterError
from repro.graphs.probabilistic import ProbabilisticGraph
from repro.truss.nucleus import (
    apex_candidates,
    clique_key,
    enumerate_r_cliques,
    validate_rs,
)

__all__ = [
    "NucleusResult",
    "nucleus_decomposition",
    "clique_probability",
    "apex_factor",
    "nucleus_cell",
]

Node = Hashable
Clique = tuple

_METHODS = ("dp", "baseline")

#: Peeled r-cliques between progress-hook notifications (same cadence
#: as the local-truss peel).
_PROGRESS_INTERVAL = 64


def _node_sort_key(w):
    """Canonical cross-type node ordering; mirrors
    :func:`repro.parallel.work.node_sort_key` (duplicated here because
    ``repro.parallel`` imports from ``repro.core``, not vice versa)."""
    return (type(w).__name__, str(w))


def clique_probability(graph: ProbabilisticGraph, cell: Clique) -> float:
    """``Pr[R exists]``: the product of R's own edge probabilities.

    Factors are folded in canonical pair order (the clique tuple is
    already canonical), so the result is byte-stable.
    """
    prob = 1.0
    for a, b in combinations(cell, 2):
        prob *= graph.probability(a, b)
    return prob


def apex_factor(graph: ProbabilisticGraph, cell: Clique, x: Node) -> float:
    """``q_x = prod_{y in R} p(x, y)`` — the probability that the
    s-clique ``R + {x}`` exists given that ``R`` does.

    For ``r = 2`` this reproduces
    :func:`~repro.core.support_prob.triangle_probabilities` bit for bit
    (same operand order; multiplication by the 1.0 seed is exact).
    """
    q = 1.0
    for y in cell:
        q *= graph.probability(x, y)
    return q


def nucleus_cell(
    graph: ProbabilisticGraph, gamma: float, cell: Clique
) -> tuple[list[float], list[float], int]:
    """Initial support state of one r-clique: ``(qs, pmf, level)``.

    The single float path for cell initialisation: the ``nucleus-cell``
    task calls it for every worker count, inline or pooled.
    """
    prob = clique_probability(graph, cell)
    apexes = sorted(apex_candidates(graph, cell), key=_node_sort_key)
    qs = [apex_factor(graph, cell, x) for x in apexes]
    pmf = support_pmf(qs)
    return qs, pmf, support_level(pmf, gamma, prob)


@dataclass
class NucleusResult:
    """Outcome of a probabilistic (r, s)-nucleus decomposition.

    Attributes
    ----------
    graph:
        The input probabilistic graph (unmodified).
    r, s:
        The nucleus family; only ``s = r + 1`` is supported.
    gamma:
        The probability threshold used.
    scores:
        ``{r-clique: nu}`` for every r-clique of the graph, with the
        truss-style offset (``nu >= 2`` means the clique survives the
        trivial threshold; ``nu = 1`` marks cliques whose own existence
        probability is already below gamma). For ``(2, 3)`` the keys
        are :func:`~repro.graphs.probabilistic.edge_key` tuples and the
        dict equals the local trussness map.
    method:
        ``"dp"`` or ``"baseline"``.
    """

    graph: ProbabilisticGraph
    r: int
    s: int
    gamma: float
    scores: dict[Clique, int]
    method: str = "dp"
    _edges_cache: dict[int, list[tuple]] = field(default_factory=dict,
                                                 repr=False)

    @property
    def k_max(self) -> int:
        """The largest k with a non-empty (k, gamma)-nucleus (>= 2), or 0."""
        top = max(self.scores.values(), default=0)
        return top if top >= 2 else 0

    def score_of(self, *nodes: Node) -> int:
        """Return ``nu`` of the r-clique on ``nodes`` (any order)."""
        if len(nodes) != self.r:
            raise ParameterError(
                f"expected {self.r} nodes for an r={self.r} clique, "
                f"got {len(nodes)}"
            )
        return self.scores[clique_key(nodes)]

    def nucleus_cliques(self, k: int) -> list[Clique]:
        """All r-cliques with score >= k."""
        if k < 2:
            raise ParameterError(f"k must be at least 2, got {k}")
        return [cell for cell, nu in self.scores.items() if nu >= k]

    def nucleus_edges(self, k: int) -> list[tuple]:
        """The distinct edges covered by the k-nucleus r-cliques.

        For ``r = 2`` these are the surviving edges themselves; for
        ``r = 3`` the union of the triangles' edges — the shape the
        containment-monotonicity property ((3,4) edges are a subset of
        (2,3) edges at matching thresholds) is stated over.
        """
        if k not in self._edges_cache:
            edges = {pair for cell in self.nucleus_cliques(k)
                     for pair in combinations(cell, 2)}
            self._edges_cache[k] = sorted(edges, key=_edge_order)
        return list(self._edges_cache[k])


def _edge_order(e: tuple) -> tuple:
    return tuple(_node_sort_key(w) for w in e)


def nucleus_decomposition(
    graph: ProbabilisticGraph,
    r: int,
    s: int,
    gamma: float,
    method: str = "dp",
    progress=None,
    executor=None,
) -> NucleusResult:
    """Compute the probabilistic (r, s)-nucleus score of every r-clique.

    Global peeling: repeatedly retire the r-clique whose current level
    is smallest; every s-clique through it stops supporting its other
    r-subcliques, whose PMFs shed the corresponding Bernoulli factor
    (Eq. 8 deconvolution for ``method="dp"``, full O(k^2) recompute for
    ``method="baseline"``).

    Parameters
    ----------
    graph:
        Input probabilistic graph (not modified).
    r, s:
        The nucleus family: ``(2, 3)`` (edges / triangles — identical
        to :func:`~repro.core.local.local_truss_decomposition`) or
        ``(3, 4)`` (triangles / 4-cliques).
    gamma:
        Threshold in [0, 1].
    method:
        ``"dp"`` or ``"baseline"`` (differential pair, as in Figure 5).
    progress:
        Optional progress hook, called with a ``"nucleus-peel"``
        :class:`~repro.runtime.progress.ProgressEvent` every
        ``_PROGRESS_INTERVAL`` peeled cliques. A raising hook aborts
        the peel; scores assigned so far (final — emitted in
        nondecreasing order) are attached as ``err.partial``.
    executor:
        Optional :class:`~repro.parallel.ParallelExecutor`; the initial
        support DPs run in chunks via its ``nucleus-cell`` task (``None``
        runs them on a private inline executor). Scores are
        byte-identical for every worker count: all factor orderings are
        canonical.

    Returns
    -------
    NucleusResult
    """
    validate_rs(r, s)
    if not 0.0 <= gamma <= 1.0:
        raise ParameterError(f"gamma must be in [0, 1], got {gamma}")
    if method not in _METHODS:
        raise ParameterError(f"method must be one of {_METHODS}, got {method!r}")
    from repro.parallel.executor import executor_for

    cells = enumerate_r_cliques(graph, r)
    apexes: dict[Clique, list[Node]] = {
        cell: sorted(apex_candidates(graph, cell), key=_node_sort_key)
        for cell in cells
    }
    probs: dict[Clique, float] = {
        cell: clique_probability(graph, cell) for cell in cells
    }

    pmfs: dict[Clique, SupportProbability] = {}
    levels: dict[Clique, int] = {}
    with executor_for(executor, graph) as executor:
        # A few chunks per worker keeps stragglers short without
        # drowning the pool in dispatch overhead (same sizing rule as
        # the pmf-init fan-out).
        size = max(1, -(-len(cells) // (executor.pool_workers * 4)))
        payloads = [
            (r, gamma, cells[i:i + size]) for i in range(0, len(cells), size)
        ]
        results = executor.map("nucleus-cell", payloads, progress=progress)
        for i, chunk in enumerate(results):
            # Release each chunk once read (see the pmf-init loop).
            results[i] = None
            for cell, qs, pmf, level in chunk:
                cell = tuple(cell)
                pmfs[cell] = SupportProbability.from_factors(qs, pmf)
                levels[cell] = level

    queue = _LevelBuckets(levels)
    scores: dict[Clique, int] = {}
    n_cells = len(cells)
    k = 1
    while queue:
        if progress is not None and scores and (
                len(scores) % _PROGRESS_INTERVAL == 0):
            from repro.runtime.progress import ProgressEvent

            try:
                progress(ProgressEvent(
                    "nucleus-peel", step=len(scores), total=n_cells,
                ))
            except Exception as err:
                # Salvage the final scores assigned so far for callers
                # that report partial results.
                if getattr(err, "partial", None) is None:
                    try:
                        err.partial = dict(scores)
                    except AttributeError:  # exceptions with __slots__
                        pass
                raise
        cell, lvl = queue.pop_min()
        # Running max mirrors the truss peel: a clique whose level
        # cascaded below the current stage still met the stage-k
        # stability condition when stage k began, so nu = k.
        k = max(k, lvl)
        scores[cell] = k
        affected: list[Clique] = []
        for x in apexes[cell]:
            # The s-clique S = cell + {x}. Its other r-subcliques each
            # drop one vertex y of `cell` and gain the apex; S supported
            # them only while *all* of them (and `cell`) were alive.
            siblings = [
                (clique_key(cell[:i] + cell[i + 1:] + (x,)), y)
                for i, y in enumerate(cell)
            ]
            if not all(queue.contains(o) for o, _ in siblings):
                continue
            for other, y in siblings:
                if method == "dp":
                    # Eq. 8 deconvolution: S's factor for `other` is the
                    # product of the edges from its lost apex y into
                    # `other` — the exact expression its initialisation
                    # folded in, so the factor matches bit for bit.
                    pmfs[other].remove_triangle(apex_factor(graph, other, y))
                affected.append(other)
        if method == "baseline":
            # Recompute affected PMFs from scratch with the full
            # O(k^2) dynamic program over the still-alive structure.
            for other in affected:
                qs = [
                    apex_factor(graph, other, x)
                    for x in apexes[other]
                    if _supports(queue, other, x)
                ]
                pmfs[other] = SupportProbability.from_factors(
                    qs, support_pmf(qs))
        # Refresh levels; shedding a support only lowers the tail
        # pointwise, so levels only decrease.
        for other in affected:
            queue.update(other, pmfs[other].level(gamma, probs[other]))
    return NucleusResult(graph=graph, r=r, s=s, gamma=gamma, scores=scores,
                         method=method)


def _supports(queue: _LevelBuckets, cell: Clique, x: Node) -> bool:
    """True while the s-clique ``cell + {x}`` still counts for ``cell``:
    every other r-subclique must be alive (un-peeled)."""
    return all(
        queue.contains(clique_key(cell[:i] + cell[i + 1:] + (x,)))
        for i in range(len(cell))
    )
