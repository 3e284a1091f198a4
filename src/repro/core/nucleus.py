"""Probabilistic (r, s)-nucleus decomposition, and the one peel engine
behind it and the local (k, gamma)-truss decomposition.

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
probability of Eq. 5 and ``Pr[R exists]`` to ``p(e)``. Algorithm 1
therefore runs as the ``r = 2`` case of the peel engine here
(:func:`_peel`), which :func:`nucleus_decomposition` and
:func:`~repro.core.local.local_truss_decomposition` both wrap; the
two agree by construction, so neither is an independent check of the
other. The independent references are the work-list fixpoint
:func:`~repro.core.local_iterative.local_truss_decomposition_iterative`,
the deterministic
:func:`~repro.truss.nucleus.structural_nucleus_decomposition`, and the
test battery's brute-force fixpoint oracle. The truss-style numbering
``k = support threshold + 2`` is kept for every (r, s).

All factor orderings here are canonical (sorted by a cross-type node
key), so serial runs and every executor worker count produce
byte-identical scores.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable
from dataclasses import dataclass, field
from itertools import combinations

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

#: Peeled r-cliques between two progress-hook notifications. Small
#: enough that a budget breach overshoots by a fraction of a second even
#: on the large synthetic networks, large enough to keep the hook off
#: the per-clique hot path.
_PROGRESS_INTERVAL = 64


def node_sort_key(w):
    """Canonical node ordering usable across mixed node types."""
    return (type(w).__name__, str(w))


def node_rank(graph: ProbabilisticGraph) -> dict:
    """Every node's position in :func:`node_sort_key` order; sorting by
    it gives the canonical order without rebuilding string keys."""
    ordered = sorted(graph.nodes(), key=node_sort_key)
    return {w: i for i, w in enumerate(ordered)}


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
    graph: ProbabilisticGraph, gamma: float, cell: Clique,
    rank: dict | None = None,
) -> tuple[list, list[float], list[float], float, int]:
    """Initial support state of one r-clique:
    ``(apexes, qs, pmf, prob, level)``.

    ``apexes`` are the cell's s-clique apexes in canonical order
    (``rank``, defaulting to :func:`node_rank` of ``graph``), ``qs``
    their factors, ``pmf`` the support DP over them, and ``prob`` the
    cell's own existence probability. The single float path for cell
    initialisation: the ``pmf-init`` task calls it for both public
    decompositions and every worker count, inline or pooled.
    """
    if rank is None:
        rank = node_rank(graph)
    apexes = sorted(apex_candidates(graph, cell), key=rank.__getitem__)
    qs = [apex_factor(graph, cell, x) for x in apexes]
    pmf = support_pmf(qs)
    prob = clique_probability(graph, cell)
    return apexes, qs, pmf, prob, support_level(pmf, gamma, prob)


class _LevelBuckets:
    """Bucket queue over cells keyed by level (levels only decrease).

    Takes ownership of ``levels``: the queue pops and lowers its
    entries in place.
    """

    def __init__(self, levels: dict[Clique, int]):
        self._level = levels
        top = max(levels.values(), default=1)
        self._buckets: list[set[Clique]] = [set() for _ in range(top + 1)]
        for cell, lvl in levels.items():
            self._buckets[lvl].add(cell)
        self._cursor = 0

    def __len__(self) -> int:
        return len(self._level)

    def pop_min(self) -> tuple[Clique, int]:
        """Remove and return a (cell, level) pair of minimum level."""
        while not self._buckets[self._cursor]:
            self._cursor += 1
        cell = self._buckets[self._cursor].pop()
        del self._level[cell]
        return cell, self._cursor

    def update(self, cell: Clique, new_level: int) -> None:
        """Lower the level of queued ``cell`` to ``new_level`` (no-op if
        not lower)."""
        old = self._level[cell]
        if new_level >= old:
            return
        self._buckets[old].discard(cell)
        self._level[cell] = new_level
        self._buckets[new_level].add(cell)
        if new_level < self._cursor:
            self._cursor = new_level


def _peel(
    graph: ProbabilisticGraph,
    r: int,
    gamma: float,
    method: str,
    progress,
    executor,
    *,
    nucleus: bool,
    peel_event: Callable,
) -> dict[Clique, int]:
    """Score every r-clique by global peeling; ``{cell: score}`` in peel order.

    Repeatedly retire the r-clique whose current level is smallest;
    every s-clique through it stops supporting its other r-subcliques,
    whose PMFs shed the corresponding Bernoulli factor (Eq. 8
    deconvolution for ``method="dp"``, full O(k^2) recompute for
    ``method="baseline"``).

    The caller owns the phase vocabulary: in pooled runs the initial DP
    chunks count under ``nucleus-init`` when ``nucleus`` is true and
    ``local-init`` otherwise, and every ``_PROGRESS_INTERVAL`` retired
    cells ``progress`` receives ``peel_event(step, total)``. A raising
    hook aborts the peel; the scores assigned so far (final — peeling
    emits them in nondecreasing order) are attached as
    ``err.partial``.
    """
    if not 0.0 <= gamma <= 1.0:
        raise ParameterError(f"gamma must be in [0, 1], got {gamma}")
    if method not in _METHODS:
        raise ParameterError(f"method must be one of {_METHODS}, got {method!r}")
    from repro.parallel.executor import executor_for

    cells = enumerate_r_cliques(graph, r)
    # live[R] maps every apex x whose s-clique R + {x} is still intact
    # to the factor q_x R's PMF holds for it, in canonical apex order.
    live: dict[Clique, dict[Node, float]] = {}
    pmfs: dict[Clique, SupportProbability] = {}
    probs: dict[Clique, float] = {}
    levels: dict[Clique, int] = {}
    with executor_for(executor, graph) as executor:
        # A few chunks per worker keeps stragglers short without
        # drowning the pool in dispatch overhead.
        size = max(1, -(-len(cells) // (executor.pool_workers * 4)))
        chunks = [cells[i:i + size] for i in range(0, len(cells), size)]
        results = executor.map(
            "pmf-init", [(gamma, chunk, nucleus) for chunk in chunks],
            progress=progress,
        )
        for i, chunk in enumerate(chunks):
            # Release each chunk once read: its PMFs are copied out, and
            # holding every chunk to the end would double peak memory.
            states, results[i] = results[i], None
            for cell, (apexes, qs, pmf, prob, level) in zip(chunk, states):
                live[cell] = dict(zip(apexes, qs))
                pmfs[cell] = SupportProbability.from_factors(qs, pmf)
                probs[cell] = prob
                levels[cell] = level

    queue = _LevelBuckets(levels)
    scores: dict[Clique, int] = {}
    n_cells = len(cells)
    k = 1
    while queue:
        if progress is not None and scores and (
                len(scores) % _PROGRESS_INTERVAL == 0):
            try:
                progress(peel_event(len(scores), n_cells))
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
        # Running max mirrors deterministic truss peeling: a cell whose
        # level cascaded below the current stage still met the stage-k
        # stability condition when stage k began, so nu = k.
        k = max(k, lvl)
        scores[cell] = k
        rests = [(cell[:i] + cell[i + 1:], y) for i, y in enumerate(cell)]
        affected: list[Clique] = []
        for x in live.pop(cell):
            # The s-clique S = cell + {x} dies with cell. Each other
            # r-subclique of S drops one vertex y of cell and gains the
            # apex x; for it, S was the s-clique through apex y, and its
            # map holds the exact factor its PMF folded in.
            for rest, y in rests:
                other = clique_key(rest + (x,))
                q = live[other].pop(y)
                if method == "dp":
                    pmfs[other].remove_triangle(q)
                affected.append(other)
        if method == "baseline":
            # Recompute affected PMFs from scratch with the full
            # O(k^2) dynamic program over the still-intact s-cliques.
            for other in affected:
                qs = list(live[other].values())
                pmfs[other] = SupportProbability.from_factors(
                    qs, support_pmf(qs))
        # Refresh levels; shedding a support only lowers the tail
        # pointwise, so levels only decrease.
        for other in affected:
            queue.update(other, pmfs[other].level(gamma, probs[other]))
    return scores


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
    _edges_cache: dict[int, list[tuple]] = field(
        default_factory=dict, repr=False, compare=False
    )

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
    return tuple(node_sort_key(w) for w in e)


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
        The nucleus family: ``(2, 3)`` (edges / triangles — the same
        peel as :func:`~repro.core.local.local_truss_decomposition`) or
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
        support DPs run in chunks via its ``pmf-init`` task, counted
        under ``nucleus-init`` (``None`` runs them on a private inline
        executor). Scores are byte-identical for every worker count:
        all factor orderings are canonical.

    Returns
    -------
    NucleusResult
    """
    validate_rs(r, s)
    from repro.runtime.progress import ProgressEvent

    scores = _peel(
        graph, r, gamma, method, progress, executor, nucleus=True,
        peel_event=lambda step, total: ProgressEvent(
            "nucleus-peel", step=step, total=total),
    )
    return NucleusResult(graph=graph, r=r, s=s, gamma=gamma, scores=scores,
                         method=method)
