"""Local (k, gamma)-truss decomposition (Algorithm 1 / Section 4).

The decomposition assigns every edge its *local trussness*
``tau(e)`` — the largest k such that e belongs to a local
(k, gamma)-truss (Definition 2) — by iterative peeling: repeatedly remove
the edge whose current truss level is smallest, then update the support
PMFs of the two co-triangle edges of every destroyed triangle.

Two update strategies are provided, matching the paper's Figure 5
comparison:

* ``method="dp"`` — the O(k_e) Eq. (8) deconvolution update
  (:meth:`~repro.core.support_prob.SupportProbability.remove_triangle`);
* ``method="baseline"`` — recompute the affected edge's PMF from scratch
  with the O(k_e^2) dynamic program after every removal.

Maximal local (k, gamma)-trusses are then the edge-connected clusters of
``{e : tau(e) >= k}`` (Theorem 2's connectivity post-processing).

Convention: edges with ``p(e) < gamma`` belong to no local
(k, gamma)-truss for any k >= 2 — Definition 2 with k = 2 demands
``Pr[sup(e) >= 0] = p(e) >= gamma`` — and receive trussness 1.
"""

from __future__ import annotations

from collections.abc import Hashable
from dataclasses import dataclass, field

from repro.exceptions import ParameterError
from repro.graphs.components import edge_connected_components
from repro.graphs.probabilistic import ProbabilisticGraph, edge_key
from repro.core.support_prob import SupportProbability

__all__ = ["LocalTrussResult", "local_truss_decomposition", "maximal_local_trusses"]

Node = Hashable
Edge = tuple[Node, Node]

_METHODS = ("dp", "baseline")


class _LevelBuckets:
    """Bucket queue over edges keyed by truss level (levels only decrease)."""

    def __init__(self, levels: dict[Edge, int]):
        self._level = dict(levels)
        top = max(levels.values(), default=1)
        self._buckets: list[set[Edge]] = [set() for _ in range(top + 1)]
        for e, lvl in levels.items():
            self._buckets[lvl].add(e)
        self._cursor = 0

    def __len__(self) -> int:
        return len(self._level)

    def pop_min(self) -> tuple[Edge, int]:
        """Remove and return an (edge, level) pair of minimum level."""
        while not self._buckets[self._cursor]:
            self._cursor += 1
        e = self._buckets[self._cursor].pop()
        del self._level[e]
        return e, self._cursor

    def contains(self, e: Edge) -> bool:
        return e in self._level

    def update(self, e: Edge, new_level: int) -> None:
        """Lower the level of ``e`` to ``new_level`` (no-op if not lower)."""
        old = self._level.get(e)
        if old is None or new_level >= old:
            return
        self._buckets[old].discard(e)
        self._level[e] = new_level
        self._buckets[new_level].add(e)
        if new_level < self._cursor:
            self._cursor = new_level


@dataclass
class LocalTrussResult:
    """Outcome of a local (k, gamma)-truss decomposition.

    Attributes
    ----------
    graph:
        The input probabilistic graph (unmodified).
    gamma:
        The probability threshold used.
    trussness:
        ``{edge: tau(e)}`` for every edge; ``tau(e) = 1`` marks edges in
        no local truss (k >= 2) at this gamma.
    method:
        ``"dp"`` or ``"baseline"``.
    """

    graph: ProbabilisticGraph
    gamma: float
    trussness: dict[Edge, int]
    method: str = "dp"
    _hierarchy_cache: dict[int, list[ProbabilisticGraph]] = field(
        default_factory=dict, repr=False
    )

    @property
    def k_max(self) -> int:
        """The largest k with a non-empty local (k, gamma)-truss (>= 2), or 0."""
        top = max(self.trussness.values(), default=0)
        return top if top >= 2 else 0

    def trussness_of(self, u: Node, v: Node) -> int:
        """Return ``tau((u, v))``."""
        return self.trussness[edge_key(u, v)]

    def truss_edges(self, k: int) -> list[Edge]:
        """Return all edges with trussness >= k."""
        if k < 2:
            raise ParameterError(f"k must be at least 2, got {k}")
        return [e for e, tau in self.trussness.items() if tau >= k]

    def maximal_trusses(self, k: int) -> list[ProbabilisticGraph]:
        """Return the maximal local (k, gamma)-trusses, as subgraphs.

        Each returned graph is a connected probabilistic subgraph in
        which every edge has ``Pr[sup >= k-2] * p(e) >= gamma`` w.r.t.
        that subgraph's own structure.
        """
        if k not in self._hierarchy_cache:
            edges = self.truss_edges(k)
            clusters = edge_connected_components(self.graph, edges)
            self._hierarchy_cache[k] = [
                self.graph.edge_subgraph(cluster) for cluster in clusters
            ]
        return list(self._hierarchy_cache[k])

    def hierarchy(self) -> dict[int, list[ProbabilisticGraph]]:
        """Return ``{k: maximal local (k, gamma)-trusses}`` for k = 2..k_max."""
        return {k: self.maximal_trusses(k) for k in range(2, self.k_max + 1)}


#: Peeled edges between two progress-hook notifications. Small enough
#: that a budget breach overshoots by a fraction of a second even on the
#: large synthetic networks, large enough to keep the hook off the
#: per-edge hot path.
_PROGRESS_INTERVAL = 64


def local_truss_decomposition(
    graph: ProbabilisticGraph,
    gamma: float,
    method: str = "dp",
    progress=None,
    executor=None,
) -> LocalTrussResult:
    """Run Algorithm 1: compute the local trussness of every edge.

    Parameters
    ----------
    graph:
        Input probabilistic graph (not modified).
    gamma:
        Threshold in [0, 1]; larger gamma prunes more aggressively.
    method:
        ``"dp"`` uses the Eq. (8) O(k_e) incremental update;
        ``"baseline"`` recomputes affected PMFs from scratch after each
        removal (the Figure 5 baseline).
    progress:
        Optional progress hook, called with a ``"local-peel"``
        :class:`~repro.runtime.progress.ProgressEvent` every
        ``_PROGRESS_INTERVAL`` peeled edges. A hook that raises aborts
        the peeling; the trussness assigned so far (which is final —
        peeling emits tau in nondecreasing order) is attached to the
        exception's ``partial`` attribute when it has one.
    executor:
        Optional :class:`~repro.parallel.ParallelExecutor`. The initial
        O(k_e^2) support DPs — the one embarrassingly parallel stage of
        Algorithm 1 — run as ``pmf-init`` chunks through it, with
        triangle factors in canonical node order so every worker count
        produces identical PMFs. ``None`` runs the chunks on a private
        inline executor. The peeling itself stays serial: it is an
        inherently sequential bucket-queue scan.

    Returns
    -------
    LocalTrussResult
        Per-edge trussness plus accessors for maximal trusses.
    """
    if not 0.0 <= gamma <= 1.0:
        raise ParameterError(f"gamma must be in [0, 1], got {gamma}")
    if method not in _METHODS:
        raise ParameterError(f"method must be one of {_METHODS}, got {method!r}")
    from repro.parallel.executor import executor_for

    work = graph.copy()
    pmfs: dict[Edge, SupportProbability] = {}
    levels: dict[Edge, int] = {}
    pairs = [(u, v) for u, v, _ in work.edges_with_probabilities()]
    with executor_for(executor, graph) as executor:
        # A few chunks per worker keeps stragglers short without
        # drowning the pool in dispatch overhead.
        size = max(1, -(-len(pairs) // (executor.pool_workers * 4)))
        payloads = [
            (gamma, pairs[i:i + size]) for i in range(0, len(pairs), size)
        ]
        results = executor.map("pmf-init", payloads, progress=progress)
        for i, chunk in enumerate(results):
            # Release each chunk once read: its PMFs are copied out, and
            # holding every chunk to the end would double peak memory.
            results[i] = None
            for u, v, qs, pmf, level in chunk:
                e = (u, v)
                pmfs[e] = SupportProbability.from_factors(qs, pmf)
                levels[e] = level

    queue = _LevelBuckets(levels)
    trussness: dict[Edge, int] = {}
    n_edges = len(levels)
    k = 1
    while queue:
        if progress is not None and trussness and (
                len(trussness) % _PROGRESS_INTERVAL == 0):
            from repro.runtime.progress import ProgressEvent

            try:
                progress(ProgressEvent(
                    "local-peel", step=len(trussness), total=n_edges,
                ))
            except Exception as err:
                # Salvage the final tau values assigned so far for
                # callers that report partial results.
                if getattr(err, "partial", None) is None:
                    try:
                        err.partial = dict(trussness)
                    except AttributeError:  # exceptions with __slots__
                        pass
                raise
        e, lvl = queue.pop_min()
        # Running max mirrors deterministic truss peeling: an edge whose
        # level cascaded below the current stage still met the stage-k
        # stability condition when stage k began, so tau(e) = k.
        k = max(k, lvl)
        trussness[e] = k
        u, v = e
        apexes = list(work.common_neighbors(u, v))
        if method == "dp":
            # Deconvolve the destroyed triangle out of each surviving
            # co-triangle edge's PMF (Eq. 8). For edge (u, w) the lost
            # triangle is completed through v; for (v, w), through u.
            for w in apexes:
                e_uw = edge_key(u, w)
                if queue.contains(e_uw):
                    q = work.probability(v, u) * work.probability(v, w)
                    pmfs[e_uw].remove_triangle(q)
                e_vw = edge_key(v, w)
                if queue.contains(e_vw):
                    q = work.probability(u, v) * work.probability(u, w)
                    pmfs[e_vw].remove_triangle(q)
        work.remove_edge(u, v)
        if method == "baseline":
            # Figure 5 baseline: recompute affected PMFs from scratch
            # with the full O(k_e^2) dynamic program.
            for w in apexes:
                for a, b in ((u, w), (v, w)):
                    other = edge_key(a, b)
                    if queue.contains(other):
                        pmfs[other] = SupportProbability.from_edge(work, a, b)
        # Refresh the truss levels of every affected edge; removing a
        # triangle only lowers sigma pointwise, so levels only decrease.
        for w in apexes:
            for a, b in ((u, w), (v, w)):
                other = edge_key(a, b)
                if queue.contains(other):
                    new_level = pmfs[other].level(gamma, work.probability(a, b))
                    queue.update(other, new_level)
    return LocalTrussResult(graph=graph, gamma=gamma, trussness=trussness,
                            method=method)


def maximal_local_trusses(
    graph: ProbabilisticGraph, k: int, gamma: float, method: str = "dp"
) -> list[ProbabilisticGraph]:
    """Convenience: decompose and return the maximal local (k, gamma)-trusses."""
    result = local_truss_decomposition(graph, gamma, method=method)
    return result.maximal_trusses(k)
