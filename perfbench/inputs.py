"""Seeded inputs and output checks shared by every workload.

Each graph is the registry's synthetic stand-in generated at one fixed
base seed, so its size and structure, and hence the work a cell does,
are the same for every workload seed. The workload seed then relabels
the nodes, shuffles the edge insertion order and roots the Monte-Carlo
sampling: a new seed gives new inputs and new outputs without turning a
cell into a different problem. (Regenerating the topology per seed
moves GTD's exponential state search by 30x between seeds.)
"""

from __future__ import annotations

import random
import time

#: Seed of the synthetic topologies; the workload seed never changes it.
BASE_SEED = 42


def relabelled(name: str, seed: int):
    """The ``name`` stand-in with seeded node labels and edge order."""
    from repro.datasets import load_dataset
    from repro.graphs.probabilistic import ProbabilisticGraph

    base = load_dataset(name, seed=BASE_SEED)
    rng = random.Random(f"{name}/{seed}")
    nodes = sorted(base.nodes())
    labels = list(range(len(nodes)))
    rng.shuffle(labels)
    mapping = dict(zip(nodes, labels))
    edges = [(mapping[u], mapping[v], p)
             for u, v, p in base.edges_with_probabilities()]
    rng.shuffle(edges)
    return ProbabilisticGraph(edges)


def load_graphs(names, seed: int) -> tuple[dict, float]:
    """``{name: graph}`` plus the seconds spent generating them."""
    start = time.perf_counter()
    graphs = {name: relabelled(name, seed) for name in names}
    return graphs, time.perf_counter() - start


def serialize(partial) -> bytes:
    from repro.runtime import (
        serialize_global_result,
        serialize_local_result,
        serialize_nucleus_result,
    )

    return {
        "global": serialize_global_result,
        "local": serialize_local_result,
        "nucleus": serialize_nucleus_result,
    }[partial.kind](partial.result)


def check_partial(partial) -> list[str]:
    """Structural checks of one harness result; returns failure reasons."""
    from repro.graphs.components import is_connected
    from repro.truss.decomposition import is_k_truss

    if partial.result is None:
        return ["no result"]
    problems = []
    if not partial.complete:
        problems.append("complete=False")
    if partial.degraded:
        problems.append(f"degraded: {partial.reason}")
    result = partial.result
    if partial.kind == "local":
        for k in range(2, result.k_max + 1):
            for truss in result.maximal_trusses(k):
                if not is_k_truss(truss, k):
                    problems.append(f"local level {k}: not a {k}-truss")
    elif partial.kind == "global":
        for k, trusses in sorted(result.trusses.items()):
            for truss in trusses:
                if truss.number_of_edges() == 0 or not is_k_truss(truss, k):
                    problems.append(f"global level {k}: not a {k}-truss")
                elif not is_connected(truss):
                    problems.append(f"global level {k}: disconnected truss")
    return problems


def check_containment(nucleus_partial, local_partial) -> list[str]:
    """(3,4)-nucleus edges lie in the local truss at equal k and gamma."""
    nucleus, local = nucleus_partial.result, local_partial.result
    problems = []
    for k in range(2, nucleus.k_max + 1):
        for u, v in nucleus.nucleus_edges(k):
            if local.trussness_of(u, v) < k:
                problems.append(f"nucleus edge {(u, v)} at k={k} has "
                                f"trussness {local.trussness_of(u, v)}")
                break
    return problems
