"""Exporting probabilistic graphs and truss hierarchies for visualization.

The paper lists visualization of complex networks among truss
applications ("k-truss is a useful tool for visualization [37]"). This
module renders decomposition results in formats external tools consume:

* :func:`to_dot` — Graphviz DOT with probability-weighted edges and
  truss levels encoded as colours/penwidths;
* :func:`hierarchy_to_dict` / :func:`hierarchy_to_json` — a
  JSON-serialisable summary of a local decomposition (per-level maximal
  trusses with their quality metrics), ready for D3-style frontends;
* :func:`write_gexf` — GEXF via networkx, with probability and
  trussness edge attributes.
"""

from __future__ import annotations

import json
from collections.abc import Hashable
from typing import Any

from repro.graphs.probabilistic import (
    ProbabilisticGraph,
    edge_key,
    import_networkx,
)
from repro.core.local import LocalTrussResult
from repro.core.metrics import (
    probabilistic_clustering_coefficient,
    probabilistic_density,
)

__all__ = ["to_dot", "hierarchy_to_dict", "hierarchy_to_json", "write_gexf"]

Node = Hashable
Edge = tuple[Node, Node]

#: Colour ramp for truss levels (k = 2 coolest, high k hottest).
_LEVEL_COLOURS = (
    "#bdd7e7", "#6baed6", "#3182bd", "#08519c",
    "#a63603", "#e6550d", "#fd8d3c",
)


def _level_colour(k: int) -> str:
    return _LEVEL_COLOURS[min(max(k - 2, 0), len(_LEVEL_COLOURS) - 1)]


def _quote(label: Any) -> str:
    text = str(label).replace('"', '\\"')
    return f'"{text}"'


def to_dot(
    graph: ProbabilisticGraph,
    trussness: dict[Edge, int] | None = None,
    name: str = "probabilistic_graph",
) -> str:
    """Render ``graph`` as Graphviz DOT.

    Edge probability becomes the label and the pen width; when a
    ``trussness`` map is given, edges are coloured by level.
    """
    lines = [f"graph {_quote(name)} {{"]
    lines.append("  node [shape=circle, fontsize=10];")
    for u in sorted(graph.nodes(), key=str):
        lines.append(f"  {_quote(u)};")
    for u, v, p in sorted(
        graph.edges_with_probabilities(), key=lambda t: (str(t[0]), str(t[1]))
    ):
        attrs = [f'label="{p:.2f}"', f"penwidth={0.5 + 2.5 * p:.2f}"]
        if trussness is not None:
            k = trussness.get(edge_key(u, v))
            if k is not None:
                attrs.append(f'color="{_level_colour(k)}"')
                attrs.append(f'tooltip="trussness {k}"')
        lines.append(f"  {_quote(u)} -- {_quote(v)} [{', '.join(attrs)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def hierarchy_to_dict(result: LocalTrussResult) -> dict[str, Any]:
    """Summarise a local decomposition as a JSON-serialisable dict.

    One entry per truss level, each listing its maximal trusses with
    node lists and quality metrics (density, PCC).
    """
    levels = []
    for k in range(2, result.k_max + 1):
        trusses = []
        for truss in result.maximal_trusses(k):
            trusses.append({
                "nodes": sorted(map(str, truss.nodes())),
                "n_nodes": truss.number_of_nodes(),
                "n_edges": truss.number_of_edges(),
                "density": probabilistic_density(truss),
                "pcc": probabilistic_clustering_coefficient(truss),
            })
        levels.append({"k": k, "n_trusses": len(trusses), "trusses": trusses})
    return {
        "gamma": result.gamma,
        "k_max": result.k_max,
        "n_edges": len(result.trussness),
        "levels": levels,
    }


def hierarchy_to_json(result: LocalTrussResult, path_or_file=None,
                      indent: int = 2) -> str:
    """Serialise :func:`hierarchy_to_dict`; optionally write to a file."""
    text = json.dumps(hierarchy_to_dict(result), indent=indent)
    if path_or_file is not None:
        if hasattr(path_or_file, "write"):
            path_or_file.write(text)
        else:
            with open(path_or_file, "w", encoding="utf-8") as handle:
                handle.write(text)
    return text


def write_gexf(
    graph: ProbabilisticGraph,
    path,
    trussness: dict[Edge, int] | None = None,
) -> None:
    """Write a GEXF file (via networkx) with probability/trussness attrs."""
    nx_graph = graph.to_networkx()
    if trussness is not None:
        for u, v in nx_graph.edges:
            k = trussness.get(edge_key(u, v))
            if k is not None:
                nx_graph[u][v]["trussness"] = k
    import_networkx().write_gexf(nx_graph, path)
