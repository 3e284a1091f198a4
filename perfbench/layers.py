"""The per-layer metric vocabulary and its computation from a tracer.

Every traced run prints every per-layer metric that ``BENCHMARK.json``
lists; a layer a workload does not reach reads 0, which is itself the
prediction for that workload (see ``predictions.json``).
"""

from __future__ import annotations

import json

from common import ROOT

#: name -> unit of every per-layer metric, as ``BENCHMARK.json`` lists
#: them.
PER_LAYER: dict[str, str] = {
    metric["name"]: metric["unit"]
    for metric in json.loads((ROOT / "BENCHMARK.json").read_text())[
        "per_layer"]
}


def _suffixes(prefix: str) -> tuple[str, ...]:
    return tuple(name[len(prefix):] for name in PER_LAYER
                 if name.startswith(prefix))


TASK_KINDS = _suffixes("parallel.payloads.")
ENDPOINTS = _suffixes("service.client_p50_ms.")

#: Work counts that must repeat exactly between two traced runs of one
#: seed (the benchmark compares two traced passes and counts drifts).
DETERMINISTIC = (
    "core.global_truss.oracle_calls",
    "core.support_prob.dp_builds",
    "core.support_prob.eq8_updates",
    "core.global_decomp.gbu_seeds",
    "core.global_decomp.gtd_states",
    "core.global_decomp.trusses",
    "runtime.checkpoint.writes",
    "runtime.checkpoint.bytes",
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def library_layers(tracer, workers: int = 0,
                   worker_cpu_s: float = 0.0) -> dict[str, float]:
    """Per-layer values of the library layers from one traced scope."""
    c, busy, own = tracer.counts, tracer.busy, tracer.self_s
    kernel_busy = (busy["core.kernels.dedup"] + busy["core.kernels.connected"]
                   + busy["core.kernels.truss"])
    map_busy = busy["parallel.map"]
    values = {
        "graphs.sampling.calls": c["graphs.sampling"],
        "graphs.sampling.busy_s": busy["graphs.sampling"],
        "graphs.sampling.worlds": c["graphs.sampling.worlds"],
        "core.support_prob.dp_builds": c["core.support_prob.dp"],
        "core.support_prob.eq8_updates": c["core.support_prob.eq8"],
        "core.support_prob.busy_s": (busy["core.support_prob.dp"]
                                     + busy["core.support_prob.eq8"]),
        "core.local.busy_s": busy["core.local"],
        "core.local.self_s": own["core.local"],
        "core.local.edges": c["core.local.edges"],
        "core.nucleus.busy_s": busy["core.nucleus"],
        "core.nucleus.self_s": own["core.nucleus"],
        "core.nucleus.cliques": c["core.nucleus.cliques"],
        "core.global_truss.oracle_calls": c["core.global_truss"],
        "core.global_truss.accepted": c["core.global_truss.accepted"],
        "core.global_truss.busy_s": busy["core.global_truss"],
        "core.global_truss.accept_ratio": _ratio(
            c["core.global_truss.accepted"], c["core.global_truss"]),
        "core.kernels.classify_calls": c["core.kernels.dedup"],
        "core.kernels.classify_busy_s": kernel_busy,
        "core.kernels.dedup_busy_s": busy["core.kernels.dedup"],
        "core.kernels.connected_busy_s": busy["core.kernels.connected"],
        "core.kernels.patterns": c["core.kernels.patterns"],
        "core.kernels.rows": c["core.kernels.rows"],
        "core.kernels.patterns_per_row": _ratio(
            c["core.kernels.patterns"], c["core.kernels.rows"]),
        "core.global_decomp.gbu_seeds": c["core.global_decomp.gbu_seeds"],
        "core.global_decomp.gtd_states": c["core.global_decomp.gtd_states"],
        "core.global_decomp.levels": c["core.global_decomp.levels"],
        "core.global_decomp.trusses": c["core.global_decomp.trusses"],
        "core.global_decomp.self_s": own["core.global_decomp"],
        "parallel.start_s": busy["parallel.start"],
        "parallel.maps": c["parallel.map"],
        "parallel.payloads": c["parallel.payloads"],
        "parallel.payload_bytes": c["parallel.payload_bytes"],
        "parallel.map_busy_s": map_busy,
        "parallel.worker_cpu_s": worker_cpu_s,
        "parallel.workers": workers,
        "parallel.retries": c["parallel.retries"],
        "parallel.utilisation": _ratio(worker_cpu_s, map_busy * workers),
        "runtime.checkpoint.writes": c["runtime.checkpoint.writes"],
        "runtime.checkpoint.bytes": c["runtime.checkpoint.bytes"],
        "runtime.checkpoint.busy_s": busy["runtime.checkpoint"],
        "runtime.harness.self_s": own["runtime.harness"],
    }
    for kind in TASK_KINDS:
        values[f"parallel.payloads.{kind}"] = c[f"parallel.payloads.{kind}"]
    return values


def count_drift(first: dict, second: dict) -> list[str]:
    """Names of deterministic counts that differ between two passes."""
    return [name for name in DETERMINISTIC
            if first.get(name, 0) != second.get(name, 0)]


def complete(values: dict) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, 0 where the run did not reach the layer."""
    return {name: (float(values.get(name, 0.0)), unit)
            for name, unit in PER_LAYER.items()}
