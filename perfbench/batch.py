"""The batch workloads: ``peel``, ``global`` and ``global-pool``.

One *pass* runs every cell of the workload once through the public
harness entry points. The untraced run repeats passes until the
measuring time is used up and reports per-cell medians over passes;
each pass's outputs are checked, outside the timed calls, as soon as
the pass ends.
"""

from __future__ import annotations

import gc
import time

from common import (
    cpu_times,
    digest,
    log,
    median,
    out_dir,
    peak_rss_mib,
    warn,
)
from inputs import check_containment, check_partial, load_graphs, serialize
import hostspeed
import layers

POOL_WORKERS = 2

#: (kind, dataset, gamma, method) per cell, in pass order.
CELLS = {
    "peel": [
        ("local", "orkut", 0.5, "dp"),
        ("local", "livejournal", 0.5, "dp"),
        ("nucleus", "wikivote", 0.5, "dp"),
        ("nucleus", "orkut", 0.5, "dp"),
    ],
    "global": [
        ("global", "dblp", 0.5, "gbu"),
        ("global", "wikivote", 0.8, "gbu"),
        ("global", "fruitfly", 0.7, "gtd"),
    ],
}
CELLS["global-pool"] = CELLS["global"]


def datasets_of(workload: str) -> list[str]:
    return sorted({cell[1] for cell in CELLS[workload]})


def cell_name(cell) -> str:
    kind, dataset, gamma, method = cell
    return f"{kind}/{method}/{dataset}/{gamma}"


class Runner:
    """Runs the cells of one workload at one seed."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.workers = POOL_WORKERS if workload == "global-pool" else None
        self.graphs, self.load_s = load_graphs(datasets_of(workload), seed)

    def call(self, cell, workers, progress=None):
        from repro.runtime import run_global, run_local, run_nucleus

        kind, dataset, gamma, method = cell
        graph = self.graphs[dataset]
        if kind == "local":
            return run_local(graph, gamma, method=method, workers=workers,
                             progress=progress)
        if kind == "nucleus":
            return run_nucleus(graph, 3, 4, gamma, method=method,
                               workers=workers, progress=progress)
        return run_global(graph, gamma, method=method, seed=self.seed,
                          workers=workers, progress=progress)

    def warm_up(self) -> None:
        """Pay lazy imports and first-call costs outside the timing."""
        from repro.datasets import load_dataset
        from repro.runtime import run_global, run_local, run_nucleus

        hostspeed.measure()
        small = load_dataset("fruitfly", seed=0)
        run_local(small, 0.5)
        run_nucleus(small, 3, 4, 0.5)
        run_global(small, 0.9, method="gbu", seed=0, workers=self.workers)
        run_global(small, 0.9, method="gtd", seed=0, workers=self.workers)

    def run_pass(self, progress=None) -> tuple[list, list, list, float]:
        """(results, per-cell wall seconds, per-cell CPU seconds incl.
        reaped children, pass wall seconds unscaled). Per-cell times are
        scaled to the host's reference speed (see ``hostspeed.py``)."""
        results, walls, cpus = [], [], []
        raw_wall = 0.0
        for cell in CELLS[self.workload]:
            before = hostspeed.measure()
            own0, kids0 = cpu_times()
            start = time.perf_counter()
            try:
                result = self.call(cell, self.workers, progress)
            except Exception as err:  # a raising cell is a failed cell
                warn(f"{cell_name(cell)} raised {type(err).__name__}: {err}")
                result = err
            wall = time.perf_counter() - start
            own1, kids1 = cpu_times()
            scale = hostspeed.factor(before, hostspeed.measure())
            raw_wall += wall
            walls.append(wall * scale)
            cpus.append(((own1 - own0) + (kids1 - kids0)) * scale)
            results.append(result)
        return results, walls, cpus, raw_wall


class Checker:
    """Checks each pass's outputs as soon as the pass ends (outside every
    timed region) and keeps only their digests, so that earlier passes
    leave no results alive to slow or inflate later ones."""

    def __init__(self, runner: Runner):
        self.runner = runner
        self.cells = CELLS[runner.workload]
        self.first: list | None = None
        self.attempted = 0
        self.failed = 0

    def add(self, results: list) -> None:
        digests = []
        for index, (cell, result) in enumerate(zip(self.cells, results)):
            self.attempted += 1
            if isinstance(result, Exception):
                problems = ["raised"]
                digests.append(None)
            else:
                problems = (check_partial(result) if self.first is None
                            else [])
                digests.append(digest(serialize(result))
                               if result.result is not None else None)
                if (self.first is not None
                        and digests[-1] != self.first[index]):
                    problems.append("output differs between passes")
            self._fail(cell, problems)
        if self.first is None:
            self.first = digests
            self.failed += self._containment(results)
            for cell, cell_digest in zip(self.cells, digests):
                log(f"digest {self.runner.workload} "
                    f"seed={self.runner.seed} {cell_name(cell)} "
                    f"{cell_digest}")

    def against_serial(self) -> None:
        """``global-pool`` only: every cell's digest must equal that of a
        ``workers=None`` call on the same input and seed."""
        if self.runner.workload != "global-pool":
            return
        for cell, pooled in zip(self.cells, self.first):
            serial = digest(serialize(self.runner.call(cell, None)))
            if serial != pooled:
                self._fail(cell, [f"digest {pooled} differs from "
                                  f"workers=None {serial}"])

    def _fail(self, cell, problems: list[str]) -> None:
        if problems:
            self.failed += 1
            warn(f"{cell_name(cell)} failed: {'; '.join(problems)}")

    def _containment(self, results) -> int:
        if self.runner.workload != "peel":
            return 0
        local = results[self.cells.index(("local", "orkut", 0.5, "dp"))]
        nucleus = results[self.cells.index(("nucleus", "orkut", 0.5, "dp"))]
        if isinstance(local, Exception) or isinstance(nucleus, Exception):
            return 0  # already counted as failed cells
        problems = check_containment(nucleus, local)
        if problems:
            warn(f"containment failed: {problems[0]}")
        return 1 if problems else 0


def run_untraced(workload: str, seed: int, seconds: float):
    runner = Runner(workload, seed)
    runner.warm_up()
    checker = Checker(runner)
    cells = CELLS[workload]
    walls = [[] for _ in cells]
    cpus = [[] for _ in cells]
    passes = 0
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        # Every pass starts from the same heap: the previous pass's
        # results are checked, dropped and collected first.
        gc.collect()
        results, cell_s, cell_cpu, raw_wall = runner.run_pass()
        passes += 1
        for index in range(len(cells)):
            walls[index].append(cell_s[index])
            cpus[index].append(cell_cpu[index])
        log(f"pass {passes}: wall {sum(cell_s):.3f} s "
            f"(unscaled {raw_wall:.3f} s) cpu {sum(cell_cpu):.3f} s "
            f"cells {' '.join(f'{s:.3f}' for s in cell_s)}")
        checker.add(results)
        del results
    rss = peak_rss_mib()
    checker.against_serial()
    log(f"{passes} passes of {len(cells)} calls")
    # Each cell's figure is its median over passes; wall_s and cpu_s sum
    # those over the cells. A batch run has too few calls for call-level
    # percentiles, so the latencies come from the per-cell medians too.
    cell_wall = [median(values) for values in walls]
    metrics = {
        "wall_s": (sum(cell_wall), "s"),
        "cpu_s": (sum(median(values) for values in cpus), "s"),
        "peak_rss_mib": (rss, "MiB"),
        "lat_p50_ms": (sum(cell_wall) / len(cells) * 1e3, "ms"),
        "lat_p95_ms": (max(cell_wall) * 1e3, "ms"),
    }
    return checker.attempted, checker.failed, metrics


def run_traced(workload: str, seed: int):
    from tracing import ProgressCounter, Tracer, install_library_layers

    runner = Runner(workload, seed)
    runner.warm_up()
    checker = Checker(runner)
    results, cell_s, _, _ = runner.run_pass()
    untraced_wall = sum(cell_s)
    checker.add(results)
    del results
    tracer = Tracer(worker_dir=out_dir("workers", f"{workload}-{seed}"))
    install_library_layers(tracer)
    tracer.enable_worker_dumps()
    snapshots = []
    traced_wall = None
    try:
        for _ in range(2):
            tracer.counts.clear()
            tracer.busy.clear()
            tracer.self_s.clear()
            tracer.spans.clear()
            gc.collect()
            _, kids0 = cpu_times()
            results, cell_s, _, _ = runner.run_pass(
                ProgressCounter(tracer))
            _, kids1 = cpu_times()
            tracer.merge_workers()
            if traced_wall is None:
                traced_wall = sum(cell_s)
            snapshots.append(layers.library_layers(
                tracer, workers=runner.workers or 0,
                worker_cpu_s=kids1 - kids0))
            checker.add(results)
            del results
    finally:
        tracer.unpatch()
    path = out_dir() / f"spans-{workload}-{seed}.jsonl"
    tracer.write_spans(path)
    drift = layers.count_drift(*snapshots)
    if drift:
        warn(f"counts drifted between two traced passes: {drift}")
    checker.against_serial()
    values = dict(snapshots[0])
    values.update({
        "datasets.load_s": runner.load_s,
        "trace.traced_wall_s": traced_wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_ratio": traced_wall / untraced_wall,
        "trace.count_drift": len(drift),
    })
    log(f"spans written to {path}")
    return checker.attempted, checker.failed, layers.complete(values)
