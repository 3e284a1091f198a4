"""Benchmark-owned tracing: spans and counters around the library's
public entry points, installed by patching attributes from outside.

A *span* (``record=True``) is kept in memory with its name, start, end,
parent and trace id, and written out when the run ends. A *leaf* is a
hot, fine-grained call (a DP build, one Eq. 8 update, one kernel pass)
that is only counted and timed; its time still counts as covered time
of the enclosing span, so that

    self time = span duration - time covered by its child spans/leaves

holds for every span. Calls on one thread nest strictly, so coverage is
the plain sum of the children's durations.

Fork-pool workers inherit the patched attributes. Each worker clears the
counters it inherited and, when it exits normally, writes its own
counts and busy times to ``worker_dir`` for :meth:`Tracer.merge_workers`.
"""

from __future__ import annotations

import inspect
import itertools
import json
import multiprocessing.util as mp_util
import os
import pickle
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path
from types import ModuleType


class _Frame:
    __slots__ = ("id", "parent", "trace", "name", "start", "cover")

    def __init__(self, span_id, parent, trace, name, start):
        self.id = span_id
        self.parent = parent
        self.trace = trace
        self.name = name
        self.start = start
        self.cover = 0.0


class Tracer:
    """Spans, counts and busy/self times keyed by layer name."""

    def __init__(self, worker_dir: Path | None = None):
        self.worker_dir = worker_dir
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.busy: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.lock = threading.Lock()
        self._tls = threading.local()
        self._ids = itertools.count(1)
        self._traces = itertools.count(1)
        self._patches: list[tuple] = []
        self.in_worker = False

    # -- spans -----------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def enter(self, name: str, root: bool = False) -> _Frame:
        stack = self._stack()
        parent = stack[-1] if stack else None
        trace = (next(self._traces) if root or parent is None
                 else parent.trace)
        frame = _Frame(next(self._ids), parent, trace, name,
                       time.perf_counter())
        stack.append(frame)
        return frame

    def exit(self, frame: _Frame, record: bool) -> float:
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        duration = end - frame.start
        parent = frame.parent
        if parent is not None:
            parent.cover += duration
        with self.lock:
            self.busy[frame.name] += duration
            self.self_s[frame.name] += duration - frame.cover
            self.counts[frame.name] += 1
            if record:
                self.spans.append((
                    frame.id, parent.id if parent is not None else None,
                    frame.trace, frame.name, frame.start, end))
        return duration

    def bump(self, name: str, amount=1) -> None:
        with self.lock:
            self.counts[name] += amount

    # -- patching ----------------------------------------------------------
    def wrap(self, fn, name: str, *, record: bool = False,
             root: bool = False, on_call=None):
        tracer = self

        def traced(*args, **kwargs):
            frame = tracer.enter(name, root)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(frame, record)
            if on_call is not None:
                on_call(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def patch(self, owner, attr: str, name: str, **options) -> None:
        """Wrap ``owner.attr``; for a module, also every loaded
        ``repro`` module that imported the same function by name."""
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, (classmethod, staticmethod)):
            new = type(raw)(self.wrap(raw.__func__, name, **options))
        else:
            new = self.wrap(raw, name, **options)
        owners = [owner]
        if isinstance(owner, ModuleType):
            owners += [
                module for key, module in list(sys.modules.items())
                if key.startswith("repro") and module is not owner
                and module is not None
                and module.__dict__.get(attr) is raw
            ]
        for target in owners:
            self._patches.append((target, attr, raw))
            setattr(target, attr, new)

    def unpatch(self) -> None:
        while self._patches:
            target, attr, raw = self._patches.pop()
            setattr(target, attr, raw)

    # -- fork-pool workers -------------------------------------------------
    def enable_worker_dumps(self) -> None:
        mp_util.register_after_fork(self, Tracer._after_fork)

    def _after_fork(self) -> None:
        self.in_worker = True
        self.lock = threading.Lock()
        self.spans = []
        self.counts = Counter()
        self.busy = defaultdict(float)
        self.self_s = defaultdict(float)
        if self.worker_dir is not None:
            mp_util.Finalize(None, self._dump_worker, exitpriority=100)

    def _dump_worker(self) -> None:
        path = self.worker_dir / f"worker-{os.getpid()}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps({"counts": dict(self.counts),
                                   "busy": dict(self.busy)}))
        os.replace(tmp, path)

    def merge_workers(self) -> int:
        """Fold finished workers' dumps in; returns how many were read."""
        if self.worker_dir is None:
            return 0
        merged = 0
        for path in sorted(self.worker_dir.glob("worker-*.json")):
            doc = json.loads(path.read_text())
            path.unlink()
            with self.lock:
                self.counts.update(doc["counts"])
                for key, value in doc["busy"].items():
                    self.busy[key] += value
            merged += 1
        return merged

    # -- output --------------------------------------------------------------
    def write_spans(self, path: Path) -> None:
        with open(path, "w") as handle:
            for span_id, parent, trace, name, start, end in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "parent": parent, "trace": trace,
                    "name": name, "start": start, "end": end}) + "\n")


# -- the layers ---------------------------------------------------------------
def _dir_sizes(path: Path) -> dict:
    try:
        return {entry.name: (entry.stat().st_size, entry.stat().st_mtime_ns)
                for entry in os.scandir(path) if entry.is_file()}
    except OSError:
        return {}


def install_library_layers(tracer: Tracer) -> None:
    """Wrap the public functions of every measured library layer."""
    import numpy as np

    import repro.core.global_decomp as global_decomp
    import repro.core.kernels as kernels
    import repro.core.local as local
    import repro.core.nucleus as nucleus
    import repro.core.support_prob as support_prob
    import repro.graphs.sampling as sampling
    import repro.runtime as runtime
    from repro.core.global_truss import GlobalTrussOracle
    from repro.parallel import ParallelExecutor
    from repro.parallel.work import WorkerState
    from repro.runtime.checkpoint import CheckpointStore

    bump = tracer.bump

    def count_worlds(args, kwargs, result):
        bump("graphs.sampling.worlds", int(np.shape(result)[0]))

    tracer.patch(sampling.SampleBatcher, "draw_next", "graphs.sampling",
                 on_call=count_worlds)
    tracer.patch(sampling.WorldSampleSet, "from_graph", "graphs.sampling",
                 on_call=lambda a, k, r: bump("graphs.sampling.worlds",
                                              int(r.n_samples)))

    tracer.patch(support_prob, "support_pmf", "core.support_prob.dp")
    tracer.patch(support_prob.SupportProbability, "remove_triangle",
                 "core.support_prob.eq8")

    tracer.patch(local, "local_truss_decomposition", "core.local",
                 record=True,
                 on_call=lambda a, k, r: bump(
                     "core.local.edges", len(r.trussness)))
    tracer.patch(nucleus, "nucleus_decomposition", "core.nucleus",
                 record=True,
                 on_call=lambda a, k, r: bump(
                     "core.nucleus.cliques", len(r.scores)))

    tracer.patch(global_decomp, "global_truss_decomposition",
                 "core.global_decomp", record=True)

    def count_accept(args, kwargs, result):
        if result:
            bump("core.global_truss.accepted")

    tracer.patch(GlobalTrussOracle, "satisfies_edges", "core.global_truss",
                 on_call=count_accept)

    def count_patterns(args, kwargs, result):
        rows = args[1] if len(args) > 1 else kwargs["candidate_rows"]
        bump("core.kernels.rows", int(np.size(rows)))
        bump("core.kernels.patterns", int(np.shape(result[0])[0]))

    tracer.patch(kernels, "dedup_candidate_patterns", "core.kernels.dedup",
                 on_call=count_patterns)
    tracer.patch(kernels.WorldClassifier, "connected_mask",
                 "core.kernels.connected")
    tracer.patch(kernels.WorldClassifier, "truss_ok", "core.kernels.truss")

    tracer.patch(ParallelExecutor, "start", "parallel.start", record=True)

    def count_worker_states(args, kwargs, result):
        if tracer.in_worker and args[1].phase == "gtd-state":
            bump("core.global_decomp.gtd_states")

    tracer.patch(WorkerState, "hook", "parallel.worker_hook",
                 on_call=count_worker_states)

    raw_map = ParallelExecutor.map

    def traced_map(executor, kind, payloads, *args, **kwargs):
        payloads = list(payloads)
        bump("parallel.payloads", len(payloads))
        bump(f"parallel.payloads.{kind}", len(payloads))
        bump("parallel.payload_bytes", sum(
            len(pickle.dumps(p, protocol=pickle.HIGHEST_PROTOCOL))
            for p in payloads))
        frame = tracer.enter("parallel.map")
        try:
            return raw_map(executor, kind, payloads, *args, **kwargs)
        finally:
            tracer.exit(frame, record=True)

    tracer._patches.append((ParallelExecutor, "map", raw_map))
    ParallelExecutor.map = traced_map

    def save(method: str):
        raw = getattr(CheckpointStore, method)

        def saving(store, *args, **kwargs):
            before = _dir_sizes(store.path)
            frame = tracer.enter("runtime.checkpoint")
            try:
                return raw(store, *args, **kwargs)
            finally:
                tracer.exit(frame, record=False)
                after = _dir_sizes(store.path)
                written = sum(size for name, (size, stamp) in after.items()
                              if before.get(name) != (size, stamp))
                bump("runtime.checkpoint.writes")
                bump("runtime.checkpoint.bytes", written)

        tracer._patches.append((CheckpointStore, method, raw))
        setattr(CheckpointStore, method, saving)

    for method in ("save_manifest", "save_sample_batch", "save_level",
                   "save_frontier"):
        save(method)

    # ``repro.runtime`` re-exports the harness functions; the module scan
    # in ``patch`` rebinds ``repro.runtime.harness`` as well.
    for name in ("run_local", "run_nucleus", "run_global"):
        tracer.patch(runtime, name, "runtime.harness", record=True)


class ProgressCounter:
    """A ``progress=`` hook counting the algorithm events of one run."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def __call__(self, event) -> None:
        bump = self.tracer.bump
        phase = event.phase
        if phase == "gbu-seed":
            bump("core.global_decomp.gbu_seeds")
        elif phase == "gtd-state" and "k" in event.detail:
            # One event per explored state. The pool's pump re-emits a
            # cumulative counter without detail; pooled states are
            # counted in the workers instead (see WorkerState.hook).
            bump("core.global_decomp.gtd_states")
        elif phase == "global-level":
            bump("core.global_decomp.levels")
        elif phase == "global-level-done":
            bump("core.global_decomp.trusses",
                 len(event.detail.get("trusses", ())))
        elif phase == "task-retried":
            bump("parallel.retries")
        elif phase == "service-shed":
            bump("service.shed")
        elif phase == "service-degraded":
            bump("service.degraded")
