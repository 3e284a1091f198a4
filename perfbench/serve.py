"""The ``serve`` workload: ``repro serve`` as a subprocess over HTTP.

Cold phase: four index builds requested with ``wait=1`` on a fresh
state dir. Warm phase: an open-loop request mix at a fixed rate (see
``loadgen.py``). Every index response must carry the same result digest
as the cold build of that index.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import signal
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path
from types import SimpleNamespace
from urllib.parse import quote

from common import (
    ROOT,
    BenchError,
    digest,
    log,
    median,
    out_dir,
    percentile,
    proc_cpu_s,
    proc_status_kib,
    warn,
)
from inputs import relabelled
from loadgen import LoadGenerator, StepResult
import hostspeed
import layers

GRAPHS = ("fruitfly", "dblp", "orkut", "wikivote")
#: The fixed rate the latency metrics are reported at (req/s), about a
#: quarter of the server's capacity on a 2-core box.
FIXED_RATE = 10
#: Requests per step: p95 then has at least 10 samples beyond it.
STEP_REQUESTS = 200
#: The warm step is sent in this many chunks, with a host speed
#: measurement between two chunks.
WARM_CHUNKS = 5
CONNECTIONS = min(2, os.cpu_count() or 1)
#: Server spawns per run (set-up time is their median); the last
#: COLD_PHASES of them also build every index (cold time is the median),
#: and the very last one then serves the warm phase.
SETUP_SPAWNS = 5
COLD_PHASES = 3
MIX = (("healthz", 10), ("global", 40), ("nucleus", 20), ("local", 20),
       ("stats", 10))
LAUNCHER = Path(__file__).resolve().parent / "launcher.py"


#: The payload fields that carry a built index's result. Request
#: bookkeeping (token, degraded, reasons, breaker) is left out: the token
#: hashes the request parameters, not the result.
RESULT_FIELDS = ("k_max", "n_samples", "trusses", "clique_counts",
                 "truss_counts")


def result_digest(doc: dict) -> str:
    fields = {name: doc.get(name) for name in RESULT_FIELDS}
    return digest(json.dumps(fields, sort_keys=True).encode())


#: Servers started and not yet stopped, so that every way out of a run
#: stops them (see :func:`stop_all`).
_LIVE: list["Server"] = []


def stop_all() -> None:
    """Stop every server still running."""
    while _LIVE:
        _LIVE[-1].stop()


class Server:
    """One launcher subprocess on its own fresh state dir."""

    def __init__(self, name: str, seed: int, trace: bool):
        self.state = out_dir("serve", name)
        shutil.rmtree(self.state)
        self.state.mkdir(parents=True)
        self.report = self.state.parent / f"{name}-report.json"
        self.report.unlink(missing_ok=True)
        self.stderr = open(self.state.parent / f"{name}-stderr.txt", "w")
        cmd = [sys.executable, str(LAUNCHER), "--state-dir", str(self.state),
               "--seed", str(seed), "--report", str(self.report)]
        if trace:
            cmd.append("--trace")
        before = hostspeed.measure()
        started = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                     stderr=self.stderr, text=True,
                                     cwd=ROOT)
        _LIVE.append(self)
        line = self.proc.stdout.readline()
        self.setup_s = ((time.perf_counter() - started)
                        * hostspeed.factor(before, hostspeed.measure()))
        if not line.startswith("serving on http://"):
            self.stop()
            raise BenchError(f"server did not start: {line!r}")
        host, port = line.strip().rsplit("/", 1)[-1].rsplit(":", 1)
        self.host, self.port = host, int(port)

    def cpu_s(self) -> float:
        return proc_cpu_s(self.proc.pid) or 0.0

    def peak_rss_mib(self) -> float:
        return (proc_status_kib(self.proc.pid, "VmHWM") or 0.0) / 1024.0

    def stop(self) -> dict:
        """SIGTERM (graceful drain), wait, and return the report."""
        if self in _LIVE:
            _LIVE.remove(self)
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        self.stderr.close()
        if self.report.exists():
            return json.loads(self.report.read_text())
        return {}


class Session:
    """Inputs, request paths and output checks of one seed."""

    def __init__(self, seed: int):
        self.seed = seed
        graph_dir = out_dir("serve", "graphs")
        from repro.graphs.io import write_json_graph

        started = time.perf_counter()
        self.files = {}
        for name in GRAPHS:
            path = graph_dir / f"{name}-{seed}.json"
            write_json_graph(relabelled(name, seed), path)
            self.files[name] = quote(str(path))
        self.load_s = time.perf_counter() - started
        f = self.files
        self.index_paths = {
            "global/fruitfly": f"/global?graph={f['fruitfly']}&gamma=0.7",
            "global/dblp": f"/global?graph={f['dblp']}&gamma=0.7",
            "local/orkut": f"/local?graph={f['orkut']}&gamma=0.5",
            "nucleus/wikivote":
                f"/nucleus?graph={f['wikivote']}&gamma=0.5&r=3&s=4",
        }
        self.by_path = {path: key for key, path in self.index_paths.items()}
        self.cold: dict[str, str] = {}  # index key -> result digest

    def cold_phase(self, gen: LoadGenerator, server: Server):
        """Build every index; returns (seconds per build, server CPU),
        both scaled to the host's reference speed."""
        seconds, cpu, failed = [], 0.0, 0
        for key, path in self.index_paths.items():
            before = hostspeed.measure()
            cpu0 = server.cpu_s()
            started = time.perf_counter()
            status, doc = gen.get_json(path + "&wait=1&deadline=120")
            wall = time.perf_counter() - started
            cpu1 = server.cpu_s()
            scale = hostspeed.factor(before, hostspeed.measure())
            seconds.append(wall * scale)
            cpu += (cpu1 - cpu0) * scale
            built = result_digest(doc)
            # Every cold phase of a seed must build the same index.
            expected = self.cold.setdefault(key, built)
            ok = (status == 200 and not doc.get("degraded")
                  and doc.get("complete") and built == expected)
            if not ok:
                failed += 1
                warn(f"cold build {key} failed: status {status} "
                     f"digest {built} (first build {expected}) "
                     f"{str(doc)[:200]}")
            log(f"cold {key}: {seconds[-1]:.3f} s (unscaled {wall:.3f} s) "
                f"k_max={doc.get('k_max')} digest {built}")
        return seconds, cpu, failed

    def warm_requests(self, count: int, rng: random.Random) -> list:
        """``count`` requests in exactly the MIX proportions, shuffled."""
        endpoints = [name for name, weight in MIX
                     for _ in range(round(count * weight / 100))]
        rng.shuffle(endpoints)
        out = []
        for endpoint in endpoints:
            if endpoint == "healthz":
                path = "/healthz"
            elif endpoint == "stats":
                path = f"/stats?graph={self.files['wikivote']}"
            elif endpoint == "global":
                path = self.index_paths[rng.choice(
                    ["global/fruitfly", "global/dblp"])]
            else:
                path = self.index_paths[
                    "nucleus/wikivote" if endpoint == "nucleus"
                    else "local/orkut"]
            out.append((endpoint, path))
        return out

    def validate(self, endpoint: str, path: str, status: int,
                 body: bytes) -> str:
        if status != 200:
            return f"status {status}"
        doc = json.loads(body)
        if doc.get("degraded"):
            return f"degraded: {doc.get('reason') or doc.get('reasons')}"
        key = self.by_path.get(path)
        if key is not None and self.cold.get(key) != result_digest(doc):
            return "result differs from the cold build"
        return ""


def run_untraced(seed: int, seconds: float):
    session = Session(seed)
    setups, colds, cold_cpus = [], [], []
    failed = attempted = 0
    for attempt in range(SETUP_SPAWNS):
        server = Server(f"server{attempt}", seed, trace=False)
        setups.append(server.setup_s)
        if attempt >= SETUP_SPAWNS - COLD_PHASES:
            try:
                gen = LoadGenerator(server.host, server.port, CONNECTIONS,
                                    session.validate)
                cold_s, cold_cpu, cold_failed = session.cold_phase(
                    gen, server)
            except BaseException:
                server.stop()
                raise
            colds.append(sum(cold_s))
            cold_cpus.append(cold_cpu)
            failed += cold_failed
            attempted += len(cold_s)
        if attempt < SETUP_SPAWNS - 1:
            server.stop()
    # The last server, its indexes built, serves the warm phase: at least
    # ``seconds`` long and at least STEP_REQUESTS requests, sent in
    # WARM_CHUNKS open-loop chunks. The host's speed is measured between
    # chunks (never while requests are in flight) and each latency is
    # scaled by the mean of the measurements around its chunk.
    count = max(STEP_REQUESTS, int(FIXED_RATE * seconds))
    rng = random.Random(f"serve-mix/{seed}")
    requests = session.warm_requests(count, rng)
    size = -(-len(requests) // WARM_CHUNKS)
    latencies, samples = [], []
    try:
        before = hostspeed.measure()
        for first in range(0, len(requests), size):
            step = gen.step(FIXED_RATE, requests[first:first + size])
            after = hostspeed.measure()
            scale = hostspeed.factor(before, after)
            latencies += [latency * scale for latency in step.latencies]
            samples += step.samples
            before = after
        rss = server.peak_rss_mib()
    finally:
        server.stop()
    warm = StepResult(FIXED_RATE, samples)
    p50, p95 = percentile(latencies, 50), percentile(latencies, 95)
    log(f"fixed {FIXED_RATE} req/s: p50 {p50 * 1e3:.1f} ms "
        f"p95 {p95 * 1e3:.1f} ms (unscaled {warm.p(50) * 1e3:.1f} ms, "
        f"{warm.p(95) * 1e3:.1f} ms), generator late p95 "
        f"{warm.generator_late_p95 * 1e3:.1f} ms")
    attempted += len(samples)
    failed += warm.failed
    for sample in samples:
        if not sample.ok:
            warn(f"{sample.endpoint} at {FIXED_RATE} req/s: {sample.problem}")
    metrics = {
        "wall_s": (median(colds), "s"),
        "cpu_s": (median(cold_cpus), "s"),
        "peak_rss_mib": (rss, "MiB"),
        "lat_p50_ms": (p50 * 1e3, "ms"),
        "lat_p95_ms": (p95 * 1e3, "ms"),
    }
    return median(setups), attempted, failed, metrics


def _snapshot_layers(snapshot: dict) -> dict:
    view = SimpleNamespace(counts=Counter(snapshot["counts"]),
                           busy=defaultdict(float, snapshot["busy"]),
                           self_s=defaultdict(float))
    return layers.library_layers(view)


def run_traced(seed: int):
    session = Session(seed)
    # Untraced cold phase: the base of the tracing overhead ratio.
    server = Server("untraced", seed, trace=False)
    try:
        gen = LoadGenerator(server.host, server.port, CONNECTIONS,
                            session.validate)
        untraced_cold, _, failed = session.cold_phase(gen, server)
    finally:
        server.stop()
    attempted = len(untraced_cold)
    # Traced: cold builds plus one warm step at the fixed rate.
    server = Server("traced", seed, trace=True)
    try:
        gen = LoadGenerator(server.host, server.port, CONNECTIONS,
                            session.validate)
        traced_cold, _, cold_failed = session.cold_phase(gen, server)
        warm_start = time.time()
        rng = random.Random(f"serve-mix/{seed}")
        step = gen.step(FIXED_RATE, session.warm_requests(STEP_REQUESTS, rng))
    finally:
        report = server.stop()
    failed += cold_failed + step.failed
    attempted += len(traced_cold) + len(step.samples)
    # A second traced cold phase: its work counts must repeat exactly.
    server = Server("traced2", seed, trace=True)
    try:
        gen = LoadGenerator(server.host, server.port, CONNECTIONS,
                            session.validate)
        _, _, again_failed = session.cold_phase(gen, server)
    finally:
        report2 = server.stop()
    failed += again_failed
    attempted += len(session.index_paths)
    if not report or not report2:
        raise BenchError("traced server wrote no report")
    drift = layers.count_drift(
        _snapshot_layers(report["build_snapshots"][-1]),
        _snapshot_layers(report2["build_snapshots"][-1]))
    if drift:
        warn(f"counts drifted between two traced cold phases: {drift}")

    values = dict(report["layers"])
    warm = [r for r in report["requests"] if r[1] >= warm_start]
    by_endpoint = defaultdict(list)
    for sample in step.samples:
        by_endpoint[sample.endpoint].append(sample.done - sample.sent)
    handle = defaultdict(list)
    for endpoint, _, seconds_, _ in warm:
        handle[endpoint].append(seconds_)
    for endpoint in layers.ENDPOINTS:
        values[f"service.client_p50_ms.{endpoint}"] = \
            median(by_endpoint[endpoint]) * 1e3
        values[f"service.handle_s.{endpoint}"] = median(handle[endpoint])
    counts, busy = report["counts"], report["busy"]
    values.update({
        "datasets.load_s": session.load_s,
        "service.admission_wait_s": percentile([r[3] for r in warm], 95),
        "service.build_s": busy.get("service.build", 0.0),
        "service.store.writes": counts.get("service.store.writes", 0),
        "service.store.busy_s": busy.get("service.store", 0.0),
        "service.shed": counts.get("service.shed", 0),
        "service.degraded": counts.get("service.degraded", 0),
        "loadgen.sent": len(step.samples),
        "loadgen.late_p95_ms": step.generator_late_p95 * 1e3,
        "trace.traced_wall_s": sum(traced_cold),
        "trace.untraced_wall_s": sum(untraced_cold),
        "trace.overhead_ratio": sum(traced_cold) / sum(untraced_cold),
        "trace.count_drift": len(drift),
    })
    return attempted, failed, layers.complete(values)
