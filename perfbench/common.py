"""Shared helpers of the benchmark: paths, statistics, process accounting.

Nothing here imports ``repro``; ``run.py`` puts the checkout's ``src``
on ``sys.path`` before any workload module is imported.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import sys
from pathlib import Path

#: Root of the checkout the benchmark runs from (the parent of this
#: package directory).
ROOT = Path(__file__).resolve().parents[1]
#: The library source tree the benchmark measures.
SRC = ROOT / "src"
#: Scratch space for state dirs, temp files and written traces; listed
#: in the root ``.gitignore``.
OUT = ROOT / ".perfbench-out"


class BenchError(Exception):
    """The benchmark cannot run here (missing program, bad arguments)."""


def out_dir(*parts: str) -> Path:
    path = OUT.joinpath(*parts)
    path.mkdir(parents=True, exist_ok=True)
    return path


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0..100) of ``values``."""
    data = sorted(values)
    if not data:
        return 0.0
    if len(data) == 1:
        return float(data[0])
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return float(data[lo] + (data[hi] - data[lo]) * (pos - lo))


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def cpu_times() -> tuple[float, float]:
    """(own CPU, reaped children's CPU) in seconds."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (own.ru_utime + own.ru_stime, kids.ru_utime + kids.ru_stime)


def peak_rss_mib() -> float:
    """High-water RSS of this process or any reaped child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def proc_status_kib(pid: int, field: str) -> float | None:
    """A ``/proc/<pid>/status`` field in KiB (e.g. ``VmHWM``), or None."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith(field + ":"):
                    return float(line.split()[1])
    except OSError:
        return None
    return None


def proc_cpu_s(pid: int) -> float | None:
    """utime + stime of a live process, from ``/proc/<pid>/stat``."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return None
    ticks = os.sysconf("SC_CLK_TCK")
    return (int(fields[11]) + int(fields[12])) / ticks


def stop_children() -> None:
    """Stop and wait for every helper process this one still has.

    Forked pool workers are normally joined by the library; any left
    are terminated here. The multiprocessing resource tracker, started
    by the first shared-memory segment, would otherwise outlive this
    process until it notices the closed pipe, so it is stopped and
    waited for explicitly.
    """
    import multiprocessing

    for child in multiprocessing.active_children():
        child.terminate()
        child.join(5)
        if child.is_alive():
            child.kill()
            child.join()
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    if tracker is not None:
        tracker._resource_tracker._stop()


def log(message: str) -> None:
    """Progress lines go to stdout; the last stdout line is the result."""
    print(message, flush=True)


def warn(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def emit_result(correct: bool, attempted: int, failed: int,
                metrics: dict[str, tuple[float, str]]) -> None:
    doc = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(doc), flush=True)
