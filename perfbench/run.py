"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload {peel,global,global-pool,serve}
        --seed N --seconds S --trace {0,1}

Run it from the root of a checkout: it measures the ``repro`` package
under ``src/`` through its public entry points. ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run.
The last line of standard output is the result object; progress lines,
output digests and warnings come before it. End-to-end times are scaled
to the host's reference speed (see ``hostspeed.py``). ``BENCHMARK.json``
lists the metrics and ``perfbench/predictions.json`` defines them and
what each layer should move.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    SRC,
    BenchError,
    emit_result,
    median,
    out_dir,
    stop_children,
    warn,
)

WORKLOADS = ("peel", "global", "global-pool", "serve")
#: Batch workloads time this many fresh-process set-ups (imports plus
#: input generation), scaled to the host's reference speed, and report
#: the median.
SETUP_RUNS = 5


def _setup_only(workload: str, seed: int) -> None:
    """What a batch run must do before its first cell: import and
    generate the inputs."""
    import repro.runtime  # noqa: F401
    from batch import datasets_of
    from inputs import load_graphs

    load_graphs(datasets_of(workload), seed)


def _batch_setup_s(workload: str, seed: int) -> float:
    import hostspeed

    hostspeed.measure()
    times = []
    for _ in range(SETUP_RUNS):
        before = hostspeed.measure()
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, __file__, "--setup-only", "--workload",
             workload, "--seed", str(seed), "--seconds", "1", "--trace",
             "0"], check=True, stdout=subprocess.DEVNULL)
        seconds = time.perf_counter() - started
        times.append(seconds * hostspeed.factor(before, hostspeed.measure()))
    return median(times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no repro package under {SRC}")
    sys.path.insert(0, str(SRC))
    # Keep every file the library or its subprocesses write in the
    # checkout's scratch dir.
    tmp = out_dir("tmp")
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = None
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))

    if args.setup_only:
        _setup_only(args.workload, args.seed)
        return 0

    if args.workload == "serve":
        import serve

        try:
            if args.trace:
                attempted, failed, metrics = serve.run_traced(args.seed)
            else:
                setup_s, attempted, failed, metrics = serve.run_untraced(
                    args.seed, args.seconds)
                metrics = {"setup_s": (setup_s, "s"), **metrics}
        finally:
            serve.stop_all()
    else:
        import batch

        if args.trace:
            attempted, failed, metrics = batch.run_traced(
                args.workload, args.seed)
        else:
            setup_s = _batch_setup_s(args.workload, args.seed)
            attempted, failed, metrics = batch.run_untraced(
                args.workload, args.seed, args.seconds)
            metrics = {"setup_s": (setup_s, "s"), **metrics}
    emit_result(failed == 0, attempted, failed, metrics)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as err:
        warn(str(err))
        sys.exit(2)
    finally:
        stop_children()
