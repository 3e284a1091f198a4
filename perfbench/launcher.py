"""Start ``repro serve`` for the ``serve`` workload, optionally traced.

    python3 perfbench/launcher.py --state-dir DIR --seed N --report FILE [--trace]

Runs :func:`repro.service.serve` in this process until SIGTERM. With
``--trace`` the library layers and the service request path are wrapped
(see ``tracing.py``) and a progress hook counts service events. On exit
the report file receives the counters, per-request timings and the
counter snapshot taken after each finished build, and the spans go to a
``.jsonl`` file next to it.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import SRC, stop_children  # noqa: E402

sys.path.insert(0, str(SRC))


def install_service_layers(tracer, requests: list) -> None:
    """Wrap the request path, builds and the index store."""
    from repro.service import AdmissionController, IndexStore, TrussService

    tracer.patch(TrussService, "handle_http", "service.request",
                 record=True, root=True)
    tracer.patch(TrussService, "run_build", "service.build", record=True,
                 root=True)
    raw_handle = TrussService.handle
    raw_acquire = AdmissionController.acquire
    waits: dict = {}  # request span id -> admission wait (s)

    def handle(service, endpoint, params, budget):
        frame = tracer.enter("service.handle")
        started = time.time()
        try:
            return raw_handle(service, endpoint, params, budget)
        finally:
            seconds = tracer.exit(frame, record=True)
            with tracer.lock:
                requests.append((endpoint, started, seconds,
                                 waits.pop(frame.parent.id, 0.0)))

    def acquire(controller, timeout):
        frame = tracer.enter("service.admission")
        try:
            return raw_acquire(controller, timeout)
        finally:
            seconds = tracer.exit(frame, record=False)
            if frame.parent is not None:
                with tracer.lock:
                    waits[frame.parent.id] = seconds

    for owner, attr, new in ((TrussService, "handle", handle),
                             (AdmissionController, "acquire", acquire)):
        tracer._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def count_created(args, kwargs, result):
        if result[1]:
            tracer.bump("service.store.writes")

    tracer.patch(IndexStore, "ensure", "service.store", on_call=count_created)
    for method in ("mark_building", "complete", "fail", "interrupt"):
        tracer.patch(IndexStore, method, "service.store",
                     on_call=lambda a, k, r: tracer.bump(
                         "service.store.writes"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--state-dir", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    from repro.runtime import chain_hooks
    from repro.service import ServeConfig, serve

    config = ServeConfig(state_dir=args.state_dir, seed=args.seed,
                         max_deadline=120.0)
    report: dict = {}
    hook = None
    tracer = None
    requests: list = []
    if args.trace:
        import layers
        from tracing import ProgressCounter, Tracer, install_library_layers

        tracer = Tracer()
        install_library_layers(tracer)
        install_service_layers(tracer, requests)
        counter = ProgressCounter(tracer)
        snapshots = report["build_snapshots"] = []

        def snapshot(event) -> None:
            if (event.phase == "service-build"
                    and event.detail.get("action") == "finished"):
                with tracer.lock:
                    counts = dict(tracer.counts)
                    busy = dict(tracer.busy)
                snapshots.append({"counts": counts, "busy": busy})

        hook = chain_hooks(counter, snapshot)
    code = serve(config, progress=hook)
    if tracer is not None:
        tracer.unpatch()
        report.update({
            "counts": dict(tracer.counts),
            "busy": dict(tracer.busy),
            "self_s": dict(tracer.self_s),
            "requests": requests,
        })
        tracer.write_spans(Path(args.report).with_suffix(".jsonl"))
        report["layers"] = layers.library_layers(tracer)
    Path(args.report).write_text(json.dumps(report))
    return code


if __name__ == "__main__":
    try:
        sys.exit(main())
    finally:
        stop_children()
