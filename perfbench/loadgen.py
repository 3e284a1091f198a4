"""Open-loop HTTP load generator for the ``serve`` workload.

Requests are due on a fixed schedule (``i / rate`` after the step
starts) whatever the server does; at most ``connections`` threads send
them, one request per connection at a time. Each latency is timed from
the request's *due* time, so a stall also charges the requests queued
behind it. The generator's own lateness (an idle thread that woke up
after the due time, which would hide load) is kept apart and reported.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass, field

from common import percentile

#: Timeout of one HTTP request (s); a cold build takes a few seconds.
HTTP_TIMEOUT_S = 30.0


@dataclass
class Sample:
    endpoint: str
    due: float
    sent: float = 0.0
    done: float = 0.0
    idle_late: float | None = None
    status: int = 0
    body: bytes = b""
    ok: bool = False
    problem: str = ""


@dataclass
class StepResult:
    rate: float
    samples: list = field(default_factory=list)

    @property
    def latencies(self) -> list[float]:
        return [s.done - s.due for s in self.samples]

    @property
    def failed(self) -> int:
        return sum(1 for s in self.samples if not s.ok)

    def p(self, q: float) -> float:
        return percentile(self.latencies, q)

    @property
    def generator_late_p95(self) -> float:
        return percentile([s.idle_late for s in self.samples
                           if s.idle_late is not None], 95)


class LoadGenerator:
    """Sends request paths to one server on an open-loop schedule."""

    def __init__(self, host: str, port: int, connections: int,
                 validate):
        self.host = host
        self.port = port
        self.connections = connections
        self.validate = validate

    def get(self, path: str) -> tuple[int, bytes]:
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=HTTP_TIMEOUT_S)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def get_json(self, path: str) -> tuple[int, dict]:
        status, body = self.get(path)
        return status, json.loads(body)

    def step(self, rate: float, requests: list[tuple[str, str]]) -> StepResult:
        """Send ``requests`` ((endpoint, path) pairs) at ``rate`` per s."""
        start = time.perf_counter() + 0.05
        samples = [Sample(endpoint, start + i / rate)
                   for i, (endpoint, _) in enumerate(requests)]
        cursor = iter(range(len(requests)))
        lock = threading.Lock()

        def worker() -> None:
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                sample = samples[index]
                now = time.perf_counter()
                if now < sample.due:
                    time.sleep(sample.due - now)
                    sample.idle_late = max(0.0, time.perf_counter()
                                           - sample.due)
                sample.sent = time.perf_counter()
                try:
                    sample.status, sample.body = self.get(
                        requests[index][1])
                except (OSError, http.client.HTTPException) as err:
                    sample.problem = f"{type(err).__name__}: {err}"
                sample.done = time.perf_counter()

        threads = [threading.Thread(target=worker, daemon=True)
                   for _ in range(self.connections)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=HTTP_TIMEOUT_S + len(requests) / rate + 5.0)
            if thread.is_alive():
                raise RuntimeError("load generator thread did not finish")
        # Responses are checked after the step, so that checking takes no
        # client time from requests still in flight.
        for sample, (_, path) in zip(samples, requests):
            if not sample.problem:
                try:
                    sample.problem = self.validate(
                        sample.endpoint, path, sample.status, sample.body)
                except ValueError as err:
                    sample.problem = f"{type(err).__name__}: {err}"
            sample.ok = not sample.problem
            sample.body = b""
        return StepResult(rate, samples)
