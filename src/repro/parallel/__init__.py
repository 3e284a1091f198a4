"""Multi-core execution layer (``--workers N``).

Fans the compute-bound stages — GBU seed evaluation, GTD component
search and frontier shards, reliability sample batches, and
the initial support-PMF DPs — across worker processes while keeping
results bit-identical to the ``workers=1`` inline path. The world
sample set is published once into :mod:`multiprocessing.shared_memory`;
workers project candidates against the same physical pages with zero
copying.

Execution is *supervised* (:mod:`repro.parallel.supervisor`): a worker
that crashes or hangs is killed and replaced, only its in-flight payload
is replayed (tasks are pure, so replay is byte-identical), and a payload
that keeps killing workers is quarantined with an explicit
:class:`QuarantinedTask` record instead of hanging or failing the run.

Entry points: :class:`ParallelExecutor` (the pool front end),
:class:`SupervisedPool`/:data:`QUARANTINED` (the supervision layer),
:class:`SharedWorldSamples`/:func:`attach_samples` (the shared segment),
and :func:`resolve_workers` (CLI value normalisation). The decomposition
APIs accept ``workers=``/``executor=`` and wire these together; see
``docs/performance.md`` for the determinism contract and
``docs/robustness.md`` for the supervision model.
"""

from repro.parallel.executor import ParallelExecutor, resolve_workers
from repro.parallel.shared import (
    SharedSamplesHandle,
    SharedWorldSamples,
    attach_samples,
)
from repro.parallel.supervisor import (
    QUARANTINED,
    QuarantinedTask,
    SupervisedPool,
)

__all__ = [
    "ParallelExecutor",
    "resolve_workers",
    "QUARANTINED",
    "QuarantinedTask",
    "SupervisedPool",
    "SharedSamplesHandle",
    "SharedWorldSamples",
    "attach_samples",
]
