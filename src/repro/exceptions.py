"""Exception hierarchy for the :mod:`repro` library.

All library-raised errors derive from :class:`ReproError`, so callers can
catch a single base class. Programming errors (bad arguments) raise the
standard :class:`ValueError`/:class:`KeyError` subclasses below so they
also behave idiomatically for users who do not know the hierarchy.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "GraphError",
    "NodeNotFoundError",
    "EdgeNotFoundError",
    "InvalidProbabilityError",
    "ParameterError",
    "MissingDependencyError",
    "DatasetError",
    "GraphParseError",
    "DecompositionError",
    "BudgetExceededError",
    "CheckpointError",
    "CheckpointWriteError",
    "ComputationInterrupted",
    "TaskQuarantinedError",
    "WorkerPoolError",
    "ServiceError",
    "OverloadedError",
    "IndexUnavailableError",
    "HTTP_STATUS_BY_ERROR",
    "http_status_of",
]


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class GraphError(ReproError):
    """A structural problem with a (probabilistic) graph."""


class NodeNotFoundError(GraphError, KeyError):
    """A referenced node does not exist in the graph."""

    def __init__(self, node):
        super().__init__(node)
        self.node = node

    def __str__(self) -> str:  # KeyError quotes its repr; keep it readable
        return f"node {self.node!r} is not in the graph"


class EdgeNotFoundError(GraphError, KeyError):
    """A referenced edge does not exist in the graph."""

    def __init__(self, u, v):
        super().__init__((u, v))
        self.u = u
        self.v = v

    def __str__(self) -> str:
        return f"edge ({self.u!r}, {self.v!r}) is not in the graph"


class InvalidProbabilityError(GraphError, ValueError):
    """An edge probability is outside the closed interval [0, 1]."""


class ParameterError(ReproError, ValueError):
    """An algorithm parameter (k, gamma, epsilon, delta, ...) is invalid."""


class MissingDependencyError(ReproError, ImportError):
    """An optional dependency is not installed; the message names the
    ``pip`` extra that provides it."""


class DatasetError(ReproError):
    """A named dataset is unknown or could not be generated/loaded."""


class GraphParseError(DatasetError, GraphError):
    """A graph file is truncated, corrupt, or otherwise malformed.

    Carries the offending location so parse failures in large edge lists
    are actionable: ``source`` is the file name (None for anonymous
    streams), ``lineno`` the 1-based line number, and ``token`` the text
    that could not be interpreted.
    """

    def __init__(self, message, *, source=None, lineno=None, token=None):
        where = []
        if source is not None:
            where.append(str(source))
        if lineno is not None:
            where.append(f"line {lineno}")
        prefix = f"{': '.join(where)}: " if where else ""
        super().__init__(f"{prefix}{message}")
        self.source = source
        self.lineno = lineno
        self.token = token


class DecompositionError(ReproError):
    """A decomposition could not be carried out on the given input."""


class BudgetExceededError(ReproError):
    """A cooperative execution budget was exhausted.

    Raised at a batch boundary by a budget-checking progress hook (see
    :class:`repro.runtime.Budget`). ``resource`` names the limit that
    tripped (``"deadline"``, ``"samples"``, or ``"memory"``), ``limit``
    and ``observed`` quantify it, and ``partial`` optionally carries
    whatever partial state the interrupted computation could salvage.
    """

    def __init__(self, resource, limit, observed, message=None, partial=None):
        if message is None:
            message = (
                f"{resource} budget exceeded: observed {observed!r} "
                f"against limit {limit!r}"
            )
        super().__init__(message)
        self.resource = resource
        self.limit = limit
        self.observed = observed
        self.partial = partial
        #: The :class:`repro.runtime.Budget` that raised, set by its
        #: ``check``; lets callers distinguish soft from hard budgets.
        self.budget = None


class CheckpointError(ReproError):
    """A checkpoint could not be written, read, or validated.

    Covers missing or corrupt manifests, checksum mismatches on sample
    batches, unsupported checkpoint format versions, and resuming with
    parameters different from those the checkpoint was created with.
    """


class CheckpointWriteError(CheckpointError):
    """An atomic checkpoint write failed at the OS level.

    Raised by :class:`repro.runtime.CheckpointStore` when the temp-file
    write, fsync, or rename fails (``ENOSPC``, read-only filesystem,
    quota, ...). The partial temp file is unlinked first, so the
    directory never holds a torn write. The harness catches this once,
    emits a ``checkpoint-degraded`` event, and finishes the computation
    with checkpointing disabled rather than dying mid-peel.
    """

    def __init__(self, message, *, path=None):
        super().__init__(message)
        self.path = None if path is None else str(path)


class TaskQuarantinedError(ReproError):
    """A parallel task was quarantined and the caller cannot degrade.

    Raised by :meth:`repro.parallel.ParallelExecutor.map` (policy
    ``on_quarantine="raise"``) when a payload crashed its worker or
    timed out more than ``max_task_retries`` times. ``quarantined``
    holds one :class:`repro.parallel.QuarantinedTask` record per poison
    payload, naming the task, the payload, the attempt count, and the
    reason for every strike. Stages that *can* degrade (GBU seeds, GTD
    components) use the ``"skip"`` policy instead and never see this
    exception.
    """

    def __init__(self, quarantined, message=None):
        quarantined = list(quarantined)
        if message is None:
            names = ", ".join(sorted({q.name for q in quarantined}))
            message = (
                f"{len(quarantined)} parallel task(s) quarantined "
                f"after repeated failures ({names}); see .quarantined "
                "for the poison payloads"
            )
        super().__init__(message)
        self.quarantined = quarantined


class WorkerPoolError(ReproError, RuntimeError):
    """The supervised worker pool cannot make progress.

    Raised by :class:`repro.parallel.supervisor.SupervisedPool` when
    workers die faster than they complete tasks (e.g. the machine is
    OOM-killing every replacement) — retrying further would loop
    forever. Also a :class:`RuntimeError` so pre-taxonomy callers that
    caught that keep working.
    """


class ServiceError(ReproError):
    """The query service cannot serve a request.

    Base of the serving failure contract (``repro serve``, see
    ``docs/serving.md``): every subclass maps to exactly one HTTP
    status code via :data:`HTTP_STATUS_BY_ERROR`, so a client can
    dispatch on the status line alone and the body's ``error`` field
    names the taxonomy class for programmatic callers.
    """


class OverloadedError(ServiceError):
    """Admission control shed the request (load shedding).

    Raised when the bounded request queue is full, the in-flight limit
    cannot be acquired before the request's deadline, or the resource
    watchdog reports pressure. ``retry_after`` is the server's estimate
    (seconds) of when capacity returns; it is surfaced as the HTTP
    ``Retry-After`` header.
    """

    def __init__(self, message="service overloaded; request shed",
                 retry_after: float = 1.0):
        super().__init__(message)
        self.retry_after = float(retry_after)


class IndexUnavailableError(ServiceError):
    """No usable decomposition index exists for the requested key.

    Raised when an index build has not completed (and the request did
    not ask to wait), when a circuit breaker is open with no last-good
    cached result to degrade to, or when the build failed terminally.
    ``retry_after`` estimates when a rebuild may have produced one;
    ``building`` distinguishes "in progress, come back" from "broken".
    """

    def __init__(self, message="decomposition index unavailable",
                 retry_after: float | None = None, building: bool = False):
        super().__init__(message)
        self.retry_after = None if retry_after is None else float(retry_after)
        self.building = bool(building)


class ComputationInterrupted(ReproError):
    """A long-running computation was cooperatively interrupted.

    Raised at the next batch boundary after a SIGINT or SIGTERM (real,
    via :class:`repro.runtime.InterruptGuard`, or injected by the fault
    harness) so that checkpoints stay consistent. ``partial`` optionally
    carries salvaged partial state and ``checkpoint_path`` the directory
    holding the last consistent snapshot, if any. ``exit_code`` is the
    conventional shell exit status for the signal that triggered the
    abort (130 for SIGINT, 143 for SIGTERM); the CLI propagates it.
    """

    def __init__(self, message="computation interrupted", partial=None,
                 checkpoint_path=None, exit_code=130):
        super().__init__(message)
        self.partial = partial
        self.checkpoint_path = checkpoint_path
        self.exit_code = exit_code


#: The single place the taxonomy maps to HTTP status codes — the query
#: service (``repro serve``) resolves every raised exception through
#: :func:`http_status_of`, which walks the exception's MRO and returns
#: the first match here, so subclasses inherit their parent's status
#: unless listed explicitly. Documented in ``docs/serving.md``; the
#: serving tests assert the table and the docs table agree.
HTTP_STATUS_BY_ERROR: dict[type, int] = {
    # Bad request: the caller's parameters can never succeed as given.
    ParameterError: 400,
    InvalidProbabilityError: 400,
    GraphParseError: 400,
    # Not found: the named graph/node/edge does not exist server-side.
    DatasetError: 404,
    NodeNotFoundError: 404,
    EdgeNotFoundError: 404,
    # Service unavailable (retryable): shed load or an index that is
    # not (yet, or currently) usable; carries Retry-After when known.
    OverloadedError: 503,
    IndexUnavailableError: 503,
    # Internal: everything else the taxonomy distinguishes is a
    # server-side failure the client cannot fix by changing the call.
    ServiceError: 500,
    CheckpointError: 500,
    WorkerPoolError: 500,
    TaskQuarantinedError: 500,
    BudgetExceededError: 500,
    ReproError: 500,
}


def http_status_of(exc: BaseException) -> int:
    """The HTTP status for ``exc`` per :data:`HTTP_STATUS_BY_ERROR`.

    Walks the MRO so subclasses inherit the nearest registered
    ancestor's status; unregistered exception types (including
    non-taxonomy ones) map to 500.
    """
    for klass in type(exc).__mro__:
        status = HTTP_STATUS_BY_ERROR.get(klass)
        if status is not None:
            return status
    return 500
